"""One subgroup registry per ambient group: a subgroup's context shares the
ambient's registry and lattice without any linking call."""

import gc
import inspect
import sys
import weakref

import pytest

import grouplab.context as context
import grouplab.groups as groups
from grouplab.catalog import builtin_group, symmetric
from grouplab.context import clear_contexts, context_of
from grouplab.theorems import THEOREM_IDS, params_for, verify_case


@pytest.fixture(autouse=True)
def fresh_contexts():
    clear_contexts()
    yield
    clear_contexts()


def test_context_of_takes_only_the_group():
    assert list(inspect.signature(context_of).parameters) == ["G"]


def test_all_theorems_build_one_group_per_element_set(monkeypatch):
    """Every degree-4 element set a registry builds a Group for while all 35
    theorems run on S4 lies in S4's tree, and is built once."""
    S4 = symmetric(4)
    built = []
    make = context.Group

    # GroupContext._group is the only place a tree builds a Group
    def recording(*args, **kwargs):
        H = make(*args, **kwargs)
        built.append((H.degree, H.key))
        return H

    monkeypatch.setattr(context, "Group", recording)
    for tid in THEOREM_IDS:
        for params in params_for(S4, tid):
            assert verify_case(S4, tid, params).verdict != "fail", tid
    ambient_tree = [k for k in built if k[0] == S4.degree]
    assert len(ambient_tree) > 1
    assert len(ambient_tree) == len(set(ambient_tree))


def test_all_theorems_on_s4_pass_the_context_they_hold(monkeypatch):
    """Encoders and the context-first predicates hand on the context they
    already hold: all 35 theorems on S4 look up at most 600 contexts,
    counted under every module name that binds context_of."""
    calls = []
    original = context.context_of

    def counting(G):
        calls.append(1)
        return original(G)

    for name, module in list(sys.modules.items()):
        if (name == "grouplab" or name.startswith("grouplab.")) and \
                vars(module).get("context_of") is original:
            monkeypatch.setattr(module, "context_of", counting)
    S4 = symmetric(4)
    for tid in THEOREM_IDS:
        for params in params_for(S4, tid):
            assert verify_case(S4, tid, params).verdict != "fail", tid
    assert 0 < len(calls) <= 600


def test_subgroup_context_reads_the_ambients_objects():
    S4 = symmetric(4)
    ctx = context_of(S4)
    ambient = {H.key: H for H in ctx.all_subgroups()}
    for H in ctx.all_subgroups():
        sub = context_of(H)
        assert sub.group is H
        inside = [K for K in ambient.values()
                  if K.element_set() <= H.element_set()]
        subs = sub.all_subgroups()
        assert len(subs) == len(inside)
        assert all(K is ambient[K.key] for K in subs)
        # a subgroup the sub-context builds is the ambient's object too
        Z = sub.center()
        assert Z is ambient[Z.key]


def test_subgroup_context_made_before_the_ambient_lattice():
    S4 = symmetric(4)
    H = context_of(S4).generated([S4.generators[0]])
    subs = context_of(H).all_subgroups()
    ambient = {K.key: K for K in context_of(S4).all_subgroups()}
    assert all(K is ambient[K.key] for K in subs)


@pytest.mark.parametrize("name", ["symmetric(4)", "dicyclic(3)",
                                  "cyclic(5)", "cyclic(1)"])
def test_from_elements_closes_once_per_greedy_generator(monkeypatch, name):
    G = builtin_group(name)
    elements = G.elements()
    calls = []
    close = groups.closure

    def counting(*args, **kwargs):
        calls.append(1)
        return close(*args, **kwargs)

    monkeypatch.setattr(groups, "closure", counting)
    H = groups.from_elements(G.degree, elements)
    assert H.key == G.key
    assert len(calls) == len(H.generators)


def test_clear_contexts_frees_a_root_without_the_cyclic_gc():
    """A root that ran a correspondence encoder (which asks for G/1) holds no
    reference to itself, so dropping it frees it at once."""
    S4 = symmetric(4)
    gc.disable()
    try:
        assert verify_case(S4, "L2.1b", {}).verdict != "fail"
        root = weakref.ref(context_of(S4))
        clear_contexts()
        assert root() is None
    finally:
        gc.enable()
