"""The element-index lattice against the tuple-permutation oracle: the same
subgroups, each with from_elements' greedy generators, in (order, element
key) order."""

import pytest

from _lattice_oracle import oracle_subgroup_keys
from grouplab.catalog import (
    builtin_group,
    core_catalog_path,
    load_catalog,
    symmetric,
)
from grouplab.cayley import ElementIndex
from grouplab.context import clear_contexts, context_of, subgroup_sort_key
from grouplab.groups import from_elements
from grouplab.theorems import verify_case

SMALL = [e for e in load_catalog(core_catalog_path()).entries
         if e.group.order <= 60]


@pytest.fixture(autouse=True)
def fresh_contexts():
    clear_contexts()
    yield
    clear_contexts()


def check_lattice(G):
    subs = context_of(G).all_subgroups()
    assert {H.key for H in subs} == oracle_subgroup_keys(G)
    assert list(subs) == sorted(subs, key=subgroup_sort_key)
    assert subs[-1] is G   # the root keeps its object and generators
    for H in subs[:-1]:
        assert H.generators == from_elements(H.degree, H.elements()).generators


@pytest.mark.parametrize("entry", SMALL, ids=[e.name for e in SMALL])
def test_catalog_lattice_matches_oracle(entry):
    check_lattice(entry.group)


def test_quotient_lattices_match_oracle():
    """The quotient contexts L2.1b makes on S4, one for each normal subgroup,
    are roots with element indexes of their own."""
    S4 = symmetric(4)
    ctx = context_of(S4)
    assert verify_case(S4, "L2.1b", {}).verdict != "fail"
    quotients = [ctx.quotient_ctx(N) for N in ctx.normal_subgroups()]
    assert [Q.group.order for Q in quotients] == [24, 6, 2, 1]
    for qctx in quotients:
        check_lattice(qctx.group)


# The oracle enumerates element tuples and stops at order 60.  Above it, the
# lattice is certified instead: a set of subgroups that holds every cyclic
# subgroup and is closed under <H, C> for every member H and cyclic C is the
# whole lattice, whatever built it, since every subgroup is a join of cyclic
# ones.  Each check runs on a fresh element index of the group.
LARGE = [e for e in load_catalog(core_catalog_path()).entries
         if e.group.order > 60]


def cyclic_subgroups(index: ElementIndex) -> dict[int, int]:
    """mask of <g> -> g, for the first element g generating it."""
    cyclic = {}
    for g in range(len(index.elements)):
        col = index.column(g)
        x, mask = col[0], 1
        while x:
            mask |= 1 << x
            x = col[x]
        cyclic.setdefault(mask, g)
    return cyclic


@pytest.mark.parametrize("entry", LARGE, ids=[e.name for e in LARGE])
def test_large_lattice_is_closed_under_cyclic_joins_and_conjugation(entry):
    G = entry.group
    index = ElementIndex(G.elements())
    subs = []
    for H in context_of(G).all_subgroups():
        positions = sorted(map(index.position, H.elements()))
        hgens = [index.position(h) for h in H.generators]
        hmask = index.mask(positions)
        assert index.close(hgens)[2] == hmask   # H is the subgroup it claims
        subs.append((hmask, positions, hgens))
    masks = {hmask for hmask, _, _ in subs}
    assert len(masks) == len(subs)
    cyclic = cyclic_subgroups(index)
    missing = cyclic.keys() - masks
    assert not missing, f"{len(missing)} cyclic subgroups missing"
    for hmask, positions, hgens in subs:
        for cmask, g in cyclic.items():
            if cmask & ~hmask and hmask & ~cmask:
                assert index.close([g], hgens, positions, hmask)[2] in masks
    for s in G.generators:
        conj = index.conjugation(index.position(s))
        for hmask, positions, _ in subs:
            assert index.mask(conj[x] for x in positions) in masks


@pytest.mark.parametrize("name, subgroups, classes", [
    ("alternating(5)", 59, 9),
    ("symmetric(5)", 156, 19),
    ("SL(2,5)", 76, 12),
])
def test_published_subgroup_counts(name, subgroups, classes):
    ctx = context_of(builtin_group(name))
    assert len(ctx.all_subgroups()) == subgroups
    assert len(ctx.subgroup_classes()) == classes


def test_only_class_representatives_are_extended(monkeypatch):
    """The join closure extends one subgroup per conjugacy class: at most
    (classes) x (cyclic subgroups) calls of extend on S5, where extending
    every subgroup takes thousands."""
    G = symmetric(5)
    classes = len(context_of(G).subgroup_classes())
    index = ElementIndex(G.elements())
    seeds = len(cyclic_subgroups(index)) - 1   # the trivial one is no seed
    calls = []
    extend = ElementIndex.extend
    monkeypatch.setattr(ElementIndex, "extend",
                        lambda *args: calls.append(1) or extend(*args))
    found = index.subgroups([index.position(g) for g in G.generators])
    assert len(found) == 156
    assert 0 < len(calls) <= classes * seeds
