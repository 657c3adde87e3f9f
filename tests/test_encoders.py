"""The encoder protocol, the two shared shapes and the quotient-image path.

Every real catalog case passes, so the reference digests cannot tell a
correct aggregation from one that drops a false conclusion.  These tests
feed verify_case encoders whose answers are known.
"""

import pytest

import _section_oracle as oracle
from grouplab import theorems
from grouplab.catalog import builtin_group, core_catalog_path, load_catalog
from grouplab.context import clear_contexts, context_of
from grouplab.theorems import verify_case


def _fake(values):
    def encode(ctx, params, wit):
        yield from values
    return encode


def _run(monkeypatch, theorem_id, encoder):
    monkeypatch.setitem(theorems._ENCODERS, theorem_id, encoder)
    return verify_case(builtin_group("symmetric(3)"), theorem_id, {})


@pytest.mark.parametrize("theorem_id, yielded, expected", [
    ("L2.1c", [True, False], ("fail", True, False)),
    ("L2.1c", [True, True], ("pass", True, True)),
    ("L2.1c", [], ("vacuous", False, True)),
    ("L3.1", [(True, True), (True, False)], ("fail", True, False)),
    ("L3.1", [(False, False), (True, True)], ("pass", True, True)),
])
def test_verify_case_aggregates_what_the_encoder_yields(
        monkeypatch, theorem_id, yielded, expected):
    r = _run(monkeypatch, theorem_id, _fake(yielded))
    assert (r.verdict, r.hypothesis_value, r.conclusion_value) == expected


def _true_only_in(G):
    """A predicate that holds exactly when decided in G's own context."""
    return lambda ctx, H, params: ctx.group.key == G.key


@pytest.mark.parametrize("containers", [
    theorems._class_reps, lambda ctx: ctx.normal_subgroups()])
def test_hereditary_fails_when_the_subcontext_disagrees(monkeypatch, containers):
    G = builtin_group("symmetric(3)")
    r = _run(monkeypatch, "L2.1a",
             theorems._hereditary(_true_only_in(G), containers))
    assert (r.verdict, r.hypothesis_value, r.conclusion_value) == \
        ("fail", True, False)


def test_hereditary_never_asks_where_the_hypothesis_fails(monkeypatch):
    asked = []

    def pred(ctx, H, params):
        asked.append(ctx.group.key == G.key)
        return False

    G = builtin_group("symmetric(3)")
    r = _run(monkeypatch, "L2.1a", theorems._hereditary(pred, theorems._class_reps))
    assert r.verdict == "vacuous"
    assert asked and all(asked)


def test_corresponds_fails_when_the_quotient_disagrees(monkeypatch):
    G = builtin_group("symmetric(3)")
    r = _run(monkeypatch, "L2.1b", theorems._corresponds(_true_only_in(G)))
    assert (r.verdict, r.hypothesis_value, r.conclusion_value) == \
        ("fail", False, True)


def test_quotient_image_is_the_quotient_lattice_member():
    """KN/N from the quotient context's registry: the same subgroup as its
    image under the permutation oracle's quotient map (K itself for N = 1,
    whose quotient context is G's), and the very object of the quotient
    lattice, whether the image or the lattice is made first."""
    checked = 0
    for entry in load_catalog(core_catalog_path()).entries:
        G = entry.group
        if G.order > 24:
            continue
        clear_contexts()
        ctx = context_of(G)
        subs = ctx.all_subgroups()
        for N in ctx.normal_subgroups():
            qctx = ctx.quotient_ctx(N)
            hom = oracle.coset_quotient(G, N).epimorphism
            images = [ctx.quotient_image(N, K) for K in subs]
            lattice = {Q.key: Q for Q in qctx.all_subgroups()}
            for K, img in zip(subs, images):
                want = K if N.order == 1 else hom.image_of_subgroup(K)
                assert img.key == want.key, (entry.name, K)
                assert lattice[img.key] is img, (entry.name, K)
                assert ctx.quotient_image(N, K) is img
                checked += 1
    clear_contexts()
    assert checked > 10000
