"""The cover relation of the normal lattice against the triple scan and the
pair-list climb in ``_chief_oracle``: chief pairs, covers, minimal normal
subgroups, the chief series and F-hypercenters; the analyses that must not
read the pair list; and the formation check at the F_s-quasinormality and
hypercenter doors."""

import pytest

import _chief_oracle as oracle
from grouplab.catalog import (builtin_group, core_catalog_path, load_catalog,
                              symmetric)
from grouplab.context import GroupContext, clear_contexts, context_of
from grouplab.formations import (FORMATIONS, f_hypercenter, f_residual,
                                 hypercenter, hypercenter_preimage,
                                 quotient_in_formation)
from grouplab.perms import from_cycles
from grouplab.quasinormal import is_fs_quasinormal, is_fs_quasinormal_variant
from grouplab.structure import is_supersoluble, series

SMALL = [e for e in load_catalog(core_catalog_path()).entries
         if e.group.order <= 60]


@pytest.fixture(autouse=True)
def fresh_contexts():
    clear_contexts()
    yield
    clear_contexts()


def same(xs, ys):
    """The same registry objects in the same order."""
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


def check_covers(ctx):
    pairs = oracle.chief_pairs(ctx)
    got = ctx.chief_pairs()
    assert len(got) == len(pairs)
    assert all(same(a, b) for a, b in zip(got, pairs))
    normals = ctx.normal_subgroups()
    for K in normals:
        assert same(ctx.covers(K), [H for L, H in pairs if L is K])
    assert same(ctx.minimal_normal_subgroups(),
                [H for K, H in pairs if K.order == 1])
    assert same(series(ctx.group, "chief").chain, oracle.chief_series(ctx))
    for F in FORMATIONS:
        for Z in normals:
            assert hypercenter(ctx, Z, F) is oracle.hypercenter(ctx, Z, F)


@pytest.mark.parametrize("entry", SMALL, ids=[e.name for e in SMALL])
def test_catalog_covers_match_oracle(entry):
    check_covers(context_of(entry.group))


def test_s4_quotient_covers_match_oracle():
    ctx = context_of(symmetric(4))
    quotients = [ctx.quotient(N)[0] for N in ctx.normal_subgroups()]
    assert [Q.group.order for Q in quotients] == [24, 6, 2, 1]
    for qctx in quotients:
        check_covers(qctx)


def test_chief_pairs_match_oracle_on_748_normals():
    """E32 x C3: 748 normal subgroups and 4528 chief pairs."""
    ctx = context_of(builtin_group("direct(elementary_abelian(2,5),cyclic(3))"))
    assert len(ctx.normal_subgroups()) == 748
    got = ctx.chief_pairs()
    assert len(got) == 4528
    assert all(same(a, b) for a, b in zip(got, oracle.chief_pairs(ctx)))


def test_covers_feed_the_chief_relation_without_the_pair_list(monkeypatch):
    """On fresh contexts, hypercenters, residuals, quotient membership,
    supersolubility, minimal normal subgroups and the chief series read
    covers, never the whole pair list."""
    def no_pairs(ctx):
        raise AssertionError("chief_pairs called")
    monkeypatch.setattr(GroupContext, "chief_pairs", no_pairs)
    for name in ("symmetric(4)", "SL(2,3)", "direct(symmetric(3),cyclic(4))"):
        G = builtin_group(name)
        ctx = context_of(G)
        for F in FORMATIONS:
            f_hypercenter(G, F)
            f_residual(G, F)
            for N in ctx.normal_subgroups():
                hypercenter_preimage(G, N, F)
                quotient_in_formation(ctx, N, F)
        is_supersoluble(G)
        ctx.minimal_normal_subgroups()
        series(G, "chief")


@pytest.mark.parametrize("door", [
    lambda G, H, F: is_fs_quasinormal(G, H, F),
    lambda G, H, F: is_fs_quasinormal_variant(G, H, F),
    lambda G, H, F: hypercenter_preimage(G, G, F),
    lambda G, H, F: f_hypercenter(builtin_group("trivial"), F),
], ids=["is_fs_quasinormal", "is_fs_quasinormal_variant",
        "hypercenter_preimage", "f_hypercenter"])
def test_unknown_formation_is_refused(door):
    """Each door raises even where its scan never needs the hypercenter:
    <(1 2)> meets T = A4 trivially, so the scan accepts T without it, and
    the hypercenter of G above G, or of the trivial group, is G.  A refused
    call is not memoized, so it raises again."""
    G = symmetric(4)
    H = context_of(G).generated([from_cycles("(1 2)", 4)])
    for F in ("X", "not-a-formation", "X"):
        with pytest.raises(ValueError, match="unknown formation"):
            door(G, H, F)
