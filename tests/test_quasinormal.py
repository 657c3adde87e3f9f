"""Subgroup permutability: s-permutability, formation-hypercenter
quasinormality (two phrasings), formation supplements."""

import pytest

import grouplab.quasinormal as quasinormal
from grouplab.catalog import (builtin_group, core_catalog_path, dihedral,
                              load_catalog, symmetric)
from grouplab.context import clear_contexts, context_of
from grouplab.groups import set_product
from grouplab.perms import from_cycles
from grouplab.quasinormal import (
    Verdict,
    f_supplement,
    fs_quasinormal,
    has_f_supplement,
    is_fs_quasinormal,
    is_fs_quasinormal_variant,
    is_s_permutable,
    s_permutable,
)


def _gen(G, *cycles):
    return context_of(G).generated(
        [from_cycles(c, G.degree) for c in cycles])


def test_transposition_not_s_permutable_in_s3():
    S3 = symmetric(3)
    H = _gen(S3, "(1 2)")
    v = is_s_permutable(S3, H)
    assert not v.holds
    assert v.witness is not None and v.witness_kind == "failing_sylow"
    # the witness truly fails to permute with H
    r = set_product(H, v.witness, S3)
    assert not r.commutes


def test_normal_subgroups_are_s_permutable():
    S4 = symmetric(4)
    ctx = context_of(S4)
    for N in ctx.normal_subgroups():
        assert is_s_permutable(S4, N).holds


def test_q8_all_subgroups_s_permutable():
    Q8 = builtin_group("dicyclic(2)")
    for H in context_of(Q8).all_subgroups():
        assert is_s_permutable(Q8, H).holds


def test_s_permutable_oracle_by_exhaustive_products():
    """[DERIVED] decision agrees with testing HP = PH against every Sylow
    subgroup by explicit set products."""
    for name in ["symmetric(4)", "SL(2,3)", "dicyclic(3)", "dihedral(6)"]:
        G = builtin_group(name)
        ctx = context_of(G)
        sylows = [P for p in ctx.primes() for P in ctx.sylow_all(p)]
        for H in ctx.all_subgroups():
            oracle = all(set_product(H, P, G).commutes for P in sylows)
            assert is_s_permutable(G, H).holds == oracle, (name, H.order)


def test_s_permutable_implies_subnormal():
    """[PAPER] s-permutable subgroups are subnormal."""
    for name in ["symmetric(4)", "SL(2,3)", "alternating(5)", "dicyclic(3)"]:
        G = builtin_group(name)
        ctx = context_of(G)
        for H in ctx.all_subgroups():
            if is_s_permutable(G, H).holds:
                assert ctx.is_subnormal(H), (name, H.order)


def test_fsq_holds_with_normal_witness():
    S3 = symmetric(3)
    for H in context_of(S3).all_subgroups():
        for F in "NUS":
            v = is_fs_quasinormal(S3, H, F)
            assert v.holds
            assert v.witness is not None and v.witness_kind == "normal_T"
            assert "s-permutable" in v.detail  # records the H*T reading


def test_fsq_failure_in_a5():
    """The Sylow 2-subgroup of A5 has maximal subgroups that are not
    quasinormal for the soluble-formation hypercenter."""
    A5 = builtin_group("alternating(5)")
    ctx = context_of(A5)
    P = ctx.sylow(2)
    failures = [M for M in ctx.maximal_subgroups_of(P)
                if not is_fs_quasinormal(A5, M, "S").holds]
    assert len(failures) == len(ctx.maximal_subgroups_of(P)) == 3


@pytest.mark.parametrize("F", ["N", "U", "S"])
def test_main_and_variant_phrasings_agree_up_to_order_60(F):
    """[PAPER] the two phrasings of the defining condition are equivalent —
    exhaustive over every subgroup of every group of order <= 60 here."""
    names = ["cyclic(1)", "cyclic(12)", "symmetric(3)", "dicyclic(2)",
             "elementary_abelian(2,3)", "alternating(4)", "dihedral(7)",
             "metacyclic(5,4,2)", "symmetric(4)", "SL(2,3)", "dicyclic(5)",
             "direct(cyclic(2),alternating(4))", "cyclic(60)",
             "alternating(5)", "dihedral(15)", "dicyclic(6)",
             "direct(symmetric(3),symmetric(3))", "metacyclic(11,5,3)"]
    for name in names:
        G = builtin_group(name)
        assert G.order <= 60
        for H in context_of(G).all_subgroups():
            main = is_fs_quasinormal(G, H, F).holds
            variant = is_fs_quasinormal_variant(G, H, F).holds
            assert main == variant, (name, F, H.order)


def test_normal_implies_fsq():
    for name in ["symmetric(4)", "SL(2,3)", "alternating(5)"]:
        G = builtin_group(name)
        ctx = context_of(G)
        for N in ctx.normal_subgroups():
            for F in "NUS":
                assert is_fs_quasinormal(G, N, F).holds, (name, N.order, F)


def test_supplement_basics():
    S4 = symmetric(4)
    A4 = _gen(S4, "(1 2 3)", "(1 2)(3 4)")
    v = has_f_supplement(S4, A4, "U")
    assert v.holds and v.witness is not None
    # the witness is a genuine supplement in the class
    from _section_oracle import product_size
    from grouplab.structure import is_supersoluble
    assert product_size(A4, v.witness) == 24
    assert is_supersoluble(v.witness)


def test_whole_group_always_has_trivial_supplement():
    for name in ["symmetric(4)", "alternating(5)"]:
        G = builtin_group(name)
        assert has_f_supplement(G, G, "U").holds


def test_trivial_subgroup_supplement_iff_class_contains_g():
    S4 = symmetric(4)
    triv = context_of(S4).trivial_subgroup()
    # supplements of 1 must equal G; S4 is not supersoluble, not 3-nilpotent
    assert not has_f_supplement(S4, triv, "U").holds
    assert not has_f_supplement(S4, triv, "p_nilpotent", 3).holds
    assert has_f_supplement(S4, triv, "S").holds  # S4 soluble


def test_supplement_oracle_exhaustive():
    """[DERIVED] decision agrees with scanning every subgroup directly."""
    from _section_oracle import product_size
    from grouplab.structure import is_p_nilpotent, is_supersoluble
    for name in ["symmetric(4)", "dicyclic(3)"]:
        G = builtin_group(name)
        ctx = context_of(G)
        subs = ctx.all_subgroups()
        for H in subs:
            oracle_u = any(
                product_size(H, T) == G.order and is_supersoluble(T)
                for T in subs)
            assert has_f_supplement(G, H, "U").holds == oracle_u
            oracle_p = any(
                product_size(H, T) == G.order and is_p_nilpotent(T, 2)
                for T in subs)
            assert has_f_supplement(G, H, "p_nilpotent", 2).holds == oracle_p


def test_fsq_invariant_under_conjugation():
    G = symmetric(4)
    ctx = context_of(G)
    for cls in ctx.subgroup_classes():
        vals = {is_fs_quasinormal(G, H, "U").holds for H in cls}
        assert len(vals) == 1


@pytest.mark.parametrize("kind, p", [("U", None), ("p_nilpotent", 2)])
def test_supplement_class_is_decided_once_per_subgroup_class(monkeypatch,
                                                             kind, p):
    """f_supplement over all 30 subgroups of S4 asks for the context of at
    most one representative of each of the 11 subgroup classes."""
    clear_contexts()
    ctx = context_of(symmetric(4))
    subs = ctx.all_subgroups()
    assert (len(subs), len(ctx.subgroup_classes())) == (30, 11)
    calls = []
    original = quasinormal.context_of
    monkeypatch.setattr(quasinormal, "context_of",
                        lambda G: calls.append(G) or original(G))
    for H in subs:
        f_supplement(ctx, H, kind, p)
    assert 0 < len(calls) <= 11


def test_conjugation_keeps_the_fsq_verdict_and_s_permutability():
    """For every class representative H and generator g of each core group
    of order <= 60: H^g has H's whole F_s-quasinormality verdict (holds,
    the normal witness T, kind and detail) for N, U and S and both
    phrasings, and H's s-permutability.  The s-permutability witness, the
    first failing Sylow subgroup, need not be the same."""
    compared = 0
    for entry in load_catalog(core_catalog_path()).entries:
        G = entry.group
        if G.order > 60:
            continue
        clear_contexts()
        ctx = context_of(G)
        for cls in ctx.subgroup_classes():
            H = cls[0]
            for g in G.generators:
                Hg = ctx.generated([g.inverse() * h * g for h in H.generators])
                for F in "NUS":
                    for variant in (False, True):
                        assert (fs_quasinormal(ctx, Hg, F, variant)
                                == fs_quasinormal(ctx, H, F, variant)), (
                                    entry.name, H.order, F, variant)
                        compared += 1
                assert (s_permutable(ctx, Hg).holds
                        == s_permutable(ctx, H).holds), (entry.name, H.order)
                compared += 1
    clear_contexts()
    assert compared == 16163


def test_verdicts_are_slotted_and_witness_less_ones_shared():
    """Verdict has no __dict__, and each witness-less outcome is one object,
    whichever scan of whichever group returns it."""
    S4, A5, D8 = symmetric(4), builtin_group("alternating(5)"), dihedral(4)
    ctx4, ctx5, ctx8 = map(context_of, (S4, A5, D8))
    assert not hasattr(Verdict(True), "__dict__")
    with pytest.raises(AttributeError):
        Verdict(True).holds = False
    # normal subgroups of two groups
    assert is_s_permutable(S4, ctx4.normal_subgroups()[1]) \
        is is_s_permutable(A5, A5)
    # two non-normal subgroups of D8, one class each, s-permutable because
    # every Sylow subgroup of D8 is normal
    H, K = (c[0] for c in ctx8.subgroup_classes() if len(c) > 1)
    assert not ctx8.is_normal(H) and not ctx8.is_normal(K)
    assert s_permutable(ctx8, H) is s_permutable(ctx8, K)
    assert s_permutable(ctx8, H).holds and s_permutable(ctx8, H).witness is None
    # no normal T: two maximal subgroups of a Sylow 2-subgroup of A5
    M1, M2 = ctx5.maximal_subgroups_of(ctx5.sylow(2))[:2]
    assert fs_quasinormal(ctx5, M1, "S", False) \
        is fs_quasinormal(ctx5, M2, "S", True)
    assert not fs_quasinormal(ctx5, M1, "S", False).holds
    # no supersoluble supplement in A5, for 1 and for M1
    assert f_supplement(ctx5, ctx5.trivial_subgroup(), "U", None) \
        is f_supplement(ctx5, M1, "U", None)
    assert not f_supplement(ctx5, M1, "U", None).holds


def test_subgroups_with_one_fs_witness_share_one_verdict():
    """V4 and A4 are normal in S4, so both are F_s-quasinormal with the
    trivial witness T; the scans return one Verdict object for it."""
    G = symmetric(4)
    V4, A4 = context_of(G).normal_subgroups()[1:3]
    a = is_fs_quasinormal(G, V4, "U")
    assert a.holds and a.witness.order == 1
    assert is_fs_quasinormal(G, A4, "U") is a
