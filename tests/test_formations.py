"""Formations: membership, chief-factor centrality (two paths), hypercenter,
residual."""

import pytest

from grouplab.catalog import (builtin_group, core_catalog_path, load_catalog,
                              symmetric)
from grouplab.context import clear_contexts, context_of
from grouplab.errors import BoundExceededError
from grouplab.formations import (
    f_hypercenter,
    f_residual,
    hypercenter_preimage,
    in_formation,
    is_f_central,
    quotient_in_formation,
)
from grouplab.structure import (
    chief_factors,
    is_nilpotent,
    is_soluble,
    is_supersoluble,
    series,
)

import _formation_oracle as formation_oracle
from _formation_oracle import is_f_central_generic

SAMPLE = ["cyclic(1)", "cyclic(12)", "symmetric(3)", "dicyclic(2)",
          "alternating(4)", "symmetric(4)", "SL(2,3)", "dihedral(10)",
          "metacyclic(7,3,2)", "elementary_abelian(2,3)", "dicyclic(3)",
          "direct(cyclic(2),symmetric(4))", "alternating(5)", "symmetric(5)",
          "SL(2,5)", "direct(alternating(5),cyclic(2))", "cyclic(360)"]

ORACLE = {"N": is_nilpotent, "U": is_supersoluble, "S": is_soluble}


@pytest.mark.parametrize("name", SAMPLE)
@pytest.mark.parametrize("F", ["N", "U", "S"])
def test_membership_matches_structure_predicates(name, F):
    G = builtin_group(name)
    assert in_formation(G, F) == ORACLE[F](G)


def test_invalid_formation():
    with pytest.raises(ValueError):
        in_formation(symmetric(3), "X")


@pytest.mark.parametrize("name", ["symmetric(3)", "symmetric(4)",
                                  "alternating(4)", "SL(2,3)", "dicyclic(3)",
                                  "dihedral(10)", "cyclic(24)",
                                  "elementary_abelian(3,2)",
                                  "alternating(5)", "symmetric(5)"])
@pytest.mark.parametrize("F", ["N", "U", "S"])
def test_f_centrality_dual_path_agreement(name, F):
    """Characterization-based test agrees with the generic construction
    ([V](G/C) membership) on every chief factor."""
    G = builtin_group(name)
    for cf in chief_factors(G):
        fast = is_f_central(G, cf, F)
        try:
            generic = is_f_central_generic(G, cf, F)
        except BoundExceededError:
            continue  # construction exceeded desk bounds; fast path stands
        assert fast == generic, (name, F, cf.upper.order, cf.lower.order)


def test_n_hypercenter_equals_upper_central_limit():
    """[DERIVED] Z_inf^N(G) = limit of the upper central series."""
    for name in SAMPLE:
        G = builtin_group(name)
        uc = series(G, "upper_central").chain[-1]
        assert f_hypercenter(G, "N").key == uc.key, name


@pytest.mark.parametrize("F", ["N", "U", "S"])
def test_hypercenter_is_whole_group_iff_member(F):
    """[DERIVED] Z_inf^F(G) = G <=> G in F."""
    for name in SAMPLE:
        G = builtin_group(name)
        Z = f_hypercenter(G, F)
        assert (Z.order == G.order) == in_formation(G, F), (name, F)


def test_known_hypercenters():
    S4 = symmetric(4)
    assert f_hypercenter(S4, "N").order == 1
    assert f_hypercenter(S4, "U").order == 1
    assert f_hypercenter(S4, "S").order == 24
    Q8 = builtin_group("dicyclic(2)")
    assert f_hypercenter(Q8, "N").order == 8
    A5 = builtin_group("alternating(5)")
    for F in "NUS":
        assert f_hypercenter(A5, F).order == 1


def test_known_residuals():
    S4 = symmetric(4)
    assert f_residual(S4, "N").order == 12   # A4
    assert f_residual(S4, "U").order == 4    # V4
    assert f_residual(S4, "S").order == 1
    A5 = builtin_group("alternating(5)")
    assert f_residual(A5, "S").order == 60


@pytest.mark.parametrize("F", ["N", "U", "S"])
def test_residual_is_smallest_normal_with_quotient_in_f(F):
    """[DERIVED] exhaustive: G/N in F, decided on the explicit quotient
    group, <=> N contains the residual."""
    for name in ["symmetric(3)", "symmetric(4)", "SL(2,3)", "dicyclic(3)",
                 "alternating(5)", "cyclic(30)"]:
        G = builtin_group(name)
        ctx = context_of(G)
        R = f_residual(G, F)
        rset = R.element_set()
        for N in ctx.normal_subgroups():
            assert in_formation(ctx.quotient(N)[0].group, F) == (
                rset <= N.element_set()), (name, F, N.order)


# the catalog groups of order <= 60, then S4 x E8 and E32 x C3 (748 normals)
QUOTIENT_CASES = [e.group for e in load_catalog(core_catalog_path()).entries
                  if e.group.order <= 60] + [builtin_group(name) for name in (
                      "direct(symmetric(4),elementary_abelian(2,3))",
                      "direct(elementary_abelian(2,5),cyclic(3))")]


def test_quotient_in_formation_matches_explicit_quotient():
    """Quotient-free membership (N >= G^F) agrees with building the
    quotient, and f_residual with the exhaustive scan over explicit
    quotients."""
    for G in QUOTIENT_CASES:
        clear_contexts()
        ctx = context_of(G)
        for F in "NUS":
            assert f_residual(G, F) is formation_oracle.residual(ctx, F)
            for N in ctx.normal_subgroups():
                assert (quotient_in_formation(ctx, N, F)
                        == in_formation(ctx.quotient(N)[0].group, F)), (
                            G.order, N.order, F)
    clear_contexts()


def test_hypercenter_preimage():
    S4 = symmetric(4)
    ctx = context_of(S4)
    V4 = next(N for N in ctx.normal_subgroups() if N.order == 4)
    # S4/V4 is S3, which is supersoluble, so the U-preimage is all of S4
    assert hypercenter_preimage(S4, V4, "U").order == 24
    # Z^N(S4/V4) = Z^N(S3) = 1, so the preimage is V4 itself
    assert hypercenter_preimage(S4, V4, "N").order == 4
    triv = ctx.trivial_subgroup()
    assert (hypercenter_preimage(S4, triv, "U").element_set()
            == f_hypercenter(S4, "U").element_set())


def test_hypercenter_is_normal_and_monotone():
    for name in ["symmetric(4)", "SL(2,3)", "dihedral(10)"]:
        G = builtin_group(name)
        ctx = context_of(G)
        zn = f_hypercenter(G, "N").element_set()
        zu = f_hypercenter(G, "U").element_set()
        zs = f_hypercenter(G, "S").element_set()
        assert zn <= zu <= zs  # N c U c S
        for Z in (zn, zu, zs):
            assert all(g.inverse() * z * g in Z
                       for g in G.generators for z in Z)
