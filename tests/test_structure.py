"""Structural predicates, series, components, generalized Fitting subgroup."""

import os
import subprocess
import sys

import pytest

from grouplab.catalog import builtin_group, symmetric
from grouplab.context import context_of
from grouplab.lattice import sylow
from grouplab.structure import (
    chief_factors,
    components,
    generalized_fitting,
    is_abelian,
    is_cyclic,
    is_nilpotent,
    is_p_group,
    is_p_nilpotent,
    is_perfect,
    is_quasinilpotent,
    is_quasisimple,
    is_simple,
    is_soluble,
    is_supersoluble,
    layer,
    predicate,
    series,
)

CASES = {
    # name: (abelian, cyclic, nilpotent, supersoluble, soluble, simple)
    "cyclic(1)": (1, 1, 1, 1, 1, 0),
    "cyclic(6)": (1, 1, 1, 1, 1, 0),
    "cyclic(7)": (1, 1, 1, 1, 1, 1),
    "elementary_abelian(2,2)": (1, 0, 1, 1, 1, 0),
    "symmetric(3)": (0, 0, 0, 1, 1, 0),
    "dicyclic(2)": (0, 0, 1, 1, 1, 0),
    "alternating(4)": (0, 0, 0, 0, 1, 0),
    "symmetric(4)": (0, 0, 0, 0, 1, 0),
    "SL(2,3)": (0, 0, 0, 0, 1, 0),
    "alternating(5)": (0, 0, 0, 0, 0, 1),
    "symmetric(5)": (0, 0, 0, 0, 0, 0),
    "SL(2,5)": (0, 0, 0, 0, 0, 0),
    "dihedral(5)": (0, 0, 0, 1, 1, 0),
    "metacyclic(7,3,2)": (0, 0, 0, 1, 1, 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_predicate_table(name):
    G = builtin_group(name)
    ab, cy, nil, ss, sol, simp = (bool(v) for v in CASES[name])
    assert is_abelian(G) == ab
    assert is_cyclic(G) == cy
    assert is_nilpotent(G) == nil
    assert is_supersoluble(G) == ss
    assert is_soluble(G) == sol
    assert is_simple(G) == simp


def test_predicate_implication_chain():
    """cyclic => abelian => nilpotent => supersoluble => soluble."""
    for name in sorted(CASES):
        G = builtin_group(name)
        chain = [is_cyclic(G), is_abelian(G), is_nilpotent(G),
                 is_supersoluble(G), is_soluble(G)]
        for a, b in zip(chain, chain[1:]):
            assert (not a) or b, name


def test_p_group_and_p_nilpotent():
    assert is_p_group(builtin_group("dicyclic(2)"), 2)
    assert not is_p_group(symmetric(3), 2)
    assert is_p_nilpotent(symmetric(3), 2)      # normal C3 complement
    assert not is_p_nilpotent(symmetric(3), 3)
    assert not is_p_nilpotent(symmetric(4), 2)
    assert not is_p_nilpotent(symmetric(4), 3)
    assert is_p_nilpotent(builtin_group("alternating(4)"), 3)


_P_EQUALS_ONE = """
from grouplab.catalog import symmetric
from grouplab.context import context_of
from grouplab.lattice import sylow
from grouplab.structure import predicate

G = symmetric(3)
for call in (lambda: predicate(G, "p_group", 1), lambda: sylow(G, 1),
             lambda: context_of(G).O_p(1)):
    try:
        call()
        print("returned")
    except ValueError:
        print("ValueError")
"""


def test_non_prime_p_is_rejected():
    """p = 1 used to loop forever in the p-part; run it where a hang fails."""
    env = {k: v for k, v in os.environ.items() if k != "GROUPLAB_CACHE"}
    r = subprocess.run([sys.executable, "-c", _P_EQUALS_ONE], capture_output=True,
                       text=True, env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["ValueError"] * 3
    S4 = symmetric(4)
    for call in (lambda: sylow(S4, 4), lambda: is_p_group(S4, 4),
                 lambda: predicate(S4, "p_group", 4),
                 lambda: context_of(S4).O_p(4)):
        with pytest.raises(ValueError):
            call()


def test_perfect_quasisimple():
    A5 = builtin_group("alternating(5)")
    SL25 = builtin_group("SL(2,5)")
    assert is_perfect(A5) and is_simple(A5) and is_quasisimple(A5)
    assert is_perfect(SL25) and not is_simple(SL25) and is_quasisimple(SL25)
    assert not is_perfect(symmetric(4))


def test_predicate_dispatch():
    G = symmetric(3)
    assert predicate(G, "soluble")
    assert not predicate(G, "nilpotent")
    assert predicate(G, "p_nilpotent", p=2)
    with pytest.raises(ValueError):
        predicate(G, "nonsense")


def test_supersoluble_cross_oracle():
    """[DERIVED] chief-factor-prime-order test agrees with the existence of
    a normal series with cyclic factors, exhaustively over the lattice."""
    for name in ["symmetric(3)", "alternating(4)", "symmetric(4)",
                 "dicyclic(3)", "SL(2,3)", "cyclic(24)",
                 "metacyclic(5,4,2)", "elementary_abelian(3,2)"]:
        G = builtin_group(name)
        assert G.order <= 100
        ctx = context_of(G)
        normals = ctx.normal_subgroups()
        # search for 1 = N0 < N1 < ... < Nk = G, all normal in G,
        # with every factor cyclic of prime order
        reachable = {ctx.trivial_subgroup().key}
        changed = True
        while changed:
            changed = False
            for A in normals:
                if A.key in reachable:
                    continue
                for B in normals:
                    if (B.key in reachable
                            and A.order % B.order == 0
                            and _is_prime(A.order // B.order)
                            and B.element_set() <= A.element_set()):
                        reachable.add(A.key)
                        changed = True
                        break
        oracle = G.key in reachable
        assert is_supersoluble(G) == oracle, name


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_series_shapes():
    S4 = symmetric(4)
    d = series(S4, "derived")
    assert [t.order for t in d.chain] == [24, 12, 4, 1]
    lc = series(S4, "lower_central")
    assert [t.order for t in lc.chain] == [24, 12]
    uc = series(S4, "upper_central")
    assert [t.order for t in uc.chain] == [1]
    ch = series(S4, "chief")
    assert [t.order for t in ch.chain] == [1, 4, 12, 24]
    with pytest.raises(ValueError):
        series(S4, "bogus")


def test_chief_factors_s4():
    cf = chief_factors(symmetric(4))
    assert [f.upper.order // f.lower.order for f in cf] == [4, 3, 2]


def test_components_and_layer():
    S4 = symmetric(4)
    assert components(S4) == ()
    assert layer(S4).order == 1
    G = builtin_group("direct(alternating(5),cyclic(2))")
    comps = components(G)
    assert len(comps) == 1 and comps[0].order == 60
    assert layer(G).order == 60


def test_generalized_fitting():
    """[DERIVED] F*(S4) = V4; F*(A5 x C2) = whole group."""
    assert generalized_fitting(symmetric(4)).order == 4
    G = builtin_group("direct(alternating(5),cyclic(2))")
    assert generalized_fitting(G).order == G.order
    A5 = builtin_group("alternating(5)")
    assert generalized_fitting(A5).order == 60


def test_quasinilpotent():
    assert is_quasinilpotent(builtin_group("dicyclic(2)"))
    assert is_quasinilpotent(builtin_group("alternating(5)"))
    assert not is_quasinilpotent(symmetric(4))


def test_fstar_contains_its_centralizer():
    """[DERIVED] C_G(F*(G)) <= F(G) on a structural sample."""
    for name in ["symmetric(4)", "SL(2,3)", "alternating(5)",
                 "symmetric(5)", "dicyclic(3)"]:
        G = builtin_group(name)
        fs = generalized_fitting(G)
        ctx = context_of(G)
        cent = ctx.chief_centralizer(ctx.trivial_subgroup(), fs)
        assert cent.element_set() <= ctx.fitting().element_set(), name
