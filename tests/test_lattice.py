"""Subgroup lattice: completeness, conjugacy classes, Sylow and Hall scans."""

from itertools import combinations

import pytest

from grouplab.catalog import (builtin_group, core_catalog_path, load_catalog,
                              symmetric)
from grouplab.context import clear_contexts, context_of
from grouplab.groups import Group, closure
from grouplab.lattice import (
    enumerate_subgroups,
    hall,
    maximal_subgroups,
    normal_subgroups,
    sylow,
    sylow_all,
)
from grouplab.perms import from_cycles
from grouplab.primes import p_part, prime_divisors
from grouplab.structure import generalized_fitting


def test_s4_subgroup_census():
    """[DERIVED] S4 has 30 subgroups in 11 conjugacy classes."""
    lat = enumerate_subgroups(symmetric(4))
    assert lat.subgroup_count == 30
    assert len(lat.classes) == 11


@pytest.mark.parametrize("name,count", [
    ("cyclic(12)", 6),          # one per divisor
    ("dicyclic(2)", 6),         # Q8: 1, C2, 3xC4, Q8
    ("symmetric(3)", 6),
    ("elementary_abelian(2,2)", 5),
    ("alternating(5)", 59),
])
def test_known_subgroup_counts(name, count):
    lat = enumerate_subgroups(builtin_group(name))
    assert lat.subgroup_count == count


@pytest.mark.parametrize("name", [
    "symmetric(3)", "alternating(4)", "dicyclic(3)", "cyclic(30)",
    "dihedral(10)", "SL(2,3)", "direct(cyclic(2),dihedral(6))",
    "metacyclic(5,4,2)", "symmetric(4)", "elementary_abelian(3,2)",
])
def test_lattice_completeness_oracle(name):
    """[DERIVED] every pairwise join of closures of element pairs is in the
    lattice, and every lattice member is closed — exhaustive for |G| <= 60."""
    G = builtin_group(name)
    assert G.order <= 60
    found = {H.key for H in context_of(G).all_subgroups()}
    elems = G.elements()
    for a in elems:
        for b in elems:
            sub = frozenset(p.images for p in closure(G.degree, [a, b]))
            assert sub in found, (name, "missing 2-generated subgroup")


def test_class_members_are_conjugate():
    """[DERIVED] explicit conjugating elements exist within each class."""
    G = symmetric(4)
    ctx = context_of(G)
    for cls in ctx.subgroup_classes():
        rep = cls[0]
        for H in cls:
            assert any(
                frozenset((g.inverse() * x * g) for x in rep.elements())
                == H.element_set()
                for g in G.elements())


def test_deterministic_ordering():
    G = builtin_group("dicyclic(3)")
    ctx = context_of(G)
    orders = [H.order for H in ctx.all_subgroups()]
    assert orders == sorted(orders)
    a = enumerate_subgroups(G)
    b = enumerate_subgroups(G)
    assert ([c.members[0].key for c in a.classes]
            == [c.members[0].key for c in b.classes])


def test_class_is_normal_exactly_when_it_is_one_subgroup():
    """enumerate_subgroups flags a class normal when it has one member; the
    normality test agrees on every class of the catalog groups of order
    <= 60."""
    for entry in load_catalog(core_catalog_path()).entries:
        if entry.group.order > 60:
            continue
        ctx = context_of(entry.group)
        for c in enumerate_subgroups(entry.group).classes:
            assert c.is_normal == ctx.is_normal(c.representative), (
                entry.name, c.order)
    clear_contexts()


def test_s4_normal_subgroups():
    """[DERIVED] normals of S4 are 1, V4, A4, S4."""
    orders = sorted(N.order for N in normal_subgroups(symmetric(4)))
    assert orders == [1, 4, 12, 24]


def test_q8_maximal_subgroups():
    """[DERIVED] Q8 has three maximal subgroups, all of order 4."""
    Q8 = builtin_group("dicyclic(2)")
    ms = maximal_subgroups(Q8)
    assert len(ms) == 3 and all(M.order == 4 for M in ms)


def test_q8_unique_minimal_subgroup():
    Q8 = builtin_group("dicyclic(2)")
    minimal = [H for H in context_of(Q8).all_subgroups() if H.order == 2]
    assert len(minimal) == 1


def test_n_maximal():
    S4 = symmetric(4)
    P = sylow(S4, 2)
    ctx = context_of(S4)
    first = ctx.n_maximal_subgroups_of(P, 1)
    assert all(M.order == 4 for M in first)
    second = ctx.n_maximal_subgroups_of(P, 2)
    assert all(M.order == 2 for M in second)


def test_maximal_of_prime_order_group_is_trivial():
    C5 = builtin_group("cyclic(5)")
    ms = maximal_subgroups(C5)
    assert len(ms) == 1 and ms[0].order == 1


def test_sylow():
    S4 = symmetric(4)
    assert sylow(S4, 2).order == 8
    assert len(sylow_all(S4, 2)) == 3
    assert sylow(S4, 3).order == 3
    assert len(sylow_all(S4, 3)) == 4
    assert sylow(S4, 5).order == 1


def test_hall():
    A5 = builtin_group("alternating(5)")
    H, single = hall(A5, {2, 3})
    assert H is not None and H.order == 12
    H2, _ = hall(A5, {3, 5})
    assert H2 is None


def test_core_and_subnormality():
    S4 = symmetric(4)
    P = sylow(S4, 2)
    ctx = context_of(S4)
    assert ctx.core(P).order == 4  # V4
    assert ctx.is_subnormal(P) is False
    A4 = ctx.O_upper_p(2)
    assert A4.order == 12
    assert ctx.is_subnormal(A4) is True


def test_named_subgroups_s4():
    S4 = symmetric(4)
    ctx = context_of(S4)
    assert ctx.fitting().order == 4
    assert ctx.frattini().order == 1
    assert ctx.center().order == 1
    assert ctx.O_p(2).order == 4
    assert generalized_fitting(S4).order == 4


def test_subnormal_pi_subgroups_inside_o_pi():
    """[DERIVED] every subnormal pi-subgroup lies in O_pi(G)."""
    for name in ["symmetric(4)", "dicyclic(3)", "SL(2,3)"]:
        G = builtin_group(name)
        ctx = context_of(G)
        from grouplab.primes import prime_divisors as _primes_of
        for H in ctx.all_subgroups():
            pi = _primes_of(H.order)
            if not pi or not ctx.is_subnormal(H):
                continue
            pi_set = set(pi)
            o_pi = max(
                (N for N in ctx.normal_subgroups()
                 if set(_primes_of(N.order)) <= pi_set),
                key=lambda N: N.order)
            assert H.element_set() <= o_pi.element_set()


def _conjugates(H, gens):
    """The element sets of H's conjugates, by permutation products: the orbit
    of H under conjugation by the generators."""
    orbit = {H.element_set()}
    queue = list(orbit)
    for S in queue:
        for g in gens:
            T = frozenset(g.inverse() * h * g for h in S)
            if T not in orbit:
                orbit.add(T)
                queue.append(T)
    return orbit


def test_subgroup_scans_match_their_brute_force_definitions():
    """Minimal normal subgroups, pi-cores, Sylow and Hall subgroups against
    the filters over the normal subgroups and the lattice that they replaced,
    with containment and conjugacy taken from element sets and products, on
    the catalog groups of order <= 60 and on PSL(2,7), whose Hall
    {2,3}-subgroups form two classes."""
    clear_contexts()
    psl27 = Group(7, [from_cycles("(1 2 3 4 5 6 7)", 7),
                      from_cycles("(1 2)(3 6)", 7)])
    for G in [e.group for e in load_catalog(core_catalog_path()).entries
              if e.group.order <= 60] + [psl27]:
        ctx = context_of(G)
        subs = ctx.all_subgroups()
        normals = ctx.normal_subgroups()
        nontrivial = [N for N in normals if N.order > 1]
        assert ctx.minimal_normal_subgroups() == tuple(
            N for N in nontrivial
            if not any(M.element_set() < N.element_set() for M in nontrivial))

        def core(pi):
            return max((N for N in normals
                        if set(prime_divisors(N.order)) <= set(pi)),
                       key=lambda N: N.order)

        primes = ctx.primes()
        for p in (2, 3, 5, 7):
            assert ctx.O_p(p) == core({p}), (G, p)
            assert ctx.O_pi_prime({p}) == core(set(primes) - {p})
            assert ctx.sylow_all(p) == tuple(
                H for H in subs if H.order == p_part(G.order, p))
        for r in range(len(primes) + 1):
            for pi in combinations(primes, r):
                assert ctx.O_pi(pi) == core(pi), (G, pi)
                part = 1
                for p in pi:
                    part *= p_part(G.order, p)
                members = [H for H in subs if H.order == part]
                want = (None, True) if not members else (
                    members[0],
                    len(_conjugates(members[0], G.generators)) == len(members))
                assert ctx.hall(pi) == want, (G, pi)
        clear_contexts()
