"""Group kernel: enumerated order and membership (checked against a
Schreier–Sims oracle), products, quotients."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from grouplab.catalog import (
    alternating,
    builtin_group,
    core_catalog_path,
    cyclic,
    dicyclic,
    dihedral,
    elementary_abelian,
    load_catalog,
    symmetric,
)
from grouplab.errors import (
    BoundExceededError,
    NotASubgroupError,
    NotNormalError,
)
from grouplab.cayley import ElementIndex
from grouplab.groups import (
    MAX_SUBGROUPS,
    Group,
    closure,
    direct_product,
    from_elements,
    quotient,
    semidirect_product,
    set_product,
)
from grouplab.perms import Permutation, from_cycles, identity

from _chain_oracle import ChainOracle, membership_probes

SMALL = ["cyclic(1)", "cyclic(12)", "dihedral(6)", "dicyclic(2)",
         "symmetric(4)", "alternating(4)", "elementary_abelian(2,3)",
         "direct(cyclic(3),symmetric(3))", "SL(2,3)", "alternating(5)",
         "metacyclic(7,3,2)", "dihedral(16)", "cyclic(63)",
         "direct(cyclic(5),cyclic(8))"]


@pytest.mark.parametrize("name", SMALL)
def test_order_matches_exhaustive_enumeration(name):
    """[DERIVED] the enumerated order equals the stabilizer-chain order."""
    G = builtin_group(name)
    assert G.order == ChainOracle(G).order


@pytest.mark.parametrize("name", SMALL)
def test_membership_agrees_with_element_set(name):
    """Set-lookup membership agrees with sifting through the chain."""
    G = builtin_group(name)
    chain = ChainOracle(G)
    probes = membership_probes(G)
    assert [x in G for x in probes] == [x in chain for x in probes]
    assert identity(G.degree) in G
    assert len(G.element_set()) == G.order


def test_contains_rejects_nonmembers():
    A4 = alternating(4)
    assert from_cycles("(1 2)", 4) not in A4
    assert from_cycles("(1 2 3)", 4) in A4


def test_order_bound_enforced():
    """The closure stops past the order bound, for products too."""
    with pytest.raises(BoundExceededError, match="exceeds desk bound 1000"):
        symmetric(8)  # order 40320 > 1000
    gens = list(symmetric(4).generators)
    assert len(closure(4, gens, limit=24)) == 24
    with pytest.raises(BoundExceededError):
        closure(4, gens, limit=23)
    with pytest.raises(BoundExceededError, match="exceeds desk bound 1000"):
        direct_product(symmetric(5), symmetric(5))  # order 14400


def test_degree_bound_enforced_for_direct_products():
    """C50 x C19 acts on 69 > 64 points; its order, 950, is within bounds."""
    with pytest.raises(BoundExceededError, match="degree 69 exceeds"):
        direct_product(cyclic(50), cyclic(19))
    assert direct_product(cyclic(50), cyclic(14)).degree == 64


def test_lattice_bound_enforced():
    """The lattice stops growing past MAX_SUBGROUPS: E(2^6), with 2825
    subgroups, raises while its lattice is built, within seconds."""
    G = elementary_abelian(2, 6)
    started = time.perf_counter()
    with pytest.raises(BoundExceededError,
                       match=f"more than {MAX_SUBGROUPS} subgroups"):
        ElementIndex(G.elements(), G.generators).subgroups()
    assert time.perf_counter() - started < 20


def test_known_orders():
    assert symmetric(4).order == 24
    assert alternating(5).order == 60
    assert dihedral(7).order == 14
    assert dicyclic(2).order == 8
    assert cyclic(360).order == 360
    assert elementary_abelian(3, 2).order == 9
    assert builtin_group("SL(2,3)").order == 24
    assert builtin_group("SL(2,5)").order == 120


def test_order_is_the_element_count_and_read_only():
    """order is stored once, at construction; a Group stays immutable."""
    for entry in load_catalog(core_catalog_path()).entries:
        G = entry.group
        assert G.order == len(G.elements()) == len(G.element_set())
    with pytest.raises(AttributeError):
        G.order = 1
    assert G.order == len(G.elements())


def test_from_elements_reconstructs():
    G = symmetric(3)
    H = from_elements(3, G.elements())
    assert H.order == 6 and H.element_set() == G.element_set()


def test_direct_product():
    G = direct_product(cyclic(3), symmetric(3))
    assert G.order == 18 and G.degree == 3 + 3
    G2 = direct_product(cyclic(2), cyclic(3))
    assert G2.order == 6


def test_semidirect_product_s3():
    # C3 x| C2 with inversion is S3
    N, Q = cyclic(3), cyclic(2)
    inversion = {e: e.inverse() for e in N.elements()}
    G = semidirect_product(N, Q, [inversion])
    assert G.order == 6
    from grouplab.structure import is_abelian
    assert not is_abelian(G)


def test_quotient_basic():
    S4 = symmetric(4)
    V4 = Group(4, [from_cycles("(1 2)(3 4)", 4), from_cycles("(1 3)(2 4)", 4)])
    res = quotient(S4, V4)
    assert res.group.order == 6
    assert res.epimorphism(from_cycles("(1 2)(3 4)", 4)).is_identity()


def test_quotient_requires_normal():
    S4 = symmetric(4)
    H = Group(4, [from_cycles("(1 2)", 4)])
    with pytest.raises(NotNormalError):
        quotient(S4, H)


def test_quotient_by_whole_group():
    G = symmetric(3)
    res = quotient(G, G)
    assert res.group.order == 1


def test_is_normal_in():
    from grouplab.context import context_of
    S4 = symmetric(4)
    ctx = context_of(S4)
    assert ctx.is_normal(alternating(4))
    assert not ctx.is_normal(Group(4, [from_cycles("(1 2)", 4)]))


def _all_subgroups_of(G):
    from grouplab.context import context_of
    return context_of(G).all_subgroups()


@pytest.mark.parametrize("name", ["symmetric(4)", "dicyclic(3)",
                                  "direct(cyclic(2),alternating(4))",
                                  "SL(2,3)", "cyclic(48)", "dihedral(12)"])
def test_set_product_subgroup_iff_commutes(name):
    """[DERIVED] classical criterion: HK subgroup <=> HK = KH, |G| <= 48."""
    G = builtin_group(name)
    assert G.order <= 48
    subs = _all_subgroups_of(G)
    checked = 0
    for H in subs:
        for K in subs:
            r = set_product(H, K, G)
            assert r.is_subgroup == r.commutes, (name, H.order, K.order)
            checked += 1
    assert checked == len(subs) ** 2


def test_product_size_formula():
    """|HK| = |H||K| / |H n K| on all subgroup pairs of S4: the context's
    popcount of the two masks against the element sets."""
    from grouplab.context import context_of
    G = symmetric(4)
    ctx = context_of(G)
    subs = _all_subgroups_of(G)
    for H in subs:
        for K in subs:
            inter = len(H.element_set() & K.element_set())
            assert ctx.product_size(H, K) == H.order * K.order // inter


def test_set_product_requires_subgroups():
    with pytest.raises(NotASubgroupError):
        set_product(Group(4, [from_cycles("(1 2)", 4)]),
                    symmetric(4), alternating(4))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.permutations(range(5)), min_size=1, max_size=3))
def test_generated_order_divides_s5_order(img_lists):
    gens = [Permutation(tuple(t)) for t in img_lists]
    G = Group(5, gens)
    assert 120 % G.order == 0
    assert G.order == ChainOracle(G).order


def test_group_key_is_representation_invariant():
    G1 = Group(3, [from_cycles("(1 2 3)", 3)])
    G2 = Group(3, [from_cycles("(1 3 2)", 3)])
    assert G1.key == G2.key
