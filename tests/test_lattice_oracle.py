"""The element-index lattice against the tuple-permutation oracles: the same
subgroups, each with from_elements' greedy generators, in (order, element
key) order; a closure certificate above order 60; the kernel's zuppo seeds
and its join count; and the greedy maximal-subgroup scan against the
pairwise one."""

import pytest

import _lattice_oracle
from _lattice_oracle import one_element_extension_keys, oracle_subgroup_keys
from grouplab.catalog import (
    builtin_group,
    core_catalog_path,
    load_catalog,
    symmetric,
)
from grouplab.cayley import ElementIndex
from grouplab.context import clear_contexts, context_of, subgroup_sort_key
from grouplab.groups import from_elements
from grouplab.primes import prime_divisors
from grouplab.theorems import verify_case

SMALL = [e for e in load_catalog(core_catalog_path()).entries
         if e.group.order <= 60]
TINY = [e for e in SMALL if e.group.order <= 24]


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


@pytest.mark.parametrize("entry", TINY, ids=[e.name for e in TINY])
def test_catalog_lattice_matches_one_element_extension(entry):
    """No seeds and no reduction: <H, g> for every found H and element g."""
    G = entry.group
    assert one_element_extension_keys(G) == {
        H.key for H in context_of(G).all_subgroups()}


def test_quotient_lattices_match_oracle():
    """The quotient contexts L2.1b makes on S4, one for each normal subgroup,
    are roots with element indexes of their own."""
    S4 = symmetric(4)
    ctx = context_of(S4)
    assert verify_case(S4, "L2.1b", {}).verdict != "fail"
    quotients = [ctx.quotient(N)[0] for N in ctx.normal_subgroups()]
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
# 748 subgroups, all normal: the class reduction saves nothing.  S4 x E8
# (2,398 subgroups) is left out: its certificate takes about 5 s on 2 vCPUs.
PROBE = "direct(elementary_abelian(2,5),cyclic(3))"


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


@pytest.mark.parametrize("G", [e.group for e in LARGE] + [builtin_group(PROBE)],
                         ids=[e.name for e in LARGE] + [PROBE])
def test_large_lattice_is_closed_under_cyclic_joins_and_conjugation(G):
    index = ElementIndex(G.elements(), G.generators)
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


@pytest.mark.parametrize("entry", SMALL + LARGE,
                         ids=[e.name for e in SMALL + LARGE])
def test_maximal_subgroups_match_pairwise_scan(entry):
    """The greedy scan keeps the same objects in the same order as the
    pairwise one, for every subgroup of every catalog group."""
    ctx = context_of(entry.group)
    for K in ctx.all_subgroups():
        got = ctx.maximal_subgroups_of(K)
        want = _lattice_oracle.maximal_subgroups_of(ctx, K)
        assert len(got) == len(want)
        assert all(x is y for x, y in zip(got, want)), K.order


@pytest.mark.parametrize("name, subgroups, classes", [
    ("alternating(5)", 59, 9),
    ("symmetric(5)", 156, 19),
    ("SL(2,5)", 76, 12),
])
def test_published_subgroup_counts(name, subgroups, classes):
    ctx = context_of(builtin_group(name))
    assert len(ctx.all_subgroups()) == subgroups
    assert len(ctx.subgroup_classes()) == classes


def zuppo_masks(index: ElementIndex) -> dict[int, int]:
    """mask of <g> -> g, for the cyclic subgroups of prime-power order."""
    return {mask: g for mask, g in cyclic_subgroups(index).items()
            if len(prime_divisors(mask.bit_count())) == 1}


@pytest.mark.parametrize("name", ["symmetric(5)", "SL(2,5)",
                                  "direct(cyclic(3),symmetric(3))", PROBE])
def test_seeds_are_the_zuppos(name, monkeypatch):
    """The kernel's seeds are the cyclic subgroups of prime-power order,
    each given by its first generator, and it joins with nothing else: no
    generator it extends by has an order divisible by two primes."""
    G = builtin_group(name)
    index = ElementIndex(G.elements(), G.generators)
    zuppos = index.zuppos()
    assert {index.mask(p): p[1] for p in zuppos} == zuppo_masks(index)
    generators = {p[1] for p in zuppos}
    joined = set()
    extend = ElementIndex.extend
    def recording(self, elems, mask, gens):
        joined.update(gens)
        return extend(self, elems, mask, gens)
    monkeypatch.setattr(ElementIndex, "extend", recording)
    index.subgroups()
    assert joined and joined <= generators


def test_only_class_representatives_are_extended(monkeypatch):
    """The join closure extends the trivial group and one subgroup per
    further conjugacy class, by one zuppo generator per right coset: at most
    (classes) x (zuppos) calls of extend on S5, 19 x 56, where extending
    every subgroup by every cyclic subgroup takes thousands.  The kernel
    makes 366."""
    G = symmetric(5)
    classes = len(context_of(G).subgroup_classes())
    index = ElementIndex(G.elements(), G.generators)
    zuppos = len(zuppo_masks(index))
    assert (classes, zuppos) == (19, 56)
    calls = []
    extend = ElementIndex.extend
    monkeypatch.setattr(ElementIndex, "extend",
                        lambda *args: calls.append(1) or extend(*args))
    found = index.subgroups()
    assert len(found) == 156
    assert 0 < len(calls) <= classes * zuppos
