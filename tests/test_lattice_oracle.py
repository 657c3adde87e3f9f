"""The element-index lattice against the tuple-permutation oracle: the same
subgroups, each with from_elements' greedy generators, in (order, element
key) order."""

import pytest

from _lattice_oracle import oracle_subgroup_keys
from grouplab.catalog import core_catalog_path, load_catalog, symmetric
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
    quotients = [ctx.quotient_ctx(N)[0] for N in ctx.normal_subgroups()]
    assert [Q.group.order for Q in quotients] == [24, 6, 2, 1]
    for qctx in quotients:
        check_lattice(qctx.group)
