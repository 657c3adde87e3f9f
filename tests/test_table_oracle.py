"""The element index's composed Cayley table against the permutation
oracle in ``_table_oracle``: every column, inverse and element order, and
each generator's conjugation map, on every catalog group and on every
quotient root G/N of the catalog groups of order <= 24."""

import pytest

from _table_oracle import permutation_table
from grouplab.catalog import core_catalog_path, load_catalog
from grouplab.context import clear_contexts, context_of

CATALOG = load_catalog(core_catalog_path()).entries
SMALL = [e for e in CATALOG if e.group.order <= 24]


@pytest.fixture(autouse=True)
def fresh_contexts():
    clear_contexts()
    yield
    clear_contexts()


def check_index(ctx):
    """The index of a root context against the permutation products."""
    index = ctx._index
    elements = index.elements
    assert elements == ctx.group.elements()
    position = {e.images: i for i, e in enumerate(elements)}
    table = permutation_table(elements)
    assert [index.column(j) for j in range(len(elements))] == table
    assert [index.inverse(j) for j in range(len(elements))] == \
        [position[e.inverse().images] for e in elements]
    assert index.orders() == [e.order() for e in elements]
    for g in ctx.group.generators:
        ginv = g.inverse()
        assert index.conjugation(position[g.images]) == \
            [position[(ginv * e * g).images] for e in elements]


def test_catalog_has_99_groups_74_of_order_at_most_24():
    assert (len(CATALOG), len(SMALL)) == (99, 74)


@pytest.mark.parametrize("entry", CATALOG, ids=[e.name for e in CATALOG])
def test_catalog_table_matches_permutation_products(entry):
    check_index(context_of(entry.group))


@pytest.mark.parametrize("entry", SMALL, ids=[e.name for e in SMALL])
def test_quotient_tables_match_permutation_products(entry):
    """Each G/N is a root with an index of its own, composed from the coset
    permutations of G's generators, unless an earlier quotient's tree
    already holds its element set: then that tree's root is checked."""
    ctx = context_of(entry.group)
    for N in ctx.normal_subgroups():
        qctx = ctx.quotient(N)[0]
        check_index(qctx._root or qctx)
