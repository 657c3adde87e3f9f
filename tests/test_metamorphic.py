"""Metamorphic checks: relabelling a group's points changes every element's
position in the index, and so every subgroup mask, but no verdict; nor does
rebuilding the group as its right regular representation, which changes the
degree, the positions and the generators at once."""

import json
from functools import cache

from hypothesis import given, settings, strategies as st

from grouplab.catalog import core_catalog_path, from_multiplication, load_catalog
from grouplab.context import clear_contexts
from grouplab.groups import Group
from grouplab.perms import Permutation
from grouplab.theorems import THEOREM_IDS, params_for, verify_case


@cache
def _small_groups() -> tuple[Group, ...]:
    return tuple(e.group for e in load_catalog(core_catalog_path()).entries
                 if e.group.order <= 24)


def _relabelled(G: Group, sigma: list[int]) -> Group:
    """G with each point i renamed sigma[i]: every generator g becomes the
    conjugate that maps sigma[i] to sigma[g(i)]."""
    gens = []
    for g in G.generators:
        images = [0] * G.degree
        for i, gi in enumerate(g.images):
            images[sigma[i]] = sigma[gi]
        gens.append(Permutation(images))
    return Group(G.degree, gens)


def _rows(G: Group) -> list[tuple]:
    clear_contexts()
    rows = []
    for tid in THEOREM_IDS:
        for params in params_for(G, tid):
            r = verify_case(G, tid, params)
            rows.append((tid, json.dumps(params, sort_keys=True), r.verdict,
                         r.hypothesis_value, r.conclusion_value))
    clear_contexts()
    return rows


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_relabelling_the_points_keeps_every_verdict_row(data):
    G = data.draw(st.sampled_from(_small_groups()))
    sigma = data.draw(st.permutations(range(G.degree)))
    H = _relabelled(G, sigma)
    assert H.order == G.order
    assert _rows(H) == _rows(G)


def test_the_regular_representation_keeps_every_verdict_row():
    """Each core group of order <= 24, rebuilt from its own multiplication
    as a group of degree |G|, has G's verdict rows."""
    groups = _small_groups()
    assert len(groups) == 74
    for G in groups:
        R = from_multiplication(G.elements(), lambda a, b: a * b)
        assert (R.degree, R.order) == (G.order, G.order)
        assert _rows(R) == _rows(G), (G.order, G.generators)
