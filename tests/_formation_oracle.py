"""Formation oracles on explicit groups.

F-centrality of a chief factor by the explicit construction: an oracle
for the fast characterization in :func:`grouplab.formations.f_central`.

A chief factor H/K of G is F-central when the semidirect product
[H/K](G / C_G(H/K)) lies in F.  This builds that test group: the factor
and the quotient by its centralizer come from ``groups.quotient``, the
action from conjugating preimages, the product from
``groups.semidirect_product``.

The F-residual by the exhaustive scan grouplab ran before it read the
residual off the hypercenter ascent: every normal subgroup N whose quotient
group G/N, built explicitly, lies in F; the first of them must lie in all
the others.
"""

from __future__ import annotations

from grouplab.context import GroupContext
from grouplab.errors import BoundExceededError
from grouplab.formations import in_formation
from grouplab.groups import (
    MAX_DEGREE,
    MAX_ORDER,
    Group,
    quotient,
    semidirect_product,
)
from grouplab.structure import ChiefFactor


def is_f_central_generic(G: Group, cf: ChiefFactor, formation: str) -> bool:
    """Membership of the explicit test group [H/K](G / C_G(H/K)) in F.

    Raises BoundExceededError when the construction does not fit desk scale
    (factor order > 64 or test-group order > 1000).
    """
    if cf.order > MAX_DEGREE:
        raise BoundExceededError(
            f"chief factor of order {cf.order} exceeds degree bound {MAX_DEGREE}")
    vres = quotient(cf.upper, cf.lower)
    V = vres.group
    C = cf.centralizer
    if C.order == G.order:
        return in_formation(V, formation)
    qres = quotient(G, C)
    Q = qres.group
    if V.order * Q.order > MAX_ORDER:
        raise BoundExceededError(
            f"test group order {V.order * Q.order} exceeds {MAX_ORDER}")
    # align Q's stored generators with preimages among G's generators
    actions = []
    upper_elems = cf.upper.elements()
    for g, img in zip(G.generators, qres.epimorphism.images):
        if img.is_identity():
            continue
        ginv = g.inverse()
        phi = {vres.epimorphism(h): vres.epimorphism(ginv * h * g)
               for h in upper_elems}
        actions.append(phi)
    test_group = semidirect_product(V, Q, actions)
    return in_formation(test_group, formation)


def residual(ctx: GroupContext, formation: str) -> Group:
    """G^F: the first normal subgroup, in the normal-list order, whose
    explicit quotient group lies in F; it must lie in every other one."""
    qualifying = [N for N in ctx.normal_subgroups()
                  if in_formation(ctx.quotient(N)[0].group, formation)]
    best = qualifying[0]
    if not all(ctx.le(best, N) for N in qualifying):
        raise AssertionError("residual is not unique")
    return best
