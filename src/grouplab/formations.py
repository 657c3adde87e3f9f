"""Formation machinery for the three instantiated formations:

    N (nilpotent groups), U (supersoluble groups), S (soluble groups).

Provides membership, centrality of chief factors (with both a fast
characterization and the explicit semidirect construction), the
F-hypercenter and the F-residual.
"""

from __future__ import annotations

from .context import GroupContext, context_of, subgroup_sort_key
from .errors import BoundExceededError
from .groups import Group, MAX_DEGREE, MAX_ORDER, quotient, semidirect_product
from .primes import is_prime, prime_divisors
from .structure import (
    ChiefFactor,
    is_nilpotent,
    is_soluble,
    is_supersoluble,
    series,
)

__all__ = [
    "FORMATIONS",
    "in_formation",
    "is_f_central",
    "is_f_central_generic",
    "f_hypercenter",
    "f_residual",
    "hypercenter_preimage",
    "quotient_in_formation",
]

FORMATIONS = ("N", "U", "S")

_MEMBERSHIP = {
    "N": is_nilpotent,
    "U": is_supersoluble,
    "S": is_soluble,
}


def in_formation(G: Group, formation: str) -> bool:
    if formation not in _MEMBERSHIP:
        raise ValueError(f"unknown formation: {formation!r}")
    return _MEMBERSHIP[formation](G)


def _derived_terms(ctx: GroupContext) -> tuple[Group, ...]:
    return ctx.memo("named", "derived_series", _series_chain, ctx.group,
                    "derived")


def _lower_central_terms(ctx: GroupContext) -> tuple[Group, ...]:
    return ctx.memo("named", "lower_central_series", _series_chain,
                    ctx.group, "lower_central")


def _series_chain(G: Group, kind: str) -> tuple[Group, ...]:
    return series(G, kind).chain


def _factor_abelian(lower: Group, upper: Group) -> bool:
    lset = lower.element_set()
    return all((a.inverse() * b.inverse() * a * b) in lset
               for a in upper.generators for b in upper.generators)


def is_f_central(G: Group, cf: ChiefFactor, formation: str) -> bool:
    """Whether the chief factor is F-central, by the fast characterization.

    N: the factor is a p-group centralized by all of G.  U: the factor has
    prime order.  S: the factor is abelian and G modulo its centralizer is
    soluble.  Agreement with the explicit semidirect construction is checked
    by is_f_central_generic wherever that construction fits desk bounds.
    """
    ctx = context_of(G)
    forder = cf.order
    if formation == "N":
        return (cf.centralizer.order == G.order
                and len(prime_divisors(forder)) == 1)
    if formation == "U":
        return is_prime(forder)
    if formation == "S":
        if not _factor_abelian(cf.lower, cf.upper):
            return False
        cset = cf.centralizer.element_set()
        return any(term.element_set() <= cset for term in _derived_terms(ctx))
    raise ValueError(f"unknown formation: {formation!r}")


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


def f_hypercenter(G: Group, formation: str) -> Group:
    """Z_inf^F(G), computed by ascent through F-central minimal normal
    subgroups of successive quotients."""
    ctx = context_of(G)
    return ctx.memo("hypercenter", formation, _hypercenter_ascent, ctx,
                    formation)


def _hypercenter_ascent(ctx: GroupContext, formation: str) -> Group:
    G = ctx.group
    Z = ctx.trivial_subgroup()
    pairs = ctx.chief_pairs()
    while True:
        gens = list(Z.generators)
        grew = False
        for lower, M in pairs:
            if lower.key != Z.key:
                continue
            cf = ChiefFactor(upper=M, lower=Z,
                             centralizer=ctx.chief_centralizer(Z, M),
                             order=M.order // Z.order)
            if is_f_central(G, cf, formation):
                gens.extend(M.generators)
                grew = True
        if not grew:
            return Z
        Z = ctx.generated(gens)


def f_residual(G: Group, formation: str) -> Group:
    """G^F: the smallest normal subgroup with quotient in F (exhaustive scan)."""
    ctx = context_of(G)
    return ctx.memo("residual", formation, _residual_scan, ctx, formation)


def _residual_scan(ctx: GroupContext, formation: str) -> Group:
    qualifying = [N for N in ctx.normal_subgroups()
                  if quotient_in_formation(ctx, N, formation)]
    best = min(qualifying, key=subgroup_sort_key)
    bset = best.element_set()
    if not all(bset <= N.element_set() for N in qualifying):
        raise AssertionError("residual is not unique")  # pragma: no cover
    return best


def quotient_in_formation(ctx: GroupContext, N: Group, formation: str) -> bool:
    """G/N in F, without constructing the quotient group."""
    nset = N.element_set()
    if formation == "S":
        return any(t.element_set() <= nset for t in _derived_terms(ctx))
    if formation == "N":
        return any(t.element_set() <= nset for t in _lower_central_terms(ctx))
    if formation == "U":
        return all(is_prime(upper.order // lower.order)
                   for lower, upper in ctx.chief_pairs()
                   if nset <= lower.element_set())
    raise ValueError(f"unknown formation: {formation!r}")


def hypercenter_preimage(G: Group, N: Group, formation: str) -> frozenset:
    """Elements of G mapping into Z_inf^F(G/N), for normal N."""
    return hypercenter_cover(context_of(G), N, formation).element_set()


def hypercenter_cover(ctx: GroupContext, N: Group, formation: str) -> Group:
    """The subgroup of the elements of ctx.group mapping into
    Z_inf^F(G/N), for normal N."""
    return ctx.memo("hyper_preimage", (N.key, formation), _hypercenter_cover,
                    ctx, N, formation)


def _hypercenter_cover(ctx: GroupContext, N: Group, formation: str) -> Group:
    return ctx.preimage(
        N, f_hypercenter(ctx.quotient_ctx(N)[0].group, formation))
