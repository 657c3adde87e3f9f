"""Formation machinery for the three instantiated formations:

    N (nilpotent groups), U (supersoluble groups), S (soluble groups).

Provides membership, centrality of chief factors (with both a fast
characterization and the explicit semidirect construction), the
F-hypercenter and the F-residual.
"""

from __future__ import annotations

from .context import GroupContext, context_of, memoized, subgroup_sort_key
from .errors import BoundExceededError, NotNormalError
from .groups import Group, MAX_DEGREE, MAX_ORDER, quotient, semidirect_product
from .primes import is_prime, prime_divisors
from .structure import ChiefFactor, holds, series_of

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

# formation -> the structure predicate of its membership
_MEMBERSHIP = {
    "N": "nilpotent",
    "U": "supersoluble",
    "S": "soluble",
}


def in_formation(G: Group, formation: str) -> bool:
    return member(context_of(G), formation)


def member(ctx: GroupContext, formation: str) -> bool:
    """Whether ctx's group lies in the formation."""
    if formation not in _MEMBERSHIP:
        raise ValueError(f"unknown formation: {formation!r}")
    return holds(ctx, _MEMBERSHIP[formation])


def _factor_abelian(lower: Group, upper: Group) -> bool:
    lset = lower.element_set()
    return all((a.inverse() * b.inverse() * a * b) in lset
               for a in upper.generators for b in upper.generators)


def is_f_central(G: Group, cf: ChiefFactor, formation: str) -> bool:
    return f_central(context_of(G), cf, formation)


def f_central(ctx: GroupContext, cf: ChiefFactor, formation: str) -> bool:
    """Whether the chief factor of ctx's group is F-central, by the fast
    characterization.

    N: the factor is a p-group centralized by all of G.  U: the factor has
    prime order.  S: the factor is abelian and G modulo its centralizer is
    soluble.  Agreement with the explicit semidirect construction is checked
    by is_f_central_generic wherever that construction fits desk bounds.
    """
    forder = cf.order
    if formation == "N":
        return (cf.centralizer.order == ctx.group.order
                and len(prime_divisors(forder)) == 1)
    if formation == "U":
        return is_prime(forder)
    if formation == "S":
        if not _factor_abelian(cf.lower, cf.upper):
            return False
        cset = cf.centralizer.element_set()
        return any(term.element_set() <= cset
                   for term in series_of(ctx, "derived").chain)
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
    """Z_inf^F(G): the hypercenter preimage for N = 1."""
    ctx = context_of(G)
    return hypercenter(ctx, ctx.trivial_subgroup(), formation)


def hypercenter_preimage(G: Group, N: Group, formation: str) -> Group:
    """The preimage in G of Z_inf^F(G/N), for normal N."""
    return hypercenter(context_of(G), N, formation)


@memoized
def hypercenter(ctx: GroupContext, Z: Group, formation: str) -> Group:
    """The preimage in G of Z_inf^F(G/Z), for normal Z: the largest normal
    subgroup above Z reached through F-central chief factors, adding every
    F-central one above the current term at once.

    The chief factors of G above Z are those of G/Z, with the same orders,
    and their centralizers are the preimages of those of G/Z, so each one is
    F-central in G exactly when its image is F-central in G/Z.
    """
    if not ctx.is_normal(Z):
        raise NotNormalError("N is not a normal subgroup of G")
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
            if f_central(ctx, cf, formation):
                gens.extend(M.generators)
                grew = True
        if not grew:
            return Z
        Z = ctx.generated(gens)


def f_residual(G: Group, formation: str) -> Group:
    """G^F: the smallest normal subgroup with quotient in F (exhaustive scan)."""
    return residual(context_of(G), formation)


@memoized
def residual(ctx: GroupContext, formation: str) -> Group:
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
        return any(t.element_set() <= nset
                   for t in series_of(ctx, "derived").chain)
    if formation == "N":
        return any(t.element_set() <= nset
                   for t in series_of(ctx, "lower_central").chain)
    if formation == "U":
        return all(is_prime(upper.order // lower.order)
                   for lower, upper in ctx.chief_pairs()
                   if nset <= lower.element_set())
    raise ValueError(f"unknown formation: {formation!r}")
