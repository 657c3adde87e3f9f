"""Formation machinery for the three instantiated formations:

    N (nilpotent groups), U (supersoluble groups), S (soluble groups).

Provides membership, centrality of chief factors by a fast
characterization, the F-hypercenter and the F-residual.
"""

from __future__ import annotations

from .context import GroupContext, context_of, memoized
from .errors import NotNormalError
from .groups import Group
from .primes import is_prime, prime_divisors
from .structure import ChiefFactor, holds, series_of

__all__ = [
    "FORMATIONS",
    "in_formation",
    "is_f_central",
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


def require_formation(formation: str) -> None:
    if formation not in _MEMBERSHIP:
        raise ValueError(f"unknown formation: {formation!r}")


def member(ctx: GroupContext, formation: str) -> bool:
    """Whether ctx's group lies in the formation."""
    require_formation(formation)
    return holds(ctx, _MEMBERSHIP[formation])


def is_f_central(G: Group, cf: ChiefFactor, formation: str) -> bool:
    return f_central(context_of(G), cf.lower, cf.upper, formation)


def f_central(ctx: GroupContext, lower: Group, upper: Group,
              formation: str) -> bool:
    """Whether the chief factor upper/lower of ctx's group is F-central, by
    the fast characterization.

    N: the factor is a p-group centralized by all of G.  U: the factor has
    prime order.  S: the factor is abelian and G modulo its centralizer is
    soluble.  The tests check it against the explicit semidirect
    construction wherever that construction fits desk bounds.
    """
    require_formation(formation)
    forder = upper.order // lower.order
    if formation == "U":
        return is_prime(forder)
    C = ctx.chief_centralizer(lower, upper)
    if formation == "N":
        return (C.order == ctx.group.order
                and len(prime_divisors(forder)) == 1)
    # S: the factor is abelian exactly when upper centralizes it
    return ctx.le(upper, C) and any(
        ctx.le(term, C) for term in series_of(ctx, "derived").chain)


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
    F-central cover of Z at once and climbing on from their join.

    The chief factors of G above Z are those of G/Z, with the same orders,
    and their centralizers are the preimages of those of G/Z, so each one is
    F-central in G exactly when its image is F-central in G/Z.
    """
    require_formation(formation)
    if not ctx.is_normal(Z):
        raise NotNormalError("N is not a normal subgroup of G")
    gens = [g for M in ctx.covers(Z)
            if f_central(ctx, Z, M, formation)
            for g in M.generators]
    if not gens:
        return Z
    return hypercenter(ctx, ctx.generated([*Z.generators, *gens]), formation)


def f_residual(G: Group, formation: str) -> Group:
    """G^F: the smallest normal subgroup with quotient in F."""
    return residual(context_of(G), formation)


@memoized
def residual(ctx: GroupContext, formation: str) -> Group:
    """The first normal N, in subgroup_sort_key order, with Z_inf^F(G/N) =
    G/N: for saturated F, exactly the N above G^F; N = G is one."""
    return next(N for N in ctx.normal_subgroups()
                if hypercenter(ctx, N, formation).order == ctx.group.order)


def quotient_in_formation(ctx: GroupContext, N: Group, formation: str) -> bool:
    """G/N in F, without constructing the quotient group: N contains G^F."""
    return ctx.le(residual(ctx, formation), N)
