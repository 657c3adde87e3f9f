"""The chief relation and the F-hypercenter as they were computed before
``GroupContext.covers``: an oracle for the cover scan.

``chief_pairs`` is the triple scan over the normal subgroups, keeping
(K, H) unless some normal M lies strictly between them; ``hypercenter``
climbs through that pair list, filtering it by the current lower term on
every step.
"""

from __future__ import annotations

from grouplab.context import GroupContext
from grouplab.errors import NotNormalError
from grouplab.formations import f_central
from grouplab.groups import Group


def chief_pairs(ctx: GroupContext) -> tuple[tuple[Group, Group], ...]:
    """All (lower, upper) pairs of normals with upper/lower minimal normal
    in G/lower."""
    normals = ctx.normal_subgroups()
    return tuple((K, H) for K in normals for H in normals
                 if K.order < H.order and ctx.le(K, H) and not any(
                     K.order < M.order < H.order
                     and ctx.le(K, M) and ctx.le(M, H) for M in normals))


def hypercenter(ctx: GroupContext, Z: Group, formation: str) -> Group:
    """The preimage in G of Z_inf^F(G/Z), for normal Z: the largest normal
    subgroup above Z reached through F-central chief factors, adding every
    F-central one above the current term at once."""
    if not ctx.is_normal(Z):
        raise NotNormalError("N is not a normal subgroup of G")
    covers = [(ctx.mask(lower), M) for lower, M in chief_pairs(ctx)]
    while True:
        gens = list(Z.generators)
        grew = False
        zmask = ctx.mask(Z)
        for lmask, M in covers:
            if lmask != zmask:
                continue
            if f_central(ctx, Z, M, formation):
                gens.extend(M.generators)
                grew = True
        if not grew:
            return Z
        Z = ctx.generated(gens)


def chief_series(ctx: GroupContext) -> tuple[Group, ...]:
    """A chief series through the first cover of each term in the pair
    list."""
    chain = [ctx.trivial_subgroup()]
    pairs = chief_pairs(ctx)
    while chain[-1].order < ctx.group.order:
        mask = ctx.mask(chain[-1])
        chain.append(next(upper for lower, upper in pairs
                          if ctx.mask(lower) == mask))
    return tuple(chain)
