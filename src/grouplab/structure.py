"""Structural series and predicates: derived/central/chief series, solubility,
supersolubility, nilpotency, p-nilpotency, simplicity, quasisimplicity,
components and the layer.

Each is computed and memoized on a context: ``holds(ctx, name, p)`` decides
the named predicate, and ``series_of``, ``components_of``, ``layer_of`` and
``generalized_fitting_of`` take the context too.  The ``(G, ...)`` functions
are doors that call them with ``context_of(G)``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .context import GroupContext, context_of, memoized
from .groups import Group
from .perms import Permutation
from .primes import is_prime, p_part, require_prime

__all__ = [
    "Series",
    "ChiefFactor",
    "series",
    "predicate",
    "chief_factors",
    "components",
    "layer",
    "generalized_fitting",
]


@dataclass(frozen=True)
class Series:
    kind: str
    chain: tuple[Group, ...]


@dataclass(frozen=True)
class ChiefFactor:
    upper: Group
    lower: Group
    centralizer: Group
    order: int


def derived_subgroup(ctx: GroupContext, K: Group) -> Group:
    comms = [g.inverse() * h.inverse() * g * h
             for g in K.generators for h in K.generators]
    H = ctx.generated(comms) if comms else ctx.trivial_subgroup()
    return ctx.normal_closure_in(K, H)


def _commutator_subgroup(ctx: GroupContext, A: Group, B: Group) -> Group:
    comms = [a.inverse() * b.inverse() * a * b
             for a in A.generators for b in B.generators]
    H = ctx.generated(comms) if comms else ctx.trivial_subgroup()
    return ctx.normal_closure_in(ctx.group, H)


def series(G: Group, kind: str) -> Series:
    """derived | lower_central | upper_central | chief."""
    return series_of(context_of(G), kind)


@memoized
def series_of(ctx: GroupContext, kind: str) -> Series:
    G = ctx.group
    if kind == "chief":
        chain = [ctx.trivial_subgroup()]
        pairs = ctx.chief_pairs()
        while chain[-1].order < G.order:
            # the covers of a term come in subgroup_sort_key order
            key = chain[-1].key
            chain.append(next(upper for lower, upper in pairs
                              if lower.key == key))
        return Series("chief", tuple(chain))
    steps = {
        "derived": lambda K: derived_subgroup(ctx, K),
        "lower_central": lambda K: _commutator_subgroup(ctx, G, K),
        # the preimage of Z(G/K), K normal
        "upper_central": lambda K: ctx.chief_centralizer(K, G),
    }
    if kind not in steps:
        raise ValueError(f"unknown series kind: {kind!r}")
    chain = [ctx.trivial_subgroup() if kind == "upper_central" else G]
    while True:
        nxt = steps[kind](chain[-1])
        if nxt.order == chain[-1].order:
            return Series(kind, tuple(chain))
        chain.append(nxt)


def chief_factors(G: Group) -> tuple[ChiefFactor, ...]:
    """Every chief factor of G: all pairs (K, H) of normals with H/K minimal
    normal in G/K, not just the factors of one chief series."""
    ctx = context_of(G)
    out = []
    for lower, upper in ctx.chief_pairs():
        out.append(ChiefFactor(
            upper=upper, lower=lower,
            centralizer=ctx.chief_centralizer(lower, upper),
            order=upper.order // lower.order,
        ))
    return tuple(out)


# ----------------------------------------------------------------------
# predicates: _PREDICATES maps each name to its check(ctx, p), which holds
# calls and stores


def _p_group(ctx: GroupContext, p: int) -> bool:
    require_prime(p)
    return p_part(ctx.group.order, p) == ctx.group.order


def _p_nilpotent(ctx: GroupContext, p: int) -> bool:
    """A normal p-complement exists, tested as |O_{p'}(G)| = |G| / p-part."""
    require_prime(p)
    order = ctx.group.order
    return ctx.O_pi_prime({p}).order == order // p_part(order, p)


_PREDICATES = {
    "abelian": lambda ctx, p: all(a * b == b * a for a in ctx.group.generators
                                  for b in ctx.group.generators),
    "cyclic": lambda ctx, p: any(e.order() == ctx.group.order
                                 for e in ctx.group.elements()),
    # every Sylow subgroup normal, tested via |O_q| = q-part for each q
    "nilpotent": lambda ctx, p: holds(ctx, "abelian") or all(
        ctx.O_p(q).order == p_part(ctx.group.order, q) for q in ctx.primes()),
    "soluble": lambda ctx, p: (holds(ctx, "abelian")
                               or series_of(ctx, "derived").chain[-1].order == 1),
    # every chief factor of prime order
    "supersoluble": lambda ctx, p: holds(ctx, "abelian") or all(
        is_prime(upper.order // lower.order)
        for lower, upper in ctx.chief_pairs()),
    "perfect": lambda ctx, p: (derived_subgroup(ctx, ctx.group).order
                               == ctx.group.order),
    "simple": lambda ctx, p: (ctx.group.order > 1
                              and len(ctx.normal_subgroups()) == 2),
    "quasisimple": lambda ctx, p: (
        holds(ctx, "perfect") and ctx.group.order > 1
        and holds(ctx.quotient_ctx(ctx.center()), "simple")),
    "quasinilpotent": lambda ctx, p: (generalized_fitting_of(ctx).order
                                      == ctx.group.order),
    "p_group": _p_group,
    "p_nilpotent": _p_nilpotent,
}


@memoized
def holds(ctx: GroupContext, name: str, p: Optional[int] = None) -> bool:
    """Whether ctx's group has the named property; p is the prime of
    p_group and p_nilpotent."""
    check = _PREDICATES.get(name)
    if check is None:
        raise ValueError(f"unknown predicate: {name!r}")
    return check(ctx, p)


def predicate(G: Group, prop: str, p: Optional[int] = None) -> bool:
    """abelian | cyclic | nilpotent | soluble | supersoluble | p_group |
    p_nilpotent | perfect | simple | quasisimple | quasinilpotent."""
    return holds(context_of(G), prop, p)


def is_abelian(G: Group) -> bool:
    return holds(context_of(G), "abelian")


def is_cyclic(G: Group) -> bool:
    return holds(context_of(G), "cyclic")


def is_p_group(G: Group, p: int) -> bool:
    return holds(context_of(G), "p_group", p)


def is_soluble(G: Group) -> bool:
    return holds(context_of(G), "soluble")


def is_perfect(G: Group) -> bool:
    return holds(context_of(G), "perfect")


def is_nilpotent(G: Group) -> bool:
    return holds(context_of(G), "nilpotent")


def is_supersoluble(G: Group) -> bool:
    return holds(context_of(G), "supersoluble")


def is_p_nilpotent(G: Group, p: int) -> bool:
    return holds(context_of(G), "p_nilpotent", p)


def is_simple(G: Group) -> bool:
    return holds(context_of(G), "simple")


def is_quasisimple(G: Group) -> bool:
    return holds(context_of(G), "quasisimple")


def is_quasinilpotent(G: Group) -> bool:
    return holds(context_of(G), "quasinilpotent")


# ----------------------------------------------------------------------
# components, layer, generalized Fitting subgroup

def components(G: Group) -> tuple[Group, ...]:
    """All subnormal quasisimple subgroups."""
    return components_of(context_of(G))


@memoized
def components_of(ctx: GroupContext) -> tuple[Group, ...]:
    if holds(ctx, "soluble"):
        return ()
    out = []
    for H in ctx.all_subgroups():
        if H.order < 60:
            continue
        hctx = context_of(H)
        if holds(hctx, "abelian") or not ctx.is_subnormal(H)[0]:
            continue
        if holds(hctx, "quasisimple"):
            out.append(H)
    return tuple(out)


def layer(G: Group) -> Group:
    """E(G): the subgroup generated by all components."""
    return layer_of(context_of(G))


@memoized
def layer_of(ctx: GroupContext) -> Group:
    gens: list[Permutation] = []
    for C in components_of(ctx):
        gens.extend(C.generators)
    return ctx.generated(gens) if gens else ctx.trivial_subgroup()


def generalized_fitting(G: Group) -> Group:
    """F*(G) = F(G) E(G)."""
    return generalized_fitting_of(context_of(G))


@memoized
def generalized_fitting_of(ctx: GroupContext) -> Group:
    gens = list(ctx.fitting().generators) + list(layer_of(ctx).generators)
    return ctx.generated(gens) if gens else ctx.trivial_subgroup()
