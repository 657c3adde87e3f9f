"""Structural series and predicates: derived/central/chief series, solubility,
supersolubility, nilpotency, p-nilpotency, simplicity, quasisimplicity,
components and the layer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .context import GroupContext, context_of
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
    ctx = context_of(G)
    if kind == "derived":
        chain = [G]
        while True:
            nxt = derived_subgroup(ctx, chain[-1])
            if nxt.order == chain[-1].order:
                break
            chain.append(nxt)
        return Series("derived", tuple(chain))
    if kind == "lower_central":
        chain = [G]
        while True:
            nxt = _commutator_subgroup(ctx, G, chain[-1])
            if nxt.order == chain[-1].order:
                break
            chain.append(nxt)
        return Series("lower_central", tuple(chain))
    if kind == "upper_central":
        chain = [ctx.trivial_subgroup()]
        while True:
            # the preimage of Z(G/term), term normal
            nxt = ctx.chief_centralizer(chain[-1], G)
            if nxt.order == chain[-1].order:
                break
            chain.append(nxt)
        return Series("upper_central", tuple(chain))
    if kind == "chief":
        chain = [ctx.trivial_subgroup()]
        pairs = ctx.chief_pairs()
        while chain[-1].order < G.order:
            # the covers of a term come in subgroup_sort_key order
            key = chain[-1].key
            chain.append(next(upper for lower, upper in pairs
                              if lower.key == key))
        return Series("chief", tuple(chain))
    raise ValueError(f"unknown series kind: {kind!r}")


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
# predicates


def is_abelian(G: Group) -> bool:
    gens = G.generators
    return all(a * b == b * a for a in gens for b in gens)


def is_cyclic(G: Group) -> bool:
    n = G.order
    return any(e.order() == n for e in G.elements())


def is_p_group(G: Group, p: int) -> bool:
    require_prime(p)
    return p_part(G.order, p) == G.order


def is_soluble(G: Group) -> bool:
    return context_of(G).memo("pred", "soluble", _soluble, G)


def _soluble(G: Group) -> bool:
    return is_abelian(G) or series(G, "derived").chain[-1].order == 1


def is_perfect(G: Group) -> bool:
    ctx = context_of(G)
    return ctx.memo("pred", "perfect", _perfect, ctx)


def _perfect(ctx: GroupContext) -> bool:
    return derived_subgroup(ctx, ctx.group).order == ctx.group.order


def is_nilpotent(G: Group) -> bool:
    """Every Sylow subgroup normal, tested via |O_p| = p-part for each p."""
    ctx = context_of(G)
    return ctx.memo("pred", "nilpotent", _nilpotent, ctx)


def _nilpotent(ctx: GroupContext) -> bool:
    G = ctx.group
    if is_abelian(G):
        return True
    return all(ctx.O_p(p).order == p_part(G.order, p) for p in ctx.primes())


def is_supersoluble(G: Group) -> bool:
    """Every chief factor of prime order."""
    ctx = context_of(G)
    return ctx.memo("pred", "supersoluble", _supersoluble, ctx)


def _supersoluble(ctx: GroupContext) -> bool:
    if is_abelian(ctx.group):
        return True
    return all(is_prime(upper.order // lower.order)
               for lower, upper in ctx.chief_pairs())


def is_p_nilpotent(G: Group, p: int) -> bool:
    """A normal p-complement exists, tested as |O_{p'}(G)| = |G| / p-part."""
    require_prime(p)
    ctx = context_of(G)
    return ctx.memo("pred", ("p_nilpotent", p), _p_nilpotent, ctx, p)


def _p_nilpotent(ctx: GroupContext, p: int) -> bool:
    order = ctx.group.order
    return ctx.O_pi_prime({p}).order == order // p_part(order, p)


def is_simple(G: Group) -> bool:
    ctx = context_of(G)
    return ctx.memo("pred", "simple", _simple, ctx)


def _simple(ctx: GroupContext) -> bool:
    return ctx.group.order > 1 and len(ctx.normal_subgroups()) == 2


def is_quasisimple(G: Group) -> bool:
    ctx = context_of(G)
    return ctx.memo("pred", "quasisimple", _quasisimple, ctx)


def _quasisimple(ctx: GroupContext) -> bool:
    if not is_perfect(ctx.group) or ctx.group.order == 1:
        return False
    return is_simple(ctx.quotient_ctx(ctx.center()).group)


def is_quasinilpotent(G: Group) -> bool:
    return generalized_fitting(G).order == G.order


def predicate(G: Group, prop: str, p: Optional[int] = None) -> bool:
    """abelian | cyclic | nilpotent | soluble | supersoluble | p_group |
    p_nilpotent | perfect | simple | quasisimple | quasinilpotent."""
    table = {
        "abelian": lambda: is_abelian(G),
        "cyclic": lambda: is_cyclic(G),
        "nilpotent": lambda: is_nilpotent(G),
        "soluble": lambda: is_soluble(G),
        "supersoluble": lambda: is_supersoluble(G),
        "perfect": lambda: is_perfect(G),
        "simple": lambda: is_simple(G),
        "quasisimple": lambda: is_quasisimple(G),
        "quasinilpotent": lambda: is_quasinilpotent(G),
        "p_group": lambda: is_p_group(G, p),
        "p_nilpotent": lambda: is_p_nilpotent(G, p),
    }
    if prop not in table:
        raise ValueError(f"unknown predicate: {prop!r}")
    return table[prop]()


# ----------------------------------------------------------------------
# components, layer, generalized Fitting subgroup

def components(G: Group) -> tuple[Group, ...]:
    """All subnormal quasisimple subgroups."""
    ctx = context_of(G)
    return ctx.memo("named", "components", _components, ctx)


def _components(ctx: GroupContext) -> tuple[Group, ...]:
    if is_soluble(ctx.group):
        return ()
    out = []
    for H in ctx.all_subgroups():
        if H.order < 60 or is_abelian(H):
            continue
        if not ctx.is_subnormal(H)[0]:
            continue
        if is_quasisimple(H):
            out.append(H)
    return tuple(out)


def layer(G: Group) -> Group:
    """E(G): the subgroup generated by all components."""
    ctx = context_of(G)
    return ctx.memo("named", "layer", _layer, ctx)


def _layer(ctx: GroupContext) -> Group:
    gens: list[Permutation] = []
    for C in components(ctx.group):
        gens.extend(C.generators)
    return ctx.generated(gens) if gens else ctx.trivial_subgroup()


def generalized_fitting(G: Group) -> Group:
    """F*(G) = F(G) E(G)."""
    ctx = context_of(G)
    return ctx.memo("named", "generalized_fitting", _generalized_fitting, ctx)


def _generalized_fitting(ctx: GroupContext) -> Group:
    gens = list(ctx.fitting().generators) + list(layer(ctx.group).generators)
    return ctx.generated(gens) if gens else ctx.trivial_subgroup()
