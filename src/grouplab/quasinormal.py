"""Embedding predicates: s-permutability, F_s-quasinormality, F-supplements.

All three return a :class:`Verdict` whose witness can be independently
re-checked.  A deliberate reading recorded in every F_s-quasinormality
verdict: the product H*T is required to be a subgroup (automatic here since
T is normal), and that subgroup is then tested for s-permutability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .context import GroupContext, context_of, memoized
from .formations import FORMATIONS, hypercenter, member, require_formation
from .groups import Group
from .structure import holds

__all__ = [
    "Verdict",
    "is_s_permutable",
    "is_fs_quasinormal",
    "is_fs_quasinormal_variant",
    "has_f_supplement",
]

_HT_NOTE = "H*T required to be a subgroup (automatic: T normal), then s-permutable"


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of an embedding-predicate check.

    witness_kind is one of "normal_T" (F_s-quasinormality), "failing_sylow"
    (s-permutability failure), "supplement", or "" (no witness applies).
    """
    holds: bool
    witness: Optional[Group] = None
    witness_kind: str = ""
    detail: str = ""


_HOLDS, _FAILS = Verdict(True), Verdict(False)   # witness-less: one each
_NORMAL = Verdict(True, detail="normal subgroup")
_NO_T = Verdict(False, detail=_HT_NOTE)


@memoized
def _witnessed(ctx: GroupContext, holds: bool, witness: Group, kind: str,
               detail: str = "") -> Verdict:
    """The one Verdict per witnessed outcome in ctx, shared by the scans."""
    return Verdict(holds, witness, kind, detail)


def is_s_permutable(G: Group, H: Group) -> Verdict:
    """HP = PH for every Sylow subgroup P of G."""
    return s_permutable(context_of(G), H)


def is_fs_quasinormal(G: Group, H: Group, formation: str) -> Verdict:
    """Some normal T has H*T s-permutable and (H n T)H_G/H_G inside
    Z_inf^F(G/H_G)."""
    return fs_quasinormal(context_of(G), H, formation, False)


def is_fs_quasinormal_variant(G: Group, H: Group, formation: str) -> Verdict:
    """Equivalent phrasing: T restricted to normal subgroups containing H_G,
    containment stated as H/H_G n T/H_G inside Z_inf^F(G/H_G)."""
    return fs_quasinormal(context_of(G), H, formation, True)


def has_f_supplement(G: Group, H: Group, kind: str,
                     p: Optional[int] = None) -> Verdict:
    """Some T <= G with G = HT and T in the given class (U or p-nilpotent)."""
    return f_supplement(context_of(G), H, kind, p)


# Each scan validates H, by ctx.mask(H), on a memo miss only: a hit is an
# equal subgroup, validated against this ambient before.


@memoized
def s_permutable(ctx: GroupContext, H: Group) -> Verdict:
    """HP = PH for every Sylow subgroup P of ctx's group.

    Only one Sylow class per prime plus all its conjugates is scanned, which
    is all Sylow p-subgroups.  The failure witness is the first non-permuting
    Sylow subgroup in deterministic order.
    """
    if ctx.normalizes(ctx.group, H):
        return _NORMAL
    for p in ctx.primes():
        sylows = ctx.sylow_all(p)
        if len(sylows) == 1:
            continue  # the unique Sylow subgroup is normal: HP = PH as sets
        for P in sylows:
            if not ctx.permutes(H, P):
                return _witnessed(
                    ctx, False, P, "failing_sylow",
                    f"does not permute with a Sylow {p}-subgroup")
    return _HOLDS


@memoized
def fs_quasinormal(ctx: GroupContext, H: Group, formation: str,
                   variant: bool) -> Verdict:
    """Whether H is F_s-quasinormal in ctx's group, by an exhaustive scan over
    normal subgroups T in deterministic (ascending) order; the witness is the
    smallest qualifying T.  The variant only scans T containing H_G."""
    require_formation(formation)
    hmask = ctx.mask(H)
    core = ctx.core(H)
    cmask = ctx.mask(core)
    # the elements of G whose image lies in Z_inf^F(G/H_G); read on demand
    wmask = None
    for T in ctx.normal_subgroups():
        tmask = ctx.mask(T)
        if variant and cmask & ~tmask:
            continue
        inter = hmask & tmask
        if inter & (inter - 1):  # the identity always maps into the hypercenter
            if wmask is None:
                wmask = ctx.mask(hypercenter(ctx, core, formation))
            if inter & ~wmask:
                continue
        if s_permutable(ctx, ctx.join(H, T)).holds:
            return _witnessed(ctx, True, T, "normal_T", _HT_NOTE)
    return _NO_T


@memoized
def _classes_in(ctx: GroupContext, kind: str,
                p: Optional[int]) -> tuple[tuple[Group, ...], ...]:
    """The subgroup classes of ctx's group whose members lie in the
    supplement class.  That class is isomorphism-invariant, so it is decided
    once per class, on its first member."""
    if kind in FORMATIONS:
        pred = lambda tctx: member(tctx, kind)
    elif kind == "p_nilpotent":
        if p is None:
            raise ValueError("p_nilpotent supplement class requires a prime p")
        pred = lambda tctx: holds(tctx, "p_nilpotent", p)
    else:
        raise ValueError(f"unknown supplement class: {kind!r}")
    return tuple(cls for cls in ctx.subgroup_classes()
                 if pred(context_of(cls[0])))


@memoized
def f_supplement(ctx: GroupContext, H: Group, kind: str,
                 p: Optional[int]) -> Verdict:
    """Some T with G = HT and T in the class, for G ctx's group.

    Every conjugate of every subgroup class is scanned (G = HT is not
    conjugation-invariant in T for fixed H), pruned by |H|*|T| >= |G|.
    """
    G = ctx.group
    ctx.mask(H)
    for cls in _classes_in(ctx, kind, p):
        if H.order * cls[0].order < G.order:
            continue
        for T in cls:
            if ctx.product_size(H, T) == G.order:
                return _witnessed(ctx, True, T, "supplement")
    return _FAILS
