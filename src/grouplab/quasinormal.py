"""Embedding predicates: s-permutability, F_s-quasinormality, F-supplements.

All three return a :class:`Verdict` whose witness can be independently
re-checked.  A deliberate reading recorded in every F_s-quasinormality
verdict: the product H*T is required to be a subgroup (automatic here since
T is normal), and that subgroup is then tested for s-permutability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .context import context_of
from .formations import hypercenter_cover, in_formation
from .groups import Group, require_subgroup
from .structure import is_p_nilpotent

__all__ = [
    "Verdict",
    "is_s_permutable",
    "is_fs_quasinormal",
    "is_fs_quasinormal_variant",
    "has_f_supplement",
]

_HT_NOTE = "H*T required to be a subgroup (automatic: T normal), then s-permutable"


@dataclass(frozen=True)
class Verdict:
    """Outcome of an embedding-predicate check.

    witness_kind is one of "normal_T" (F_s-quasinormality), "failing_sylow"
    (s-permutability failure), "supplement", or "" (no witness applies).
    """
    holds: bool
    witness: Optional[Group] = None
    witness_kind: str = ""
    detail: str = ""


def is_s_permutable(G: Group, H: Group) -> Verdict:
    """HP = PH for every Sylow subgroup P of G.

    Only one Sylow class per prime plus all its conjugates is scanned, which
    is all Sylow p-subgroups.  The failure witness is the first non-permuting
    Sylow subgroup in deterministic order.
    """
    ctx = context_of(G)
    return ctx.memo("sperm", H.key, _s_permutable_uncached, ctx, H)


# Each predicate validates H on a memo miss only: a hit under H.key is the
# very element set that was validated against this ambient before.


def _s_permutable_uncached(ctx, H: Group) -> Verdict:
    require_subgroup(H, ctx.group)
    if ctx.is_normal(H):
        return Verdict(True, detail="normal subgroup")
    for p in ctx.primes():
        sylows = ctx.sylow_all(p)
        if len(sylows) == 1:
            continue  # the unique Sylow subgroup is normal: HP = PH as sets
        for P in sylows:
            if not ctx.permutes(H, P):
                return Verdict(False, witness=P, witness_kind="failing_sylow",
                               detail=f"does not permute with a Sylow {p}-subgroup")
    return Verdict(True)


def is_fs_quasinormal(G: Group, H: Group, formation: str) -> Verdict:
    """Some normal T has H*T s-permutable and (H n T)H_G/H_G inside
    Z_inf^F(G/H_G).  Exhaustive scan over normal subgroups in deterministic
    (ascending) order; the witness is the smallest qualifying T."""
    ctx = context_of(G)
    return ctx.memo("fsq", (H.key, formation), _fsq_scan, ctx, H, formation,
                    False)


def is_fs_quasinormal_variant(G: Group, H: Group, formation: str) -> Verdict:
    """Equivalent phrasing: T restricted to normal subgroups containing H_G,
    containment stated as H/H_G n T/H_G inside Z_inf^F(G/H_G)."""
    ctx = context_of(G)
    return ctx.memo("fsq_variant", (H.key, formation), _fsq_scan, ctx, H,
                    formation, True)


def _fsq_scan(ctx, H: Group, formation: str, require_core_in_t: bool) -> Verdict:
    require_subgroup(H, ctx.group)
    core = ctx.core(H)
    hmask = ctx.mask(H)
    cmask = ctx.mask(core)
    # the elements of G whose image lies in Z_inf^F(G/H_G); read on demand
    wmask = None
    for T in ctx.normal_subgroups():
        tmask = ctx.mask(T)
        if require_core_in_t and cmask & ~tmask:
            continue
        inter = hmask & tmask
        if inter & (inter - 1):  # the identity always maps into the hypercenter
            if wmask is None:
                wmask = ctx.mask(hypercenter_cover(ctx, core, formation))
            if inter & ~wmask:
                continue
        if is_s_permutable(ctx.group, ctx.join(H, T)).holds:
            return Verdict(True, witness=T, witness_kind="normal_T",
                           detail=_HT_NOTE)
    return Verdict(False, detail=_HT_NOTE)


def _class_predicate(kind: str, p: Optional[int]):
    if kind in ("N", "U", "S"):
        return lambda T: in_formation(T, kind)
    if kind == "p_nilpotent":
        if p is None:
            raise ValueError("p_nilpotent supplement class requires a prime p")
        return lambda T: is_p_nilpotent(T, p)
    raise ValueError(f"unknown supplement class: {kind!r}")


def has_f_supplement(G: Group, H: Group, kind: str,
                     p: Optional[int] = None) -> Verdict:
    """Some T <= G with G = HT and T in the given class (U or p-nilpotent).

    Every conjugate of every subgroup class is scanned (G = HT is not
    conjugation-invariant in T for fixed H), pruned by |H|*|T| >= |G|.
    """
    ctx = context_of(G)
    return ctx.memo("supplement", (H.key, kind, p), _supplement_scan, ctx, H,
                    kind, p)


def _supplement_scan(ctx, H: Group, kind: str, p: Optional[int]) -> Verdict:
    G = ctx.group
    require_subgroup(H, G)
    pred = _class_predicate(kind, p)
    for cls in ctx.subgroup_classes():
        rep = cls[0]
        if H.order * rep.order < G.order:
            continue
        # the class predicate is isomorphism-invariant: decide it once
        if not pred(rep):
            continue
        for T in cls:
            if ctx.product_size(H, T) == G.order:
                return Verdict(True, witness=T, witness_kind="supplement")
    return Verdict(False)
