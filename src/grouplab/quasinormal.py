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
from .errors import NotASubgroupError
from .formations import hypercenter_preimage, in_formation
from .groups import Group, product_size
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


def _require_subgroup(H: Group, G: Group) -> None:
    if not H.is_subgroup_of(G):
        raise NotASubgroupError("H is not a subgroup of G")


def is_s_permutable(G: Group, H: Group) -> Verdict:
    """HP = PH for every Sylow subgroup P of G.

    Only one Sylow class per prime plus all its conjugates is scanned, which
    is all Sylow p-subgroups.  The failure witness is the first non-permuting
    Sylow subgroup in deterministic order.
    """
    _require_subgroup(H, G)
    ctx = context_of(G)
    return ctx.memo("sperm", H.key, lambda: _s_permutable_uncached(ctx, H))


def _s_permutable_uncached(ctx, H: Group) -> Verdict:
    if ctx.is_normal(H):
        return Verdict(True, detail="normal subgroup")
    helems = H.elements()
    for p in ctx.primes():
        sylows = ctx.sylow_all(p)
        if len(sylows) == 1:
            continue  # the unique Sylow subgroup is normal: HP = PH as sets
        for P in sylows:
            pelems = P.elements()
            hp = {h * q for h in helems for q in pelems}
            ph = {q * h for h in helems for q in pelems}
            if hp != ph:
                return Verdict(False, witness=P, witness_kind="failing_sylow",
                               detail=f"does not permute with a Sylow {p}-subgroup")
    return Verdict(True)


def is_fs_quasinormal(G: Group, H: Group, formation: str) -> Verdict:
    """Some normal T has H*T s-permutable and (H n T)H_G/H_G inside
    Z_inf^F(G/H_G).  Exhaustive scan over normal subgroups in deterministic
    (ascending) order; the witness is the smallest qualifying T."""
    _require_subgroup(H, G)
    ctx = context_of(G)
    return ctx.memo("fsq", (H.key, formation), lambda: _fsq_scan(
        ctx, H, formation, require_core_in_t=False))


def is_fs_quasinormal_variant(G: Group, H: Group, formation: str) -> Verdict:
    """Equivalent phrasing: T restricted to normal subgroups containing H_G,
    containment stated as H/H_G n T/H_G inside Z_inf^F(G/H_G)."""
    _require_subgroup(H, G)
    ctx = context_of(G)
    return ctx.memo("fsq_variant", (H.key, formation), lambda: _fsq_scan(
        ctx, H, formation, require_core_in_t=True))


def _fsq_scan(ctx, H: Group, formation: str, require_core_in_t: bool) -> Verdict:
    G = ctx.group
    core = ctx.core(H)
    hset = H.element_set()
    cset = core.element_set()
    # elements of G whose image lies in Z_inf^F(G/H_G); computed on demand
    W: Optional[frozenset] = None
    for T in ctx.normal_subgroups():
        if require_core_in_t and not cset <= T.element_set():
            continue
        inter = hset & T.element_set()
        if len(inter) > 1:  # the identity always maps into the hypercenter
            if W is None:
                W = hypercenter_preimage(G, core, formation)
            if not inter <= W:
                continue
        HT = ctx.generated(tuple(H.generators) + tuple(T.generators))
        if is_s_permutable(G, HT).holds:
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
    _require_subgroup(H, G)
    ctx = context_of(G)
    return ctx.memo("supplement", (H.key, kind, p),
                    lambda: _supplement_scan(ctx, H, kind, p))


def _supplement_scan(ctx, H: Group, kind: str, p: Optional[int]) -> Verdict:
    G = ctx.group
    pred = _class_predicate(kind, p)
    for cls in ctx.subgroup_classes():
        rep = cls[0]
        if H.order * rep.order < G.order:
            continue
        # the class predicate is isomorphism-invariant: decide it once
        if not pred(rep):
            continue
        for T in cls:
            if product_size(H, T) == G.order:
                return Verdict(True, witness=T, witness_kind="supplement")
    return Verdict(False)
