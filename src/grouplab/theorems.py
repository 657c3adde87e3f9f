"""Encodings of every verified statement as checkable predicates over one
group.

Each theorem id maps to a parameter enumerator and an evaluator that yields
instances.  Implications aggregate as: fail iff some instance has a true
hypothesis and a false conclusion; vacuous iff no instance has a true
hypothesis.  Equivalences aggregate as: fail iff any instance's two sides
differ (never vacuous when instances exist).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable, Optional

from .context import GroupContext, context_of
from .formations import FORMATIONS, in_formation, quotient_in_formation
from .groups import Group, centralizer, product_size, quotient, set_product
from .perms import to_cycles
from .primes import is_prime, p_part, prime_divisors
from .quasinormal import (
    has_f_supplement,
    is_fs_quasinormal,
    is_fs_quasinormal_variant,
    is_s_permutable,
)
from .structure import (
    generalized_fitting,
    is_cyclic,
    is_nilpotent,
    is_p_nilpotent,
    is_simple,
    is_soluble,
    is_supersoluble,
)

__all__ = ["THEOREM_IDS", "CaseResult", "verify_case", "params_for"]

FORMATIONS_OVER_U = ("U", "S")  # the instantiated formations containing U

THEOREM_IDS: tuple[str, ...] = (
    "L2.1a", "L2.1b", "L2.1c", "L2.1d", "L2.1e",
    "L2.2.1", "L2.2.2", "L2.2.3", "L2.2.4", "L2.2.5", "L2.2.6",
    "L2.3", "L2.4", "L2.5", "L2.6",
    "L2.7.1", "L2.7.2",
    "L2.8", "L2.9", "L2.10", "L2.11",
    "L2.12.1", "L2.12.2", "L2.12.3", "L2.12.4", "L2.12.5",
    "L2.13.1", "L2.13.2",
    "L3.1", "T3.2", "T3.3",
    "L4.1", "L4.2", "T4.3", "T4.4",
)

IMPORTED_IDS = frozenset({"L2.8", "L2.9"})
IFF_IDS = frozenset({"L2.1b", "L2.2.1", "L2.2.2", "L2.8", "L2.9",
                     "L3.1", "T4.3", "T4.4"})


@dataclass
class CaseResult:
    theorem_id: str
    params: dict
    direction: str
    imported: bool
    hypothesis_value: bool
    conclusion_value: bool
    verdict: str                 # pass | fail | vacuous | skipped
    witnesses: list = field(default_factory=list)
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# shared helpers


def _sub(ctx: GroupContext, H: Group) -> GroupContext:
    """Analysis context of a subgroup, sharing the ambient lattice."""
    return context_of(H, parent=ctx)


def _gens_json(H: Group) -> dict:
    return {"order": H.order,
            "generators": [to_cycles(g) for g in H.generators] or ["()"]}


def _sperm(ctx: GroupContext, H: Group) -> bool:
    return is_s_permutable(ctx.group, H).holds


def _fsq(ctx: GroupContext, H: Group, F: str) -> bool:
    return is_fs_quasinormal(ctx.group, H, F).holds


def _sperm_subgroups(ctx: GroupContext) -> tuple[Group, ...]:
    return tuple(H for H in ctx.all_subgroups() if _sperm(ctx, H))


def _quotient_p_nilpotent(ctx: GroupContext, E: Group, p: int) -> bool:
    """G/E has a normal p-complement, decided on the normal list of G."""
    index = ctx.group.order // E.order
    target = index // p_part(index, p)
    eset = E.element_set()
    return any(K.order == E.order * target and eset <= K.element_set()
               for K in ctx.normal_subgroups())


def _direct_span_equals(ctx: GroupContext, parts: list[Group], whole: Group) -> bool:
    """Whether some subset of `parts` (normal subgroups) is an internal
    direct decomposition of `whole`: pairwise-trivial running intersections
    and orders multiplying out.  Products of normal subgroups are subgroups,
    so plain set products suffice."""
    target = whole.element_set()

    def dfs(i: int, cur: frozenset) -> bool:
        if len(cur) == len(target):
            return True
        if i == len(parts):
            return False
        if dfs(i + 1, cur):
            return True
        mset = parts[i].element_set()
        if len(target) % (len(cur) * len(mset)) == 0 and len(cur & mset) == 1:
            new = frozenset(d * m for d in cur for m in mset)
            if len(new) == len(cur) * len(mset) and new <= target:
                return dfs(i + 1, new)
        return False

    return dfs(0, ctx.trivial_subgroup().element_set())


def _semisimple_nonabelian(T: Group) -> bool:
    """T is trivial or a direct product of non-abelian simple groups."""
    if T.order == 1:
        return True
    tctx = context_of(T)
    mins = tctx.minimal_normal_subgroups()
    for M in mins:
        _sub(tctx, M)
        if is_prime(M.order) or not is_simple(M):
            return False
    return _direct_span_equals(tctx, list(mins), T)


def _sylow_maximals(ctx: GroupContext, A: Group, only_noncyclic: bool):
    """(P, M) pairs: M maximal in the Sylow subgroup P of A (optionally only
    non-cyclic P)."""
    out = []
    for p in prime_divisors(A.order):
        # one Sylow per prime: the checked predicates are conjugation-invariant
        P = ctx.sylow_of_subgroup(A, p)[0]
        if only_noncyclic and is_cyclic(P):
            continue
        for M in ctx.maximal_subgroups_of(P):
            out.append((P, M))
    return out


def _gcd_tower(order: int, p: int, n: int) -> bool:
    prod = 1
    for i in range(1, n + 1):
        prod *= p ** i - 1
    return math.gcd(order, prod) == 1


# ---------------------------------------------------------------------------
# witness re-checks (independent second evaluation paths)


def _recheck_fsq(ctx: GroupContext, H: Group, F: str, expected: bool) -> bool:
    return is_fs_quasinormal_variant(ctx.group, H, F).holds == expected


def _recheck_supplement(ctx: GroupContext, H: Group, T: Group) -> bool:
    return set_product(H, T, ctx.group).size == ctx.group.order


def _recheck_failed(check: str, H: Group) -> dict:
    """Witness of a failed recheck; verify_case turns it into a fail."""
    return {"kind": "recheck_failed", "check": check,
            "subgroup": _gens_json(H)}


# ---------------------------------------------------------------------------
# encoders: each returns (instances, witnesses);
# implication instances are (hyp, concl); iff instances are (lhs, rhs)


def _enc_l21a(ctx, params):
    inst, wit = [], []
    for K in (cls[0] for cls in ctx.subgroup_classes()):
        kctx = _sub(ctx, K)
        for H in ctx.subgroups_of(K):
            hyp = _sperm(ctx, H)
            inst.append((hyp, _sperm(kctx, H) if hyp else True))
    return inst, wit


def _enc_l21b(ctx, params):
    inst = []
    for N in ctx.normal_subgroups():
        qctx, hom = ctx.quotient_ctx(N)
        nset = N.element_set()
        for K in ctx.all_subgroups():
            if not nset <= K.element_set():
                continue
            lhs = _sperm(qctx, hom.image_of_subgroup(K))
            rhs = _sperm(ctx, K)
            inst.append((lhs, rhs))
    return inst, []


def _enc_l21c(ctx, params):
    inst = []
    for H in ctx.all_subgroups():
        hyp = _sperm(ctx, H)
        inst.append((hyp, ctx.is_subnormal(H)[0] if hyp else True))
    return inst, []


def _enc_l21d(ctx, params):
    sperm = _sperm_subgroups(ctx)
    inst = []
    for H, F in combinations_with_replacement(sperm, 2):
        inter = ctx.subgroup(sorted(H.element_set() & F.element_set()))
        inst.append((True, _sperm(ctx, inter)))
    return inst, []


def _enc_l21e(ctx, params):
    sperm = _sperm_subgroups(ctx)
    inst = []
    for M in (cls[0] for cls in ctx.subgroup_classes()):
        mctx = _sub(ctx, M)
        mset = M.element_set()
        for H in sperm:
            inter = ctx.subgroup(sorted(H.element_set() & mset))
            inst.append((True, _sperm(mctx, inter)))
    return inst, []


def _enc_l221(ctx, params):
    F = params["formation"]
    inst, wit = [], []
    for H in (cls[0] for cls in ctx.subgroup_classes()):
        a = is_fs_quasinormal(ctx.group, H, F)
        b = is_fs_quasinormal_variant(ctx.group, H, F)
        inst.append((a.holds, b.holds))
        if a.holds != b.holds:
            wit.append({"kind": "variant_disagreement", "formation": F,
                        "subgroup": _gens_json(H)})
    return inst, wit


def _enc_l222(ctx, params):
    F = params["formation"]
    inst = []
    for N in ctx.normal_subgroups():
        qctx, hom = ctx.quotient_ctx(N)
        nset = N.element_set()
        for K in ctx.all_subgroups():
            if not nset <= K.element_set():
                continue
            lhs = _fsq(qctx, hom.image_of_subgroup(K), F)
            rhs = _fsq(ctx, K, F)
            inst.append((lhs, rhs))
    return inst, []


def _enc_l223(ctx, params):
    F = params["formation"]
    inst = []
    for N in ctx.normal_subgroups():
        qctx, hom = ctx.quotient_ctx(N)
        for E in (cls[0] for cls in ctx.subgroup_classes()):
            if math.gcd(N.order, E.order) != 1:
                continue
            hyp = _fsq(ctx, E, F)
            concl = _fsq(qctx, hom.image_of_subgroup(E), F) if hyp else True
            inst.append((hyp, concl))
    return inst, []


def _enc_l224(ctx, params):
    F = params["formation"]
    inst = []
    for K in (cls[0] for cls in ctx.subgroup_classes()):
        kctx = _sub(ctx, K)
        for H in ctx.subgroups_of(K):
            hyp = _fsq(ctx, H, F)
            inst.append((hyp, _fsq(kctx, H, F) if hyp else True))
    return inst, []


def _enc_l225(ctx, params):
    F = params["formation"]
    inst = []
    for K in ctx.normal_subgroups():
        kctx = _sub(ctx, K)
        for H in ctx.subgroups_of(K):
            hyp = _fsq(ctx, H, F)
            inst.append((hyp, _fsq(kctx, H, F) if hyp else True))
    return inst, []


def _enc_l226(ctx, params):
    F = params["formation"]
    hyp = in_formation(ctx.group, F)
    inst = []
    for H in (cls[0] for cls in ctx.subgroup_classes()):
        inst.append((hyp, _fsq(ctx, H, F) if hyp else True))
    return inst, []


def _enc_l23(ctx, params):
    inst = []
    for p in ctx.primes():
        Op = ctx.O_p(p)
        Oup = ctx.O_upper_p(p)
        for H in (cls[0] for cls in ctx.subgroup_classes()):
            if H.order == 1 or prime_divisors(H.order) != (p,):
                continue
            hyp = _sperm(ctx, H)
            if not hyp:
                inst.append((False, True))
                continue
            hset = H.element_set()
            in_op = hset <= Op.element_set()
            normalized = all(g.inverse() * h * g in hset
                             for g in Oup.generators for h in H.generators)
            inst.append((True, in_op and normalized))
    return inst, []


def _enc_l24(ctx, params):
    inst = []
    for A in (cls[0] for cls in ctx.subgroup_classes()):
        if A.order == 1:
            continue
        hyp = ctx.is_subnormal(A)[0]
        if not hyp:
            inst.append((False, True))
            continue
        pi = prime_divisors(A.order)
        inst.append((True, A.element_set() <= ctx.O_pi(pi).element_set()))
    return inst, []


def _enc_l25(ctx, params):
    phi = ctx.frattini()
    inst = []
    mins = list(ctx.minimal_normal_subgroups())
    for N in ctx.normal_subgroups():
        if N.order == 1:
            continue
        nctx = _sub(ctx, N)
        hyp = is_nilpotent(N) and \
            len(N.element_set() & phi.element_set()) == 1
        if not hyp:
            inst.append((False, True))
            continue
        nset = N.element_set()
        inside = [M for M in mins if M.element_set() <= nset]
        inst.append((True, _direct_span_equals(ctx, inside, N)))
    return inst, []


def _enc_l26(ctx, params):
    F = params["formation"]
    inst = []
    for E in ctx.normal_subgroups():
        hyp = is_cyclic(E) and quotient_in_formation(ctx, E, F)
        inst.append((hyp, in_formation(ctx.group, F) if hyp else True))
    return inst, []


def _supplement_holds(ctx, H, cls, p):
    return has_f_supplement(ctx.group, H, cls, p).holds


def _enc_l271(ctx, params):
    cls, p = params["class"], params.get("p")
    inst = []
    for H in (c[0] for c in ctx.subgroup_classes()):
        hyp = _supplement_holds(ctx, H, cls, p)
        if not hyp:
            inst.append((False, True))
            continue
        ok = True
        for N in ctx.normal_subgroups():
            qctx, hom = ctx.quotient_ctx(N)
            if not _supplement_holds(qctx, hom.image_of_subgroup(H), cls, p):
                ok = False
                break
        inst.append((True, ok))
    return inst, []


def _enc_l272(ctx, params):
    cls, p = params["class"], params.get("p")
    inst = []
    for K in (c[0] for c in ctx.subgroup_classes()):
        kctx = _sub(ctx, K)
        for H in ctx.subgroups_of(K):
            hyp = _supplement_holds(ctx, H, cls, p)
            inst.append((hyp,
                         _supplement_holds(kctx, H, cls, p) if hyp else True))
    return inst, []


def _maximals_condition(ctx, target: Group, only_noncyclic: bool,
                        allow_supplement: bool) -> tuple[bool, Optional[Group]]:
    """Every maximal subgroup of every (non-cyclic) Sylow subgroup of
    `target` is U_s-quasinormal in G (or has a supersoluble supplement when
    allowed).  Returns (holds, failing subgroup)."""
    for _, M in _sylow_maximals(ctx, target, only_noncyclic):
        if allow_supplement and _supplement_holds(ctx, M, "U", None):
            continue
        if not _fsq(ctx, M, "U"):
            return False, M
    return True, None


def _enc_l28(ctx, params):
    F = params["formation"]
    lhs = in_formation(ctx.group, F)
    rhs = False
    for E in ctx.normal_subgroups():
        if not quotient_in_formation(ctx, E, F):
            continue
        ok, _ = _maximals_condition(ctx, E, only_noncyclic=True,
                                    allow_supplement=True)
        if ok:
            rhs = True
            break
    return [(lhs, rhs)], []


def _enc_l29(ctx, params):
    F = params["formation"]
    lhs = in_formation(ctx.group, F)
    rhs = False
    for E in ctx.normal_subgroups():
        if not is_soluble(E) or not quotient_in_formation(ctx, E, F):
            continue
        FE = _sub(ctx, E).fitting()
        ok, _ = _maximals_condition(ctx, FE, only_noncyclic=True,
                                    allow_supplement=True)
        if ok:
            rhs = True
            break
    return [(lhs, rhs)], []


def _enc_l210(ctx, params):
    odd = [p for p in ctx.primes() if p != 2]
    inst = []
    for mask in range(1, 1 << len(odd)):
        pi = tuple(p for i, p in enumerate(odd) if mask >> i & 1)
        member, single = ctx.hall(pi)
        hyp = member is not None
        inst.append((hyp, single if hyp else True))
    return inst, []


def _enc_l211(ctx, params):
    order = ctx.group.order
    inst = []
    for p in ctx.primes():
        for n in range(1, 5):
            hyp = order % p ** (n + 1) != 0 and _gcd_tower(order, p, n)
            inst.append((hyp, is_p_nilpotent(ctx.group, p) if hyp else True))
    return inst, []


def _fstar(ctx, H: Group) -> Group:
    return generalized_fitting(H) if H.order > 1 else H


def _enc_l2121(ctx, params):
    fs_g = generalized_fitting(ctx.group)
    inst = []
    for N in ctx.normal_subgroups():
        _sub(ctx, N)
        inst.append((True,
                     _fstar(ctx, N).element_set() <= fs_g.element_set()))
    return inst, []


def _enc_l2122(ctx, params):
    fs_g = generalized_fitting(ctx.group)
    fset = fs_g.element_set()
    inst = []
    for N in ctx.normal_subgroups():
        if not N.element_set() <= fset:
            inst.append((False, True))
            continue
        qctx, hom = ctx.quotient_ctx(N)
        img = hom.image_of_subgroup(fs_g)
        fs_q = generalized_fitting(qctx.group)
        inst.append((True, img.element_set() <= fs_q.element_set()))
    return inst, []


def _enc_l2123(ctx, params):
    G = ctx.group
    fs = generalized_fitting(G)
    fit = ctx.fitting()
    ok = fit.element_set() <= fs.element_set()
    _sub(ctx, fs)
    ok = ok and _fstar(ctx, fs).key == fs.key
    if is_soluble(fs):
        ok = ok and fs.key == fit.key
    return [(True, ok)], []


def _enc_l2124(ctx, params):
    fs = generalized_fitting(ctx.group)
    cent = centralizer(ctx.group, fs)
    return [(True, cent.element_set() <= ctx.fitting().element_set())], []


def _enc_l2125(ctx, params):
    from .structure import layer

    G = ctx.group
    fs = generalized_fitting(G)
    fit = ctx.fitting()
    E = layer(G)
    joined = ctx.generated(tuple(fit.generators) + tuple(E.generators))
    ok = joined.key == fs.key
    ectx = _sub(ctx, E)
    ZE = ectx.center()
    ok = ok and (fit.element_set() & E.element_set()) == ZE.element_set()
    if ok:
        if E.order == ZE.order:
            quot_ok = True
        else:
            quot_ok = _semisimple_nonabelian(quotient(E, ZE).group)
        ok = quot_ok
    return [(True, ok)], []


def _enc_l2131(ctx, params):
    inst = []
    fs_g = generalized_fitting(ctx.group)
    for H in ctx.normal_subgroups():
        if not is_soluble(H):
            inst.append((False, True))
            continue
        phi = _sub(ctx, H).frattini()
        qctx, hom = ctx.quotient_ctx(phi)
        img = hom.image_of_subgroup(fs_g)
        inst.append((True, img.key == generalized_fitting(qctx.group).key))
    return inst, []


def _enc_l2132(ctx, params):
    inst = []
    fs_g = generalized_fitting(ctx.group)
    zset = ctx.center().element_set()
    for K in ctx.normal_subgroups():
        primes = prime_divisors(K.order)
        hyp = K.order > 1 and len(primes) == 1 and K.element_set() <= zset
        if not hyp:
            inst.append((False, True))
            continue
        qctx, hom = ctx.quotient_ctx(K)
        img = hom.image_of_subgroup(fs_g)
        inst.append((True, img.key == generalized_fitting(qctx.group).key))
    return inst, []


def _enc_l31(ctx, params):
    G = ctx.group
    wit = []
    if G.order == 1:
        return [(True, True)], wit
    p = min(ctx.primes())
    P = ctx.sylow(p)
    lhs = True
    for M in ctx.maximal_subgroups_of(P):
        v = is_fs_quasinormal(G, M, "S")
        if not v.holds:
            lhs = False
            if _recheck_fsq(ctx, M, "S", False):
                wit.append({"kind": "fsq_failure", "formation": "S",
                            "subgroup": _gens_json(M),
                            "sylow_prime": p, "rechecked": True})
            else:
                wit.append(_recheck_failed("fsq_failure", M))
            break
    rhs = is_soluble(G)
    return [(lhs, rhs)], wit


def _enc_t32(ctx, params):
    G = ctx.group
    triv = ctx.trivial_subgroup()
    pairs = [(G, triv)]
    wit = []
    if G.order <= 120:
        classes = ctx.subgroup_classes()
        a_classes = [c for c in classes if ctx.is_subnormal(c[0])[0]]
        b_classes = []
        for c in classes:
            rep = c[0]
            if math.gcd(rep.order, G.order // rep.order) != 1:
                continue
            if not is_supersoluble(rep):
                continue
            rctx = _sub(ctx, rep)
            if all(is_cyclic(rctx.sylow(q)) for q in prime_divisors(rep.order)):
                b_classes.append(c)
        for ac in a_classes:
            for bc in b_classes:
                if ac[0].order * bc[0].order < G.order:
                    continue
                for A in ac:
                    for B in bc:
                        if product_size(A, B) == G.order and \
                                (A.key, B.key) != (G.key, triv.key):
                            pairs.append((A, B))
    concl = is_supersoluble(G)
    inst = []
    for A, B in pairs:
        hyp, failing = _maximals_condition(ctx, A, only_noncyclic=True,
                                           allow_supplement=False)
        inst.append((hyp, concl if hyp else True))
        if hyp and B.order == 1:
            wit.append({"kind": "b_trivial_factorization",
                        "a": _gens_json(A), "note": "B = 1 included by policy"})
    return inst, wit


def _enc_t33(ctx, params):
    F = params["formation"]
    concl = in_formation(ctx.group, F)
    inst = []
    for H in ctx.normal_subgroups():
        if not quotient_in_formation(ctx, H, F):
            inst.append((False, True))
            continue
        _sub(ctx, H)
        target = _fstar(ctx, H)
        hyp, _ = _maximals_condition(ctx, target, only_noncyclic=True,
                                     allow_supplement=True)
        inst.append((hyp, concl if hyp else True))
    return inst, []


def _enc_l41(ctx, params):
    p, n = params["p"], params["n"]
    G = ctx.group
    P = ctx.sylow(p)
    wit = []
    hyp = True
    for M in ctx.n_maximal_subgroups_of(P, n):
        v = has_f_supplement(G, M, "p_nilpotent", p)
        if not v.holds:
            hyp = False
            break
        if v.witness is not None and not wit:
            if _recheck_supplement(ctx, M, v.witness):
                wit.append({"kind": "supplement", "p": p, "n": n,
                            "subgroup": _gens_json(M),
                            "supplement": _gens_json(v.witness),
                            "rechecked": True})
            else:
                wit.append(_recheck_failed("supplement", M))
    return [(hyp, is_p_nilpotent(G, p) if hyp else True)], wit


def _enc_l42(ctx, params):
    p, n = params["p"], params["n"]
    G = ctx.group
    P = ctx.sylow(p)
    hyp = all(has_f_supplement(G, M, "p_nilpotent", p).holds or _fsq(ctx, M, "U")
              for M in ctx.n_maximal_subgroups_of(P, n))
    return [(hyp, is_p_nilpotent(G, p) if hyp else True)], []


def _enc_t43(ctx, params):
    p, n = params["p"], params["n"]
    G = ctx.group
    lhs = is_p_nilpotent(G, p)
    rhs = False
    for E in ctx.normal_subgroups():
        if not _quotient_p_nilpotent(ctx, E, p):
            continue
        P = ctx.sylow_of_subgroup(E, p)[0]
        if all(has_f_supplement(G, M, "p_nilpotent", p).holds or _fsq(ctx, M, "U")
               for M in ctx.n_maximal_subgroups_of(P, n)):
            rhs = True
            break
    return [(lhs, rhs)], []


def _enc_t44(ctx, params):
    p = params["p"]
    G = ctx.group
    lhs = is_p_nilpotent(G, p)
    rhs = False
    wit = []
    for H in ctx.normal_subgroups():
        if not is_soluble(H) or not _quotient_p_nilpotent(ctx, H, p):
            continue
        FH = _sub(ctx, H).fitting()
        ok, failing = _maximals_condition(ctx, FH, only_noncyclic=False,
                                          allow_supplement=False)
        if ok:
            rhs = True
            wit.append({"kind": "qualifying_normal", "p": p,
                        "subgroup": _gens_json(H)})
            break
    return [(lhs, rhs)], wit


_ENCODERS: dict[str, Callable] = {
    "L2.1a": _enc_l21a, "L2.1b": _enc_l21b, "L2.1c": _enc_l21c,
    "L2.1d": _enc_l21d, "L2.1e": _enc_l21e,
    "L2.2.1": _enc_l221, "L2.2.2": _enc_l222, "L2.2.3": _enc_l223,
    "L2.2.4": _enc_l224, "L2.2.5": _enc_l225, "L2.2.6": _enc_l226,
    "L2.3": _enc_l23, "L2.4": _enc_l24, "L2.5": _enc_l25, "L2.6": _enc_l26,
    "L2.7.1": _enc_l271, "L2.7.2": _enc_l272,
    "L2.8": _enc_l28, "L2.9": _enc_l29, "L2.10": _enc_l210, "L2.11": _enc_l211,
    "L2.12.1": _enc_l2121, "L2.12.2": _enc_l2122, "L2.12.3": _enc_l2123,
    "L2.12.4": _enc_l2124, "L2.12.5": _enc_l2125,
    "L2.13.1": _enc_l2131, "L2.13.2": _enc_l2132,
    "L3.1": _enc_l31, "T3.2": _enc_t32, "T3.3": _enc_t33,
    "L4.1": _enc_l41, "L4.2": _enc_l42, "T4.3": _enc_t43, "T4.4": _enc_t44,
}


def params_for(G: Group, theorem_id: str) -> list[dict]:
    """Parameter sets of a theorem for one group, in deterministic order."""
    order = G.order
    primes = prime_divisors(order)
    if theorem_id in ("L2.2.1", "L2.2.2", "L2.2.3", "L2.2.4", "L2.2.5",
                      "L2.2.6"):
        return [{"formation": F} for F in FORMATIONS]
    if theorem_id in ("L2.6", "L2.8", "L2.9", "T3.3"):
        return [{"formation": F} for F in FORMATIONS_OVER_U]
    if theorem_id in ("L2.7.1", "L2.7.2"):
        return [{"class": "U"}] + \
            [{"class": "p_nilpotent", "p": p} for p in primes]
    if theorem_id in ("L4.1", "L4.2", "T4.3"):
        return [{"p": p, "n": n} for p in primes for n in (1, 2, 3)
                if _gcd_tower(order, p, n)]
    if theorem_id == "T4.4":
        return [{"p": p} for p in primes if math.gcd(order, p - 1) == 1]
    return [{}]


def verify_case(G: Group, theorem_id: str, params: dict) -> CaseResult:
    """Evaluate one theorem encoding for one group and parameter set."""
    direction = "iff" if theorem_id in IFF_IDS else "implication"
    imported = theorem_id in IMPORTED_IDS
    ctx = context_of(G)
    instances, witnesses = _ENCODERS[theorem_id](ctx, params)
    if direction == "iff":
        bad = [(a, b) for a, b in instances if a != b]
        if bad:
            hyp, concl = bad[0]
            verdict = "fail"
        else:
            hyp = any(a for a, _ in instances)
            concl = any(b for _, b in instances)
            verdict = "pass" if instances else "vacuous"
    else:
        hyp = any(h for h, _ in instances)
        concl = all(c for h, c in instances if h)
        if any(h and not c for h, c in instances):
            verdict = "fail"
        elif not hyp:
            verdict = "vacuous"
        else:
            verdict = "pass"
    if any(w["kind"] == "recheck_failed" for w in witnesses):
        verdict = "fail"
    return CaseResult(theorem_id=theorem_id, params=dict(params),
                      direction=direction, imported=imported,
                      hypothesis_value=bool(hyp), conclusion_value=bool(concl),
                      verdict=verdict, witnesses=witnesses)
