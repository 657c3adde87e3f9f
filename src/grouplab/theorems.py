"""Encodings of every verified statement as checkable predicates over one
group.

Each theorem id maps to a parameter enumerator and an encoder, a generator
called as ``encoder(ctx, params, wit)`` that appends its witness dicts to
``wit``; verify_case prints each Group in them as its generators.  An implication encoder yields the conclusion of each instance
whose hypothesis holds, evaluated only there: the case is vacuous when
nothing is yielded and fails when a yielded conclusion is false.  An
equivalence encoder yields ``(lhs, rhs)`` pairs: the case fails when some
pair differs and is never vacuous when pairs exist.  A failed witness
recheck fails the case either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable, Iterator, Optional

from .context import GroupContext, context_of
from .formations import FORMATIONS, member, quotient_in_formation
from .groups import Group, set_product
from .perms import to_cycles
from .primes import is_prime, p_part, prime_divisors
from .quasinormal import f_supplement, fs_quasinormal, s_permutable
from .structure import (
    generalized_fitting,
    generalized_fitting_of,
    holds,
    is_cyclic,
    is_nilpotent,
    is_simple,
    is_soluble,
    layer_of,
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


def _gens_json(ctx: GroupContext, G: Group, H: Group) -> dict:
    """H's order and generators.  These depend only on H and on G, the group
    passed to verify_case, whose context is ctx: G's own generators for
    H = G, otherwise the greedy generators of H's sorted element set."""
    gens = G.generators if H == G else ctx.greedy_generators(H)
    return {"order": H.order,
            "generators": [to_cycles(g) for g in gens] or ["()"]}


def _class_reps(ctx: GroupContext) -> Iterator[Group]:
    """One representative per conjugacy class of subgroups."""
    return (cls[0] for cls in ctx.subgroup_classes())


# embedding predicates pred(ctx, H, params), decided in ctx.group


def _sperm(ctx: GroupContext, H: Group, params=None) -> bool:
    return s_permutable(ctx, H).holds


def _fsq(ctx: GroupContext, H: Group, F: str) -> bool:
    return fs_quasinormal(ctx, H, F, False).holds


def _fsq_of(ctx: GroupContext, H: Group, params: dict) -> bool:
    return _fsq(ctx, H, params["formation"])


def _supplement(ctx: GroupContext, H: Group, params: dict) -> bool:
    return f_supplement(ctx, H, params["class"], params.get("p")).holds


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
        if is_prime(M.order) or not is_simple(M):
            return False
    return _direct_span_equals(tctx, list(mins), T)


def _sylow_maximals(ctx: GroupContext, A: Group,
                    only_noncyclic: bool) -> list[Group]:
    """The maximal subgroups of the Sylow subgroups of A (optionally only of
    the non-cyclic ones)."""
    out = []
    for p in prime_divisors(A.order):
        # one Sylow per prime: the checked predicates are conjugation-invariant
        P = ctx.sylow_of_subgroup(A, p)[0]
        if not (only_noncyclic and is_cyclic(P)):
            out.extend(ctx.maximal_subgroups_of(P))
    return out


def _maximals_condition(ctx: GroupContext, target: Group, only_noncyclic: bool,
                        allow_supplement: bool) -> bool:
    """Every maximal subgroup of every (non-cyclic) Sylow subgroup of
    `target` is U_s-quasinormal in G (or has a supersoluble supplement when
    allowed)."""
    return all((allow_supplement and _supplement(ctx, M, {"class": "U"}))
               or _fsq(ctx, M, "U")
               for M in _sylow_maximals(ctx, target, only_noncyclic))


def _n_maximals_embedded(ctx: GroupContext, P: Group, p: int, n: int) -> bool:
    """Every n-maximal subgroup of P has a p-nilpotent supplement or is
    U_s-quasinormal in G."""
    return all(f_supplement(ctx, M, "p_nilpotent", p).holds
               or _fsq(ctx, M, "U")
               for M in ctx.n_maximal_subgroups_of(P, n))


def _gcd_tower(order: int, p: int, n: int) -> bool:
    prod = 1
    for i in range(1, n + 1):
        prod *= p ** i - 1
    return math.gcd(order, prod) == 1


def _fstar(H: Group) -> Group:
    return generalized_fitting(H) if H.order > 1 else H


def _fstar_images(ctx: GroupContext, N: Group,
                  fs_g: Group) -> tuple[Group, Group]:
    """The image of F*(G) = fs_g in G/N, and F*(G/N)."""
    return (ctx.quotient_image(N, fs_g),
            generalized_fitting_of(ctx.quotient_ctx(N)))


# ---------------------------------------------------------------------------
# witness re-checks (independent second evaluation paths)


def _recheck_fsq(ctx: GroupContext, H: Group, F: str, expected: bool) -> bool:
    return fs_quasinormal(ctx, H, F, True).holds == expected


def _recheck_supplement(ctx: GroupContext, H: Group, T: Group) -> bool:
    return set_product(H, T, ctx.group).size == ctx.group.order


def _recheck_failed(check: str, H: Group) -> dict:
    """Witness of a failed recheck; verify_case turns it into a fail."""
    return {"kind": "recheck_failed", "check": check, "subgroup": H}


# ---------------------------------------------------------------------------
# the two shapes shared by Lemmas 2.1, 2.2 and 2.7


def _hereditary(pred, containers):
    """Heredity: pred(H) in G implies pred(H) in K, for every container K
    and every H <= K."""
    def encode(ctx, params, wit):
        for K in containers(ctx):
            kctx = context_of(K)
            for H in ctx.subgroups_of(K):
                if pred(ctx, H, params):
                    yield pred(kctx, H, params)
    return encode


def _corresponds(pred):
    """Correspondence: pred(K/N) in G/N iff pred(K) in G, for N <= K."""
    def encode(ctx, params, wit):
        for N in ctx.normal_subgroups():
            qctx = ctx.quotient_ctx(N)
            nset = N.element_set()
            for K in ctx.all_subgroups():
                if nset <= K.element_set():
                    yield (pred(qctx, ctx.quotient_image(N, K), params),
                           pred(ctx, K, params))
    return encode


# ---------------------------------------------------------------------------
# encoders


def _enc_l21c(ctx, params, wit):
    for H in ctx.all_subgroups():
        if _sperm(ctx, H):
            yield ctx.is_subnormal(H)[0]


def _enc_l21d(ctx, params, wit):
    for H, F in combinations_with_replacement(_sperm_subgroups(ctx), 2):
        yield _sperm(ctx, ctx.intersection(H, F))


def _enc_l21e(ctx, params, wit):
    sperm = _sperm_subgroups(ctx)
    for M in _class_reps(ctx):
        mctx = context_of(M)
        for H in sperm:
            yield _sperm(mctx, ctx.intersection(H, M))


def _enc_l221(ctx, params, wit):
    F = params["formation"]
    for H in _class_reps(ctx):
        a = fs_quasinormal(ctx, H, F, False).holds
        b = fs_quasinormal(ctx, H, F, True).holds
        if a != b:
            wit.append({"kind": "variant_disagreement", "formation": F,
                        "subgroup": H})
        yield a, b


def _enc_l223(ctx, params, wit):
    F = params["formation"]
    for N in ctx.normal_subgroups():
        qctx = ctx.quotient_ctx(N)
        for E in _class_reps(ctx):
            if math.gcd(N.order, E.order) == 1 and _fsq(ctx, E, F):
                yield _fsq(qctx, ctx.quotient_image(N, E), F)


def _enc_l226(ctx, params, wit):
    F = params["formation"]
    if member(ctx, F):
        for H in _class_reps(ctx):
            yield _fsq(ctx, H, F)


def _enc_l23(ctx, params, wit):
    for p in ctx.primes():
        Op = ctx.O_p(p)
        Oup = ctx.O_upper_p(p)
        for H in _class_reps(ctx):
            if H.order == 1 or prime_divisors(H.order) != (p,) \
                    or not _sperm(ctx, H):
                continue
            hset = H.element_set()
            in_op = hset <= Op.element_set()
            normalized = all(g.inverse() * h * g in hset
                             for g in Oup.generators for h in H.generators)
            yield in_op and normalized


def _enc_l24(ctx, params, wit):
    for A in _class_reps(ctx):
        if A.order > 1 and ctx.is_subnormal(A)[0]:
            pi = prime_divisors(A.order)
            yield A.element_set() <= ctx.O_pi(pi).element_set()


def _enc_l25(ctx, params, wit):
    phi = ctx.frattini()
    mins = list(ctx.minimal_normal_subgroups())
    for N in ctx.normal_subgroups():
        if N.order == 1:
            continue
        nset = N.element_set()
        if is_nilpotent(N) and len(nset & phi.element_set()) == 1:
            inside = [M for M in mins if M.element_set() <= nset]
            yield _direct_span_equals(ctx, inside, N)


def _enc_l26(ctx, params, wit):
    F = params["formation"]
    for E in ctx.normal_subgroups():
        if is_cyclic(E) and quotient_in_formation(ctx, E, F):
            yield member(ctx, F)


def _enc_l271(ctx, params, wit):
    for H in _class_reps(ctx):
        if _supplement(ctx, H, params):
            yield all(_supplement(ctx.quotient_ctx(N),
                                  ctx.quotient_image(N, H), params)
                      for N in ctx.normal_subgroups())


def _enc_l28(ctx, params, wit):
    F = params["formation"]
    yield member(ctx, F), any(
        quotient_in_formation(ctx, E, F)
        and _maximals_condition(ctx, E, only_noncyclic=True,
                                allow_supplement=True)
        for E in ctx.normal_subgroups())


def _enc_l29(ctx, params, wit):
    F = params["formation"]
    yield member(ctx, F), any(
        is_soluble(E) and quotient_in_formation(ctx, E, F)
        and _maximals_condition(ctx, context_of(E).fitting(),
                                only_noncyclic=True, allow_supplement=True)
        for E in ctx.normal_subgroups())


def _enc_l210(ctx, params, wit):
    odd = [p for p in ctx.primes() if p != 2]
    for mask in range(1, 1 << len(odd)):
        pi = tuple(p for i, p in enumerate(odd) if mask >> i & 1)
        member, single = ctx.hall(pi)
        if member is not None:
            yield single


def _enc_l211(ctx, params, wit):
    order = ctx.group.order
    for p in ctx.primes():
        for n in range(1, 5):
            if order % p ** (n + 1) != 0 and _gcd_tower(order, p, n):
                yield holds(ctx, "p_nilpotent", p)


def _enc_l2121(ctx, params, wit):
    fset = generalized_fitting_of(ctx).element_set()
    for N in ctx.normal_subgroups():
        yield _fstar(N).element_set() <= fset


def _enc_l2122(ctx, params, wit):
    fs_g = generalized_fitting_of(ctx)
    for N in ctx.normal_subgroups():
        if N.element_set() <= fs_g.element_set():
            img, fs_q = _fstar_images(ctx, N, fs_g)
            yield img.element_set() <= fs_q.element_set()


def _enc_l2123(ctx, params, wit):
    fs = generalized_fitting_of(ctx)
    fit = ctx.fitting()
    ok = fit.element_set() <= fs.element_set()
    ok = ok and _fstar(fs).key == fs.key
    if is_soluble(fs):
        ok = ok and fs.key == fit.key
    yield ok


def _enc_l2124(ctx, params, wit):
    cent = ctx.chief_centralizer(ctx.trivial_subgroup(),
                                 generalized_fitting_of(ctx))
    yield cent.element_set() <= ctx.fitting().element_set()


def _enc_l2125(ctx, params, wit):
    fs = generalized_fitting_of(ctx)
    fit = ctx.fitting()
    E = layer_of(ctx)
    joined = ctx.generated(tuple(fit.generators) + tuple(E.generators))
    ok = joined.key == fs.key
    ectx = context_of(E)
    ZE = ectx.center()
    ok = ok and (fit.element_set() & E.element_set()) == ZE.element_set()
    yield ok and (E.order == ZE.order
                  or _semisimple_nonabelian(ectx.quotient_ctx(ZE).group))


def _enc_l2131(ctx, params, wit):
    fs_g = generalized_fitting_of(ctx)
    for H in ctx.normal_subgroups():
        if is_soluble(H):
            img, fs_q = _fstar_images(ctx, context_of(H).frattini(), fs_g)
            yield img.key == fs_q.key


def _enc_l2132(ctx, params, wit):
    fs_g = generalized_fitting_of(ctx)
    zset = ctx.center().element_set()
    for K in ctx.normal_subgroups():
        if K.order > 1 and len(prime_divisors(K.order)) == 1 \
                and K.element_set() <= zset:
            img, fs_q = _fstar_images(ctx, K, fs_g)
            yield img.key == fs_q.key


def _enc_l31(ctx, params, wit):
    G = ctx.group
    if G.order == 1:
        yield True, True
        return
    p = min(ctx.primes())
    M = next((M for M in ctx.maximal_subgroups_of(ctx.sylow(p))
              if not _fsq(ctx, M, "S")), None)
    if M is not None:
        if _recheck_fsq(ctx, M, "S", False):
            wit.append({"kind": "fsq_failure", "formation": "S",
                        "subgroup": M, "sylow_prime": p, "rechecked": True})
        else:
            wit.append(_recheck_failed("fsq_failure", M))
    yield M is None, holds(ctx, "soluble")


def _enc_t32(ctx, params, wit):
    G = ctx.group
    triv = ctx.trivial_subgroup()
    pairs = [(G, triv)]
    if G.order <= 120:
        classes = ctx.subgroup_classes()
        a_classes = [c for c in classes if ctx.is_subnormal(c[0])[0]]
        b_classes = []
        for c in classes:
            rep = c[0]
            if math.gcd(rep.order, G.order // rep.order) != 1:
                continue
            rctx = context_of(rep)
            if not holds(rctx, "supersoluble"):
                continue
            if all(is_cyclic(rctx.sylow(q)) for q in prime_divisors(rep.order)):
                b_classes.append(c)
        for ac in a_classes:
            for bc in b_classes:
                if ac[0].order * bc[0].order < G.order:
                    continue
                for A in ac:
                    for B in bc:
                        if ctx.product_size(A, B) == G.order and \
                                (A.key, B.key) != (G.key, triv.key):
                            pairs.append((A, B))
    concl = holds(ctx, "supersoluble")
    for A, B in pairs:
        if _maximals_condition(ctx, A, only_noncyclic=True,
                               allow_supplement=False):
            if B.order == 1:
                wit.append({"kind": "b_trivial_factorization", "a": A,
                            "note": "B = 1 included by policy"})
            yield concl


def _enc_t33(ctx, params, wit):
    F = params["formation"]
    concl = member(ctx, F)
    for H in ctx.normal_subgroups():
        if not quotient_in_formation(ctx, H, F):
            continue
        if _maximals_condition(ctx, _fstar(H), only_noncyclic=True,
                               allow_supplement=True):
            yield concl


def _enc_l41(ctx, params, wit):
    p, n = params["p"], params["n"]
    for M in ctx.n_maximal_subgroups_of(ctx.sylow(p), n):
        v = f_supplement(ctx, M, "p_nilpotent", p)
        if not v.holds:
            return
        if v.witness is not None and not wit:
            if _recheck_supplement(ctx, M, v.witness):
                wit.append({"kind": "supplement", "p": p, "n": n,
                            "subgroup": M, "supplement": v.witness,
                            "rechecked": True})
            else:
                wit.append(_recheck_failed("supplement", M))
    yield holds(ctx, "p_nilpotent", p)


def _enc_l42(ctx, params, wit):
    p, n = params["p"], params["n"]
    if _n_maximals_embedded(ctx, ctx.sylow(p), p, n):
        yield holds(ctx, "p_nilpotent", p)


def _enc_t43(ctx, params, wit):
    p, n = params["p"], params["n"]
    yield holds(ctx, "p_nilpotent", p), any(
        _quotient_p_nilpotent(ctx, E, p)
        and _n_maximals_embedded(ctx, ctx.sylow_of_subgroup(E, p)[0], p, n)
        for E in ctx.normal_subgroups())


def _enc_t44(ctx, params, wit):
    p = params["p"]
    lhs = holds(ctx, "p_nilpotent", p)
    H = next((H for H in ctx.normal_subgroups()
              if is_soluble(H) and _quotient_p_nilpotent(ctx, H, p)
              and _maximals_condition(ctx, context_of(H).fitting(),
                                      only_noncyclic=False,
                                      allow_supplement=False)), None)
    if H is not None:
        wit.append({"kind": "qualifying_normal", "p": p, "subgroup": H})
    yield lhs, H is not None


_ENCODERS: dict[str, Callable] = {
    "L2.1a": _hereditary(_sperm, _class_reps),
    "L2.1b": _corresponds(_sperm),
    "L2.1c": _enc_l21c, "L2.1d": _enc_l21d, "L2.1e": _enc_l21e,
    "L2.2.1": _enc_l221,
    "L2.2.2": _corresponds(_fsq_of),
    "L2.2.3": _enc_l223,
    "L2.2.4": _hereditary(_fsq_of, _class_reps),
    "L2.2.5": _hereditary(_fsq_of, lambda ctx: ctx.normal_subgroups()),
    "L2.2.6": _enc_l226,
    "L2.3": _enc_l23, "L2.4": _enc_l24, "L2.5": _enc_l25, "L2.6": _enc_l26,
    "L2.7.1": _enc_l271,
    "L2.7.2": _hereditary(_supplement, _class_reps),
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
    witnesses: list = []
    ctx = context_of(G)
    yielded = list(_ENCODERS[theorem_id](ctx, params, witnesses))
    if direction == "iff":
        bad = [(a, b) for a, b in yielded if a != b]
        if bad:
            hyp, concl = bad[0]
            verdict = "fail"
        else:
            hyp = any(a for a, _ in yielded)
            concl = any(b for _, b in yielded)
            verdict = "pass" if yielded else "vacuous"
    else:
        hyp, concl = bool(yielded), all(yielded)
        verdict = "fail" if not concl else "pass" if hyp else "vacuous"
    if any(w["kind"] == "recheck_failed" for w in witnesses):
        verdict = "fail"
    witnesses = [{k: _gens_json(ctx, G, v) if isinstance(v, Group) else v
                  for k, v in w.items()} for w in witnesses]
    return CaseResult(theorem_id=theorem_id, params=dict(params),
                      direction=direction, imported=imported,
                      hypothesis_value=bool(hyp), conclusion_value=bool(concl),
                      verdict=verdict, witnesses=witnesses)
