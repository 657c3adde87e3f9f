"""Builtin group constructors, the group-spec file format, and the shipped
core catalog.

Builtin names form a tiny expression grammar: ``cyclic(6)``, ``dihedral(4)``,
``direct(cyclic(3), symmetric(3))``, ``SL(2,5)``, plus a handful of fixed
constructions (``pauli16``, ``heisenberg(3)``, ...) covering every group of
order <= 24.
"""

from __future__ import annotations

import ast
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional, Sequence

from .errors import BoundExceededError, CatalogError
from .groups import Group, MAX_DEGREE, MAX_ORDER, direct_product, from_elements
from .perms import Permutation, from_cycles
from .primes import is_prime, p_part, prime_divisors

__all__ = [
    "CatalogEntry",
    "Catalog",
    "builtin_group",
    "from_multiplication",
    "load_catalog",
    "core_catalog_path",
]


def from_multiplication(elements: Sequence, mult: Callable) -> Group:
    """The right-regular permutation representation of a finite group given
    by an element list and a multiplication function."""
    elems = list(elements)
    _check_degree(len(elems))
    index = {e: i for i, e in enumerate(elems)}
    perms = []
    for g in elems:
        images = tuple(index[mult(e, g)] for e in elems)
        perms.append(Permutation(images))
    group = from_elements(len(elems), perms)
    if group.order != len(elems):
        raise CatalogError("multiplication table does not define a group")
    return group


def _check_degree(n: int) -> None:
    if n > MAX_DEGREE:
        raise BoundExceededError(f"degree {n} exceeds desk bound {MAX_DEGREE}")


# ---------------------------------------------------------------------------
# builtin constructors


def cyclic(n: int) -> Group:
    if n < 1:
        raise CatalogError("cyclic(n) requires n >= 1")
    if n > MAX_ORDER:
        raise BoundExceededError(f"cyclic({n}) exceeds desk bound {MAX_ORDER}")
    if n <= MAX_DEGREE:
        return Group(n, [Permutation(tuple(range(1, n)) + (0,))])
    # coprime prime-power decomposition acts on fewer points
    parts = [p_part(n, p) for p in prime_divisors(n)]
    if sum(parts) > MAX_DEGREE:
        raise BoundExceededError(f"cyclic({n}) does not fit on {MAX_DEGREE} points")
    G = functools.reduce(direct_product, map(cyclic, parts))
    # single generator of full order
    return Group(G.degree, [functools.reduce(operator.mul, G.generators)])


def dihedral(n: int) -> Group:
    """Dihedral group of order 2n on n points (n >= 3)."""
    _check_degree(n)
    if n < 3:
        raise CatalogError("dihedral(n) requires n >= 3")
    rot = Permutation(tuple((i + 1) % n for i in range(n)))
    ref = Permutation(tuple((n - i) % n for i in range(n)))
    return Group(n, [rot, ref])


def dicyclic(n: int) -> Group:
    """Dicyclic group of order 4n (n >= 2); dicyclic(2) is the quaternion Q8."""
    if n < 2:
        raise CatalogError("dicyclic(n) requires n >= 2")
    _check_degree(4 * n)
    m = 2 * n
    elems = [(i, e) for e in range(2) for i in range(m)]

    def mult(x, y):
        i, e = x
        j, f = y
        if e == 0:
            return ((i + j) % m, f)
        if f == 0:
            return ((i - j) % m, 1)
        return ((i - j + n) % m, 0)

    return from_multiplication(elems, mult)


def symmetric(n: int) -> Group:
    _check_degree(n)
    if n < 1:
        raise CatalogError("symmetric(n) requires n >= 1")
    if n == 1:
        return Group(1, [])
    gens = [Permutation((1, 0) + tuple(range(2, n)))]
    if n > 2:
        gens.append(Permutation(tuple(range(1, n)) + (0,)))
    return Group(n, gens)


def alternating(n: int) -> Group:
    _check_degree(n)
    if n < 3:
        return Group(max(n, 1), [])
    gens = [Permutation((1, 2, 0) + tuple(range(3, n)))]
    if n > 3:
        if n % 2:
            gens.append(Permutation(tuple(range(1, n)) + (0,)))
        else:
            gens.append(Permutation((0,) + tuple(range(2, n)) + (1,)))
    return Group(n, gens)


def elementary_abelian(p: int, k: int) -> Group:
    if k < 1 or not is_prime(p):
        raise CatalogError("elementary_abelian(p, k) requires a prime p, k >= 1")
    return functools.reduce(direct_product, [cyclic(p)] * k)


def metacyclic(n: int, m: int, k: int) -> Group:
    """Split extension of cyclic(n) by cyclic(m), the generator of cyclic(m)
    acting as x -> x^k; regular representation on n*m points."""
    if pow(k, m, n) != 1 or math.gcd(k, n) != 1:
        raise CatalogError(
            f"metacyclic({n},{m},{k}): k^m must be 1 mod n with gcd(k,n)=1")
    _check_degree(n * m)
    elems = [(i, j) for j in range(m) for i in range(n)]

    def mult(x, y):
        i, j = x
        i2, j2 = y
        return ((i2 + i * pow(k, j2, n)) % n, (j + j2) % m)

    return from_multiplication(elems, mult)


def gendihedral(*ns: int) -> Group:
    """Generalized dihedral group: (C_n1 x ... x C_nk) extended by the
    inverting involution."""
    _check_degree(2 * math.prod(max(n, 0) for n in ns))
    elems = [tuple(v) + (e,) for e in range(2)
             for v in itertools.product(*(range(n) for n in ns))]

    def mult(x, y):
        v, e = x[:-1], x[-1]
        w, f = y[:-1], y[-1]
        if e == 0:
            return tuple((a + b) % n for a, b, n in zip(v, w, ns)) + (f,)
        return tuple((a - b) % n for a, b, n in zip(v, w, ns)) + ((e + f) % 2,)

    return from_multiplication(elems, mult)


def v4_rtimes_c4() -> Group:
    """(C2 x C2) : C4, the generator of C4 swapping the two coordinates."""
    elems = [(a, b, j) for j in range(4) for b in range(2) for a in range(2)]

    def mult(x, y):
        a, b, j = x
        a2, b2, j2 = y
        if j % 2:  # conjugation-by-x twist of y's normal part
            a2, b2 = b2, a2
        return ((a + a2) % 2, (b + b2) % 2, (j + j2) % 4)

    return from_multiplication(elems, mult)


def pauli16() -> Group:
    """Central product of D8 and C4 (the order-16 Pauli group): elements
    i^eps X^b Z^c with ZX = -XZ."""
    elems = [(e, b, c) for e in range(4) for b in range(2) for c in range(2)]

    def mult(x, y):
        e, b, c = x
        e2, b2, c2 = y
        return ((e + e2 + 2 * (c * b2)) % 4, (b + b2) % 2, (c + c2) % 2)

    return from_multiplication(elems, mult)


def c3xv4_rtimes_c2() -> Group:
    """(C6 x C2) : C2: the involution inverts the C3 part and swaps the two
    C2 coordinates (the remaining nonabelian group of order 24)."""
    elems = [(x, a, b, s) for s in range(2) for b in range(2)
             for a in range(2) for x in range(3)]

    def mult(u, v):
        x, a, b, s = u
        x2, a2, b2, s2 = v
        if s:
            x2 = -x2
            a2, b2 = b2, a2
        return ((x + x2) % 3, (a + a2) % 2, (b + b2) % 2, (s + s2) % 2)

    return from_multiplication(elems, mult)


def heisenberg(p: int) -> Group:
    """Upper unitriangular 3x3 matrices over F_p (extraspecial of order p^3,
    exponent p for odd p)."""
    _check_degree(p ** 3)
    elems = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]

    def mult(x, y):
        a, b, c = x
        a2, b2, c2 = y
        return ((a + a2) % p, (b + b2) % p, (c + c2 + a * b2) % p)

    return from_multiplication(elems, mult)


def special_linear(n: int, q: int) -> Group:
    """SL(n, q) for n = 2 acting on the nonzero vectors of F_q^2."""
    if n != 2 or q not in (3, 5):
        raise CatalogError("only SL(2,3) and SL(2,5) are provided")
    vecs = [(x, y) for x in range(q) for y in range(q) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(vecs)}

    def perm_of(m):
        (a, b), (c, d) = m
        return Permutation(tuple(
            index[((a * x + c * y) % q, (b * x + d * y) % q)] for x, y in vecs))

    gens = [perm_of(((1, 1), (0, 1))), perm_of(((0, q - 1), (1, 0)))]
    return Group(len(vecs), gens)


def _direct(*groups: Group) -> Group:
    if len(groups) < 2:
        raise CatalogError("direct(...) requires at least two factors")
    return functools.reduce(direct_product, groups)


_BUILTINS: dict[str, Callable] = {
    "cyclic": cyclic,
    "dihedral": dihedral,
    "dicyclic": dicyclic,
    "symmetric": symmetric,
    "alternating": alternating,
    "elementary_abelian": elementary_abelian,
    "metacyclic": metacyclic,
    "gendihedral": gendihedral,
    "direct": _direct,
    "SL": special_linear,
    "v4_rtimes_c4": v4_rtimes_c4,
    "pauli16": pauli16,
    "c3xv4_rtimes_c2": c3xv4_rtimes_c2,
    "heisenberg": heisenberg,
    "trivial": lambda: Group(1, []),
}


def builtin_group(name: str) -> Group:
    """Construct a builtin group from its name expression, read by ``ast``
    and never evaluated: a builtin name, or a call of one whose positional
    arguments are int literals (optionally negated) or name expressions."""
    try:
        if name.isascii():  # ast NFKC-folds identifiers
            return _build(ast.parse(name.strip(), mode="eval").body, name)
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise CatalogError(f"bad builtin name {name!r}: {exc}") from exc
    raise CatalogError(f"bad builtin name: {name!r}")


def _int(node) -> Optional[int]:
    sign = 1
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node, sign = node.operand, -sign
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return sign * node.value
    return None


def _build(node, name: str) -> Group:
    call = node if isinstance(node, ast.Call) else ast.Call(node, [], [])
    if not isinstance(call.func, ast.Name) or call.keywords:
        raise CatalogError(f"bad builtin name: {name!r}")
    head = call.func.id
    if head not in _BUILTINS:
        raise CatalogError(f"unknown builtin group: {head!r}")
    args = [_build(a, name) if (n := _int(a)) is None else n for a in call.args]
    try:
        return _BUILTINS[head](*args)
    except TypeError as exc:
        raise CatalogError(f"bad arguments for {head}: {exc}") from exc


# ---------------------------------------------------------------------------
# group-spec file format


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    group: Group


@dataclass(frozen=True)
class Catalog:
    entries: tuple[CatalogEntry, ...]
    warnings: tuple[str, ...] = ()

    def __len__(self):
        return len(self.entries)

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)


def load_catalog(path) -> Catalog:
    """Parse a group-spec file: blocks of ``group <name>`` / ``degree <n>`` /
    ``gen <cycles>``... / optional ``order <k>`` / ``end``; ``#`` comments."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    entries: list[CatalogEntry] = []
    warnings: list[str] = []
    cur: Optional[dict] = None

    def err(lineno, msg):
        raise CatalogError(f"{path}:{lineno}: {msg}")

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        kw, rest = parts[0], (parts[1].strip() if len(parts) > 1 else "")
        if kw == "group":
            if cur is not None:
                err(lineno, f"missing 'end' before new group {rest!r}")
            if not rest:
                err(lineno, "group requires a name")
            if any(e.name == rest for e in entries):
                err(lineno, f"repeated group name {rest!r}")
            cur = {"name": rest, "degree": None, "gens": [],
                   "order": None, "line": lineno}
        elif cur is None:
            err(lineno, f"{kw!r} outside a group block")
        elif kw in ("degree", "order"):
            try:
                cur[kw] = int(rest)
            except ValueError:
                err(lineno, f"bad {kw}: {rest!r}")
        elif kw == "gen":
            cur["gens"].append((lineno, rest))
        elif kw == "end":
            entries.append(_finish_block(path, cur))
            cur = None
        else:
            err(lineno, f"unknown keyword {kw!r}")
    if cur is not None:
        err(len(lines) + 1, f"unterminated group block {cur['name']!r}")
    if not entries:
        warnings.append(f"{path}: empty catalog")
    seen: dict[Group, str] = {}
    for e in entries:
        # group names are unique, so another name is an earlier entry
        if seen.setdefault(e.group, e.name) != e.name:
            warnings.append(f"duplicate group: {e.name!r} has the same "
                            f"elements as {seen[e.group]!r}")
    return Catalog(tuple(entries), tuple(warnings))


def _finish_block(path, cur) -> CatalogEntry:
    lineno = cur["line"]
    if cur["degree"] is None:
        raise CatalogError(f"{path}:{lineno}: group {cur['name']!r} has no degree")
    gens = []
    for gl, text in cur["gens"]:
        try:
            gens.append(from_cycles(text, cur["degree"]))
        except Exception as exc:
            raise CatalogError(f"{path}:{gl}: bad generator: {exc}") from exc
    group = Group(cur["degree"], gens)
    if cur["order"] is not None and group.order != cur["order"]:
        raise CatalogError(
            f"{path}:{lineno}: group {cur['name']!r} has order {group.order}, "
            f"expected {cur['order']}")
    return CatalogEntry(cur["name"], group)


def core_catalog_path() -> str:
    return str(resources.files("grouplab").joinpath("data/core.catalog"))
