"""Builtin group constructors, the group-spec file format, and the shipped
core catalog.

Builtin names form a tiny expression grammar: ``cyclic(6)``, ``dihedral(4)``,
``direct(cyclic(3), symmetric(3))``, ``SL(2,5)``, plus a handful of fixed
constructions (``pauli16``, ``heisenberg(3)``, ...) covering every group of
order <= 24.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional, Sequence

from .errors import BoundExceededError, CatalogError
from .groups import Group, MAX_DEGREE, direct_product, from_elements
from .perms import Permutation, from_cycles, to_cycles
from .primes import p_part, prime_divisors

__all__ = [
    "GroupSpec",
    "CatalogEntry",
    "Catalog",
    "builtin_group",
    "from_multiplication",
    "load_catalog",
    "format_catalog",
    "core_catalog_path",
    "CORE_GROUP_NAMES",
]


def from_multiplication(elements: Sequence, mult: Callable) -> Group:
    """The right-regular permutation representation of a finite group given
    by an element list and a multiplication function."""
    elems = list(elements)
    if len(elems) > MAX_DEGREE:
        raise BoundExceededError(
            f"regular representation on {len(elems)} > {MAX_DEGREE} points")
    index = {e: i for i, e in enumerate(elems)}
    perms = []
    for g in elems:
        images = tuple(index[mult(e, g)] for e in elems)
        perms.append(Permutation(images))
    group = from_elements(len(elems), perms)
    if group.order != len(elems):
        raise CatalogError("multiplication table does not define a group")
    return group


# ---------------------------------------------------------------------------
# builtin constructors


def cyclic(n: int) -> Group:
    if n < 1:
        raise CatalogError("cyclic(n) requires n >= 1")
    if n == 1:
        return Group(1, [])
    if n <= MAX_DEGREE:
        return Group(n, [Permutation(tuple(range(1, n)) + (0,))],
                     _max_order=max(1000, n))
    # coprime prime-power decomposition acts on fewer points
    parts = [p_part(n, p) for p in prime_divisors(n)]
    if sum(parts) > MAX_DEGREE:
        raise BoundExceededError(f"cyclic({n}) does not fit on {MAX_DEGREE} points")
    G = cyclic(parts[0])
    for q in parts[1:]:
        G = direct_product(G, cyclic(q))
    # single generator of full order
    g = G.generators[0]
    for h in G.generators[1:]:
        g = g * h
    return Group(G.degree, [g], _max_order=max(1000, n))


def dihedral(n: int) -> Group:
    """Dihedral group of order 2n on n points (n >= 3)."""
    if n < 3:
        raise CatalogError("dihedral(n) requires n >= 3")
    rot = Permutation(tuple((i + 1) % n for i in range(n)))
    ref = Permutation(tuple((n - i) % n for i in range(n)))
    return Group(n, [rot, ref])


def dicyclic(n: int) -> Group:
    """Dicyclic group of order 4n (n >= 2); dicyclic(2) is the quaternion Q8."""
    if n < 2:
        raise CatalogError("dicyclic(n) requires n >= 2")
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
    if n < 1:
        raise CatalogError("symmetric(n) requires n >= 1")
    if n == 1:
        return Group(1, [])
    gens = [Permutation((1, 0) + tuple(range(2, n)))]
    if n > 2:
        gens.append(Permutation(tuple(range(1, n)) + (0,)))
    return Group(n, gens)


def alternating(n: int) -> Group:
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
    if k < 1 or p < 2:
        raise CatalogError("elementary_abelian(p, k) requires p >= 2, k >= 1")
    G = cyclic(p)
    for _ in range(k - 1):
        G = direct_product(G, cyclic(p))
    return G


def metacyclic(n: int, m: int, k: int) -> Group:
    """Split extension of cyclic(n) by cyclic(m), the generator of cyclic(m)
    acting as x -> x^k; regular representation on n*m points."""
    if pow(k, m, n) != 1 or math.gcd(k, n) != 1:
        raise CatalogError(
            f"metacyclic({n},{m},{k}): k^m must be 1 mod n with gcd(k,n)=1")
    elems = [(i, j) for j in range(m) for i in range(n)]

    def mult(x, y):
        i, j = x
        i2, j2 = y
        return ((i2 + i * pow(k, j2, n)) % n, (j + j2) % m)

    return from_multiplication(elems, mult)


def gendihedral(*ns: int) -> Group:
    """Generalized dihedral group: (C_n1 x ... x C_nk) extended by the
    inverting involution."""
    elems = [tuple(v) + (e,) for e in range(2)
             for v in _tuples([range(n) for n in ns])]

    def mult(x, y):
        v, e = x[:-1], x[-1]
        w, f = y[:-1], y[-1]
        if e == 0:
            return tuple((a + b) % n for a, b, n in zip(v, w, ns)) + (f,)
        return tuple((a - b) % n for a, b, n in zip(v, w, ns)) + ((e + f) % 2,)

    return from_multiplication(elems, mult)


def _tuples(ranges):
    if not ranges:
        yield ()
        return
    for head in ranges[0]:
        for rest in _tuples(ranges[1:]):
            yield (head,) + rest


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
    G = groups[0]
    for H in groups[1:]:
        G = direct_product(G, H)
    return G


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

_NAME_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*")


def builtin_group(name: str) -> Group:
    """Construct a builtin group from its name expression."""
    expr, pos = _parse_expr(name, 0)
    if name[pos:].strip():
        raise CatalogError(f"trailing input in builtin name: {name!r}")
    return _eval_expr(expr)


def _parse_expr(text: str, pos: int):
    m = _NAME_RE.match(text, pos)
    if not m:
        raise CatalogError(f"bad builtin name at position {pos}: {text!r}")
    head = m.group(1)
    pos = m.end()
    args = []
    if pos < len(text) and text[pos] == "(":
        pos += 1
        while True:
            stripped = text[pos:].lstrip()
            pos = len(text) - len(stripped)
            if pos < len(text) and text[pos] == ")":
                pos += 1
                break
            num = re.match(r"\s*(-?\d+)\s*", text[pos:])
            if num:
                args.append(int(num.group(1)))
                pos += num.end()
            else:
                sub, pos = _parse_expr(text, pos)
                args.append(sub)
            if pos < len(text) and text[pos] == ",":
                pos += 1
            elif pos < len(text) and text[pos] == ")":
                pos += 1
                break
            else:
                raise CatalogError(f"expected ',' or ')' in builtin name: {text!r}")
    return (head, args), pos


def _eval_expr(expr) -> Group:
    head, args = expr
    fn = _BUILTINS.get(head)
    if fn is None:
        raise CatalogError(f"unknown builtin group: {head!r}")
    vals = [a if isinstance(a, int) else _eval_expr(a) for a in args]
    try:
        return fn(*vals)
    except (TypeError,) as exc:
        raise CatalogError(f"bad arguments for {head}: {exc}") from exc


# ---------------------------------------------------------------------------
# group-spec file format


@dataclass(frozen=True)
class GroupSpec:
    name: str
    degree: int
    generators: tuple[str, ...]
    expected_order: Optional[int] = None


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    group: Group
    spec: GroupSpec


@dataclass(frozen=True)
class Catalog:
    entries: tuple[CatalogEntry, ...]
    warnings: tuple[str, ...] = ()

    def __len__(self):
        return len(self.entries)

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def get(self, name: str) -> Group:
        for e in self.entries:
            if e.name == name:
                return e.group
        raise CatalogError(f"no such group in catalog: {name!r}")


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
            cur = {"name": rest, "degree": None, "gens": [],
                   "order": None, "line": lineno}
        elif cur is None:
            err(lineno, f"{kw!r} outside a group block")
        elif kw == "degree":
            try:
                cur["degree"] = int(rest)
            except ValueError:
                err(lineno, f"bad degree: {rest!r}")
        elif kw == "gen":
            cur["gens"].append((lineno, rest))
        elif kw == "order":
            try:
                cur["order"] = int(rest)
            except ValueError:
                err(lineno, f"bad order: {rest!r}")
        elif kw == "end":
            entries.append(_finish_block(path, cur, warnings))
            cur = None
        else:
            err(lineno, f"unknown keyword {kw!r}")
    if cur is not None:
        err(len(lines) + 1, f"unterminated group block {cur['name']!r}")
    if not entries:
        warnings.append(f"{path}: empty catalog")
    seen: dict[tuple, str] = {}
    for e in entries:
        ck = (e.group.degree, e.group.key)
        if ck in seen:
            warnings.append(
                f"duplicate group: {e.name!r} has the same elements as {seen[ck]!r}")
        else:
            seen[ck] = e.name
    return Catalog(tuple(entries), tuple(warnings))


def _finish_block(path, cur, warnings) -> CatalogEntry:
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
    spec = GroupSpec(cur["name"], cur["degree"],
                     tuple(t for _, t in cur["gens"]), cur["order"])
    return CatalogEntry(cur["name"], group, spec)


def format_catalog(named_groups: Sequence[tuple[str, Group]]) -> str:
    out = ["# grouplab core catalog (generated from builtin constructors)", ""]
    for name, G in named_groups:
        out.append(f"group {name}")
        out.append(f"degree {G.degree}")
        for g in G.generators:
            out.append(f"gen {to_cycles(g)}")
        out.append(f"order {G.order}")
        out.append("end")
        out.append("")
    return "\n".join(out)


def core_catalog_path() -> str:
    return str(resources.files("grouplab").joinpath("data/core.catalog"))


# every group of order <= 24 appears, plus the larger exercise set
CORE_GROUP_NAMES: tuple[str, ...] = (
    # orders 1..15
    "trivial",
    "cyclic(2)", "cyclic(3)",
    "cyclic(4)", "elementary_abelian(2,2)",
    "cyclic(5)",
    "cyclic(6)", "symmetric(3)",
    "cyclic(7)",
    "cyclic(8)", "direct(cyclic(4),cyclic(2))", "elementary_abelian(2,3)",
    "dihedral(4)", "dicyclic(2)",
    "cyclic(9)", "elementary_abelian(3,2)",
    "cyclic(10)", "dihedral(5)",
    "cyclic(11)",
    "cyclic(12)", "direct(cyclic(6),cyclic(2))", "dihedral(6)",
    "alternating(4)", "dicyclic(3)",
    "cyclic(13)",
    "cyclic(14)", "dihedral(7)",
    "cyclic(15)",
    # order 16 (all 14)
    "cyclic(16)", "direct(cyclic(4),cyclic(4))", "v4_rtimes_c4",
    "metacyclic(4,4,3)", "direct(cyclic(8),cyclic(2))", "metacyclic(8,2,5)",
    "dihedral(8)", "metacyclic(8,2,3)", "dicyclic(4)",
    "direct(cyclic(4),elementary_abelian(2,2))",
    "direct(dihedral(4),cyclic(2))", "direct(dicyclic(2),cyclic(2))",
    "pauli16", "elementary_abelian(2,4)",
    # orders 17..23
    "cyclic(17)",
    "cyclic(18)", "direct(cyclic(3),cyclic(6))", "dihedral(9)",
    "direct(symmetric(3),cyclic(3))", "gendihedral(3,3)",
    "cyclic(19)",
    "cyclic(20)", "direct(cyclic(10),cyclic(2))", "dihedral(10)",
    "dicyclic(5)", "metacyclic(5,4,2)",
    "cyclic(21)", "metacyclic(7,3,2)",
    "cyclic(22)", "dihedral(11)",
    "cyclic(23)",
    # order 24 (all 15)
    "metacyclic(3,8,2)", "cyclic(24)", "SL(2,3)", "dicyclic(6)",
    "direct(cyclic(4),symmetric(3))", "dihedral(12)",
    "direct(cyclic(2),dicyclic(3))", "c3xv4_rtimes_c2",
    "direct(cyclic(12),cyclic(2))", "direct(cyclic(3),dihedral(4))",
    "direct(cyclic(3),dicyclic(2))", "symmetric(4)",
    "direct(cyclic(2),alternating(4))",
    "direct(elementary_abelian(2,2),symmetric(3))",
    "direct(cyclic(6),elementary_abelian(2,2))",
    # larger soluble groups
    "cyclic(25)", "elementary_abelian(5,2)",
    "cyclic(27)", "elementary_abelian(3,3)", "heisenberg(3)",
    "metacyclic(9,3,4)",
    "dihedral(15)",
    "dihedral(16)", "dicyclic(8)",
    "direct(alternating(4),cyclic(3))",
    "metacyclic(5,8,2)",
    "metacyclic(7,6,3)",
    "direct(symmetric(4),cyclic(2))",
    "dihedral(25)",
    "metacyclic(13,4,5)",
    "metacyclic(11,5,3)",
    "dihedral(32)",
    "cyclic(100)",
    "cyclic(210)",
    "cyclic(360)",
    # nonsoluble groups
    "alternating(5)",
    "symmetric(5)",
    "SL(2,5)",
    "direct(alternating(5),cyclic(2))",
    "direct(cyclic(3),alternating(5))",
)


def build_core_entries() -> tuple[tuple[str, Group], ...]:
    return tuple((name, builtin_group(name)) for name in CORE_GROUP_NAMES)
