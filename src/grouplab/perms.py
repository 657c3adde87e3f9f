"""Permutations on the points 0..n-1.

The composition convention is fixed once and for all: ``(p * q)`` means
"apply p first, then q", i.e. ``(p * q)[i] == q[p[i]]``.  Cycle notation is
1-based in all textual input and output, 0-based internally.
"""

from __future__ import annotations

import math
import re
from typing import Iterable

from .errors import CycleParseError, DegreeMismatchError

__all__ = ["Permutation", "identity", "from_cycles", "to_cycles"]


class Permutation:
    """An immutable bijection on {0, .., degree-1}."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a bijection on 0..{len(imgs) - 1}: {imgs}")
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise DegreeMismatchError(
                f"degree {len(self.images)} vs {len(other.images)}"
            )
        p = Permutation.__new__(Permutation)
        object.__setattr__(p, "images",
                           tuple(map(other.images.__getitem__, self.images)))
        return p

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        p = Permutation.__new__(Permutation)
        object.__setattr__(p, "images", tuple(inv))
        return p

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, point: int) -> int:
        return self.images[point]

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def order(self) -> int:
        cycles = self.cycles()
        return math.lcm(*(len(c) for c in cycles)) if cycles else 1

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def conjugate(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g."""
        return g.inverse() * self * g

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({to_cycles(self)!r}, degree={self.degree})"

    def __str__(self) -> str:
        return to_cycles(self)


def identity(degree: int) -> Permutation:
    return Permutation(range(degree))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def from_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation, e.g. "(1 2 3)(4 5)"; "()" is the identity."""
    stripped = text.strip()
    if not stripped:
        raise CycleParseError("empty cycle string")
    consumed = _CYCLE_RE.sub("", stripped)
    if consumed.strip():
        raise CycleParseError(f"unparseable cycle notation: {text!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(stripped):
        pts = body.replace(",", " ").split()
        if not pts:
            continue
        try:
            cycle = [int(p) - 1 for p in pts]
        except ValueError as exc:
            raise CycleParseError(f"non-integer point in {text!r}") from exc
        for p in cycle:
            if not 0 <= p < degree:
                raise CycleParseError(
                    f"point {p + 1} out of range 1..{degree} in {text!r}"
                )
            if p in seen:
                raise CycleParseError(f"point {p + 1} repeated in {text!r}")
            seen.add(p)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return Permutation(images)


def to_cycles(perm: Permutation) -> str:
    """Print 1-based cycle notation; the identity prints as "()"."""
    cycles = perm.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycles)
