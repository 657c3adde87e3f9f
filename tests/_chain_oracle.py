"""Schreier–Sims order and membership: an oracle independent of the kernel.

grouplab's :class:`~grouplab.groups.Group` enumerates its elements by a BFS
over generator products.  The tests compare that enumeration with the order
and the membership test of a deterministic stabilizer chain (base points
tried in the fixed order 0, 1, 2, ...), which never lists the group.
"""

from __future__ import annotations

from typing import Sequence

from grouplab.groups import Group
from grouplab.perms import Permutation, identity


class _Level:
    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {point: identity(degree)}


def _build_chain(degree: int, gens: Sequence[Permutation]) -> list[_Level]:
    """Deterministic Schreier-Sims: base points in increasing point order."""
    levels: list[_Level] = []

    def update_orbit(i: int) -> None:
        lvl = levels[i]
        queue = sorted(lvl.transversal)
        qi = 0
        while qi < len(queue):
            pt = queue[qi]
            qi += 1
            rep = lvl.transversal[pt]
            for g in lvl.gens:
                img = g.images[pt]
                if img not in lvl.transversal:
                    lvl.transversal[img] = rep * g
                    queue.append(img)

    def sift(g: Permutation, start: int = 0) -> tuple[Permutation, int]:
        i = start
        while i < len(levels):
            img = g.images[levels[i].point]
            rep = levels[i].transversal.get(img)
            if rep is None:
                return g, i
            g = g * rep.inverse()
            i += 1
        return g, i

    def add_strong_generator(g: Permutation) -> None:
        # deepest prefix of the base fixed by g
        depth = 0
        while depth < len(levels) and g.images[levels[depth].point] == levels[depth].point:
            depth += 1
        if depth == len(levels):
            new_point = min(p for p in range(degree) if g.images[p] != p)
            levels.append(_Level(new_point, degree))
        for i in range(depth + 1):
            levels[i].gens.append(g)
            update_orbit(i)

    pending = [g for g in gens if not g.is_identity()]
    for g in pending:
        residue, _ = sift(g)
        if not residue.is_identity():
            add_strong_generator(residue)

    # verify Schreier generators until every level is clean
    dirty = True
    while dirty:
        dirty = False
        for i in reversed(range(len(levels))):
            lvl = levels[i]
            for pt in sorted(lvl.transversal):
                rep = lvl.transversal[pt]
                for h in lvl.gens:
                    back = lvl.transversal[h.images[pt]]
                    schreier = rep * h * back.inverse()
                    residue, _ = sift(schreier, i + 1)
                    if not residue.is_identity():
                        add_strong_generator(residue)
                        dirty = True
            if dirty:
                break
    return levels


class ChainOracle:
    """The stabilizer chain of a group's generators."""

    def __init__(self, G: Group):
        self.degree = G.degree
        self.levels = _build_chain(G.degree, G.generators)

    @property
    def order(self) -> int:
        order = 1
        for lvl in self.levels:
            order *= len(lvl.transversal)
        return order

    def __contains__(self, perm: Permutation) -> bool:
        if not isinstance(perm, Permutation) or perm.degree != self.degree:
            return False
        g = perm
        for lvl in self.levels:
            img = g.images[lvl.point]
            rep = lvl.transversal.get(img)
            if rep is None:
                return False
            g = g * rep.inverse()
        return g.is_identity()


def membership_probes(G: Group) -> list[Permutation]:
    """Permutations to test membership on: every element of G, and each
    element times a fixed transposition and times a fixed n-cycle."""
    n = G.degree
    if n < 2:
        return list(G.elements())
    swap = Permutation((1, 0) + tuple(range(2, n)))
    shift = Permutation(tuple(range(1, n)) + (0,))
    return [e * t for e in G.elements() for t in (identity(n), swap, shift)]
