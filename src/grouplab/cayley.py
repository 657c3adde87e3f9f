"""The element index of a group: its elements numbered 0..n-1 in image-tuple
order, so the identity is 0, and a subgroup held as an int mask over them.

Right multiplication by element j is column j of the Cayley table and left
multiplication by it is row j, each filled on first use, so an index holds
at most 2 n^2 <= 2 * 10^6 ints.  Conjugation by element j is read off one
row and one column.  Closure is
Dimino's coset method: a subgroup grows by whole right cosets of a known
subgroup, each the image of a listed coset under one generator column
(Holt, Eick & O'Brien, *Handbook of Computational Group Theory*, 2005,
ch. 3-4).

The subgroup lattice is the closure of the cyclic subgroups under joins
<H, C> with a cyclic C, reduced by conjugacy classes (Neubüser, *Numer.
Math.* 2, 1960): only the first-found member H0 of each class of subgroups
is extended, and the rest of its class, the orbit of its elements under the
generators' conjugation maps, is added when H0 is found.  This loses no
subgroup: if H = H0^g, then <H, C> = <H0, C^(g^-1)>^g, and C^(g^-1) is
cyclic too.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .perms import Permutation


class ElementIndex:
    """A group's elements by position, and its Cayley table by columns and
    rows."""

    __slots__ = ("elements", "_position", "_columns", "_rows", "_inverses",
                 "_conjugations")

    def __init__(self, elements: Sequence[Permutation]):
        self.elements = tuple(elements)
        self._position = {e.images: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        self._columns: list = [None] * n
        self._rows: list = [None] * n
        self._inverses: list = [None] * n
        self._conjugations: dict[int, list[int]] = {}

    def position(self, perm: Permutation) -> int:
        """The position of perm; KeyError when it is not an element."""
        return self._position[perm.images]

    def column(self, j: int) -> list[int]:
        """col[i] is the position of elements[i] * elements[j]."""
        col = self._columns[j]
        if col is None:
            g = self.elements[j].images.__getitem__
            position = self._position
            col = self._columns[j] = [position[tuple(map(g, e.images))]
                                      for e in self.elements]
        return col

    def row(self, j: int) -> list[int]:
        """row[i] is the position of elements[j] * elements[i]."""
        row = self._rows[j]
        if row is None:
            images = self.elements[j].images
            position = self._position
            row = self._rows[j] = [position[tuple(map(e.images.__getitem__,
                                                      images))]
                                   for e in self.elements]
        return row

    def inverse(self, j: int) -> int:
        """The position of elements[j]^-1."""
        inv = self._inverses[j]
        if inv is None:
            inv = self._inverses[j] = self.position(self.elements[j].inverse())
        return inv

    def conjugation(self, j: int) -> list[int]:
        """c[i] is the position of g^-1 * elements[i] * g, g = elements[j]:
        the column of g followed by the row of g^-1."""
        conj = self._conjugations.get(j)
        if conj is None:
            left = self.row(self.inverse(j))
            conj = self._conjugations[j] = [left[x] for x in self.column(j)]
        return conj

    def mask(self, positions: Iterable[int]) -> int:
        """The int mask with exactly these bits set."""
        bits = bytearray((len(self.elements) + 8) // 8)
        for i in positions:
            bits[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(bits, "little")

    def extend(self, elems: list[int], mask: int,
               gens: Sequence[int]) -> tuple[list[int], int]:
        """Elements and mask of <gens> from those of a subgroup H of it, with
        H's identity first.  Each new right coset of H is the image of a
        listed one under a generator column."""
        cols = [self.column(g) for g in gens]
        size = len(elems)
        elems = list(elems)
        start = 0
        while start < len(elems):
            coset = elems[start:start + size]
            for col in cols:
                if not mask >> col[coset[0]] & 1:
                    image = [col[x] for x in coset]
                    elems += image
                    for x in image:
                        mask |= 1 << x
            start += size
        return elems, mask

    def close(self, positions: Iterable[int], gens: Sequence[int] = (),
              elems: Sequence[int] = (0,),
              mask: int = 1) -> tuple[list[int], list[int], int]:
        """(generators, elements, mask) of the subgroup generated by the
        elements at `positions` and a known subgroup, by default the trivial
        one, given by its generators, elements (identity first) and mask.
        Each position not yet generated when it is reached becomes a
        generator; from the trivial subgroup, with a subgroup's positions in
        increasing order, this is ``from_elements``' greedy pick."""
        gens = list(gens)
        elems = list(elems)
        for i in positions:
            if not mask >> i & 1:
                gens.append(i)
                elems, mask = self.extend(elems, mask, gens)
        return gens, elems, mask

    def subgroups(self, generators: Sequence[int]) -> dict[int, list[int]]:
        """Every subgroup, mask -> elements, of the group that the elements at
        `generators` generate, which must be the whole indexed group: the cyclic
        subgroups closed under joins <H, C> with a cyclic C, one H per
        conjugacy class."""
        conj = [self.conjugation(g) for g in generators]
        # each cyclic subgroup is walked from its first generator, and its
        # other generators are marked so that none is walked again
        walked = bytearray(len(self.elements))
        seeds = []
        for e in range(1, len(self.elements)):
            if not walked[e]:
                col = self.column(e)
                powers = [0, e]
                while col[powers[-1]]:
                    powers.append(col[powers[-1]])
                for k in range(1, len(powers)):
                    if gcd(k, len(powers)) == 1:
                        walked[powers[k]] = 1
                seeds.append((sum(1 << x for x in powers), powers, [e]))
        found = {1: [0]}
        worklist = []

        def add_class(mask: int, elems: list[int], hgens: list[int]) -> None:
            # found is a union of whole classes; only H goes on the worklist
            found[mask] = elems
            worklist.append((mask, elems, hgens))
            orbit = [elems]
            for pos in orbit:
                for c in conj:
                    image = [c[x] for x in pos]
                    image_mask = self.mask(image)
                    if image_mask not in found:
                        found[image_mask] = image
                        orbit.append(image)

        for seed in seeds:
            if seed[0] not in found:
                add_class(*seed)
        while worklist:
            hmask, helems, hgens = worklist.pop()
            for cmask, _, cgens in seeds:
                if not cmask & ~hmask or not hmask & ~cmask:
                    continue   # one contains the other: the join is known
                gens = hgens + cgens
                elems, mask = self.extend(helems, hmask, gens)
                if mask not in found:
                    add_class(mask, elems, gens)
        return found
