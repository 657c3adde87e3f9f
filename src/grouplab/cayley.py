"""The element index of a group: its elements numbered 0..n-1 in image-tuple
order, so the identity is 0, and a subgroup held as an int mask over them.

The index holds one multiplication table, n columns of n ints, composed on
first use: only the generators' columns are mapped from permutations, and
every other column is composed along a walk of the Cayley graph from the
identity, the column of x g being the column of x followed by that of the
generator g.  Left multiplication, inverses, conjugation maps and element
orders are read off the table.  Closure is Dimino's coset method: a subgroup
grows by whole right cosets of a known subgroup, each the image of a listed
coset under one generator column (Holt, Eick & O'Brien, *Handbook of
Computational Group Theory*, 2005, ch. 3-4).

The subgroup lattice is the closure of the zuppos, the cyclic subgroups of
prime-power order, under joins <H, c> with a zuppo <c>, since every subgroup
is generated by its zuppos (Neubüser, *Numer. Math.* 2, 1960; Cannon, Cox &
Holt, *J. Symb. Comput.* 31, 2001).  Only the first-found member H0 of each
class of subgroups is extended; the rest of its class, the orbit of its
elements under the generators' conjugation maps, is added when H0 is found.
This loses no subgroup: if H = H0^g, then <H, c> = <H0, c^(g^-1)>^g, and
the zuppos are closed under conjugation.  And H is joined with one c per
right coset Hc, as <H, c> = <H, hc>; the coset H holds each c in H.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .errors import BoundExceededError
from .groups import MAX_SUBGROUPS
from .perms import Permutation
from .primes import prime_divisors


class ElementIndex:
    """A group's elements by position, and its Cayley table by columns."""

    __slots__ = ("elements", "generators", "_position", "_table", "_zuppos",
                 "_orders", "_conjugations")

    def __init__(self, elements: Sequence[Permutation],
                 generators: Sequence[Permutation]):
        """The index of the group with these elements, which the generators
        generate."""
        self.elements = tuple(elements)
        self._position = {e.images: i for i, e in enumerate(self.elements)}
        self.generators = [self.position(g) for g in generators]
        self._table: list[list[int]] = []
        self._zuppos: list[list[int]] = []
        self._orders: list[int] = []
        self._conjugations: dict[int, list[int]] = {}

    def position(self, perm: Permutation) -> int:
        """The position of perm; KeyError when it is not an element."""
        return self._position[perm.images]

    def column(self, j: int) -> list[int]:
        """col[i] is the position of elements[i] * elements[j]."""
        if not self._table:
            self._compose()
        return self._table[j]

    def _compose(self) -> None:
        position = self._position
        table: list = [None] * len(self.elements)
        table[0] = list(range(len(self.elements)))
        gen_cols = [[position[(e * self.elements[g]).images]
                     for e in self.elements] for g in self.generators]
        walk = [0]
        for x in walk:
            col_x = table[x]
            for col_g in gen_cols:
                y = col_g[x]
                if table[y] is None:
                    # e_i e_y = (e_i e_x) g
                    table[y] = list(map(col_g.__getitem__, col_x))
                    walk.append(y)
        self._table = table

    def inverse(self, j: int) -> int:
        """The position of elements[j]^-1."""
        return self.column(j).index(0)

    def conjugation(self, j: int) -> list[int]:
        """c[i] is the position of g^-1 * elements[i] * g, g = elements[j]:
        the product g^-1 e_i, read off column i, then the column of g."""
        conj = self._conjugations.get(j)
        if conj is None:
            col = self.column(j)
            inv = col.index(0)
            conj = self._conjugations[j] = [col[c[inv]] for c in self._table]
        return conj

    def zuppos(self) -> list[list[int]]:
        """The powers [0, e, e^2, ...] of the first element e of each zuppo,
        a cyclic subgroup of prime-power order.  The walk over all cyclic
        subgroups also gives every element's order: the generators of a
        cyclic subgroup of order m are its powers e^k with gcd(k, m) = 1,
        and each has order m."""
        if not self._orders:
            orders = [1] * len(self.elements)
            for e in range(1, len(self.elements)):
                if orders[e] == 1:   # no cyclic subgroup walked so far has e
                    col = self.column(e)
                    powers = [0, e]
                    while col[powers[-1]]:
                        powers.append(col[powers[-1]])
                    m = len(powers)
                    for k in range(1, m):
                        if gcd(k, m) == 1:
                            orders[powers[k]] = m
                    if len(prime_divisors(m)) == 1:
                        self._zuppos.append(powers)
            self._orders = orders
        return self._zuppos

    def orders(self) -> list[int]:
        """orders[i] is the order of elements[i]."""
        self.zuppos()
        return self._orders

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

    def subgroups(self) -> dict[int, list[int]]:
        """Every subgroup, mask -> elements: the trivial group closed under
        joins <H, c> with a zuppo <c>, one H per conjugacy class and one c
        per right coset Hc.  Raises BoundExceededError as soon as more than
        MAX_SUBGROUPS are found."""
        conj = [self.conjugation(g) for g in self.generators]
        # found is a union of whole classes; only the first-found member of
        # each class goes on the worklist
        found = {1: [0]}
        worklist = [(1, [0], [])]
        while worklist:
            hmask, helems, hgens = worklist.pop()
            # <H, x> is known for x in H and in each coset Hc joined so far
            joined = set(helems)
            for c in [powers[1] for powers in self.zuppos()]:
                if c in joined:
                    continue
                joined.update(map(self.column(c).__getitem__, helems))
                elems, mask = self.extend(helems, hmask, hgens + [c])
                if mask not in found:
                    found.update(self.orbit(elems, conj))
                    if len(found) > MAX_SUBGROUPS:
                        raise BoundExceededError(
                            f"more than {MAX_SUBGROUPS} subgroups exceed "
                            f"the desk bound")
                    worklist.append((mask, elems, hgens + [c]))
        return found

    def orbit(self, elems: list[int],
              conj: Sequence[list[int]]) -> dict[int, list[int]]:
        """mask -> positions of each image of the set at these positions
        under the group that the conjugation maps `conj` generate."""
        orbit = {self.mask(elems): elems}
        queue = [elems]
        for pos in queue:
            for c in conj:
                image = [c[x] for x in pos]
                mask = self.mask(image)
                if mask not in orbit:
                    orbit[mask] = image
                    queue.append(image)
        return orbit
