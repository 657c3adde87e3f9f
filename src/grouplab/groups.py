"""Permutation group construction and arithmetic.

A :class:`Group` is its generators plus its element set, enumerated once
at construction by a BFS over generator products that stops as soon as the
order bound is passed.  Order is the size of that set and membership a set
lookup.  Groups are immutable after construction and safe to share.

Desk-scale bounds: degree <= 64 and order <= 1000 for directly constructed
groups, and at most 2500 subgroups in a lattice.  Every group, products
included, is closed under the order bound.  Quotient groups act on cosets
and may have degree up to the index (<= 1000); they bypass the degree bound
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    BoundExceededError,
    DegreeMismatchError,
    InvalidActionError,
    NotASubgroupError,
)
from .perms import Permutation, identity

__all__ = [
    "MAX_DEGREE",
    "MAX_ORDER",
    "MAX_SUBGROUPS",
    "Group",
    "Homomorphism",
    "SetProductResult",
    "QuotientResult",
    "set_product",
    "quotient",
    "direct_product",
    "semidirect_product",
]

MAX_DEGREE = 64
MAX_ORDER = 1000
# the subgroup lattice stops growing past this many subgroups
MAX_SUBGROUPS = 2500

_images = attrgetter("images")


class Group:
    """Immutable permutation group: its generators and its element set."""

    # _place: (tree, mask, positions) of a subgroup that a context registry
    # built, set by grouplab.context; None otherwise
    __slots__ = ("degree", "generators", "order", "_elements", "_element_set",
                 "_key", "_place")

    def __init__(self, degree: int, generators: Iterable[Permutation],
                 *, _skip_degree_check: bool = False,
                 _closure: Optional[Iterable[Permutation]] = None):
        # _closure: the element set of the generators, when the caller has
        # just computed it
        gens = tuple(g for g in generators if not g.is_identity())
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatchError(
                    f"generator degree {g.degree} != group degree {degree}")
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if degree > MAX_DEGREE and not _skip_degree_check:
            raise BoundExceededError(f"degree {degree} exceeds desk bound {MAX_DEGREE}")
        elems = (closure(degree, gens, limit=MAX_ORDER) if _closure is None
                 else _closure)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_elements", tuple(sorted(elems, key=_images)))
        object.__setattr__(self, "order", len(self._elements))
        object.__setattr__(self, "_element_set", frozenset(elems))
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_place", None)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Group is immutable")

    def __contains__(self, perm: Permutation) -> bool:
        return isinstance(perm, Permutation) and perm in self._element_set

    def elements(self) -> tuple[Permutation, ...]:
        """All elements, sorted by image tuple (deterministic)."""
        return self._elements

    def element_set(self) -> frozenset[Permutation]:
        return self._element_set

    @property
    def key(self) -> frozenset:
        """Canonical hashable identity: the frozenset of image tuples."""
        if self._key is None:
            object.__setattr__(self, "_key", frozenset(map(_images, self._elements)))
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Group):
            return NotImplemented
        # each set holds the identity, whose images fix the degree
        return self._element_set == other._element_set

    def __hash__(self) -> int:
        return hash(self._element_set)  # a frozenset keeps its hash

    def is_subgroup_of(self, ambient: "Group") -> bool:
        if self.degree != ambient.degree:
            return False
        return all(g in ambient for g in self.generators)

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "()"
        return f"Group(degree={self.degree}, order={self.order}, gens=[{gens}])"


def from_elements(degree: int, elements: Iterable[Permutation]) -> Group:
    """The subgroup generated by the elements, with greedy generators: each
    element, in image-tuple order, that the earlier ones do not generate.

    For a closed element set this is the subgroup with exactly that set; a
    list that is not closed gives the larger group it generates.
    """
    gens: list[Permutation] = []
    have = {identity(degree)}
    for e in sorted(elements):
        if e not in have:
            gens.append(e)
            have = closure(degree, gens, limit=MAX_ORDER)
    return Group(degree, gens, _skip_degree_check=True, _closure=have)


def closure(degree: int, gens: Sequence[Permutation],
            limit: Optional[int] = None) -> set[Permutation]:
    """Element closure by BFS products.

    Raises BoundExceededError as soon as a (limit + 1)-th element is found,
    so an oversized group is rejected after at most limit + 1 elements.
    """
    elems = {identity(degree)}
    queue = [identity(degree)]
    while queue:
        e = queue.pop()
        for g in gens:
            x = e * g
            if x not in elems:
                if limit is not None and len(elems) >= limit:
                    raise BoundExceededError(f"order exceeds desk bound {limit}")
                elems.add(x)
                queue.append(x)
    return elems


@dataclass(frozen=True)
class SetProductResult:
    """Outcome of the set product HK inside an ambient group."""
    size: int
    is_subgroup: bool
    commutes: bool


def set_product(H: Group, K: Group, ambient: Group) -> SetProductResult:
    """The set HK: its size, whether HK = KH, and whether HK is a subgroup.

    is_subgroup is computed independently (as |<H, K>| == |HK|); the classical
    equivalence is_subgroup <=> commutes is asserted by the property suite,
    not assumed here.
    """
    for name, S in (("H", H), ("K", K)):
        if not S.is_subgroup_of(ambient):
            raise NotASubgroupError(
                f"{name} is not a subgroup of the ambient group")
    h_elems = H.elements()
    k_elems = K.elements()
    hk = {h * k for h in h_elems for k in k_elems}
    kh = {k * h for h in h_elems for k in k_elems}
    join_order = len(closure(ambient.degree, list(H.generators) + list(K.generators)))
    return SetProductResult(size=len(hk), is_subgroup=join_order == len(hk),
                            commutes=hk == kh)


class Homomorphism:
    """A homomorphism given by images of the source generators.

    The full element-to-image table is built lazily by walking the source
    Cayley graph; desk-scale orders make this viable everywhere it is used.
    """

    def __init__(self, source: Group, target: Group,
                 images: Sequence[Permutation],
                 element_map: Optional[dict[Permutation, Permutation]] = None):
        if len(images) != len(source.generators):
            raise ValueError("one image per source generator is required")
        self.source = source
        self.target = target
        self.images = tuple(images)
        self._map = element_map

    def _table(self) -> dict[Permutation, Permutation]:
        if self._map is None:
            table = {identity(self.source.degree): identity(self.target.degree)}
            queue = [identity(self.source.degree)]
            while queue:
                e = queue.pop()
                fe = table[e]
                for g, fg in zip(self.source.generators, self.images):
                    x = e * g
                    if x not in table:
                        table[x] = fe * fg
                        queue.append(x)
                    elif table[x] != fe * fg:
                        raise ValueError("images do not extend to a homomorphism")
            self._map = table
        return self._map

    def __call__(self, perm: Permutation) -> Permutation:
        return self._table()[perm]

    def image_of_subgroup(self, H: Group) -> Group:
        table = self._table()
        return Group(self.target.degree, [table[g] for g in H.generators],
                     _skip_degree_check=True)

    def preimage_elements(self, S: Group) -> frozenset[Permutation]:
        target_set = S.element_set()
        return frozenset(e for e, fe in self._table().items() if fe in target_set)


@dataclass(frozen=True)
class QuotientResult:
    group: Group
    epimorphism: Homomorphism


def quotient(G: Group, N: Group) -> QuotientResult:
    """G/N as a permutation group on the right cosets of N, numbered by their
    smallest elements, so of degree |G : N|, with the epimorphism that maps
    each generator of G to its coset permutation.  Raises NotNormalError
    unless N is a normal subgroup of G."""
    from .context import context_of   # context imports this module
    ctx = context_of(G)
    qctx, q = ctx.coset_action(N)
    # ctx.group may be another object with G's elements and other generators
    at = qctx._index.elements
    images = [at[q[i]] for i in ctx._at(G.generators)]
    qgroup = Group(qctx.group.degree, images, _skip_degree_check=True,
                   _closure=qctx.group.elements())
    return QuotientResult(qgroup, Homomorphism(G, qgroup, images))


def direct_product(A: Group, B: Group) -> Group:
    """A x B acting on the disjoint union of the two point sets."""
    n, m = A.degree, B.degree
    gens = [Permutation(tuple(g.images) + tuple(range(n, n + m)))
            for g in A.generators]
    gens += [Permutation(tuple(range(n)) + tuple(i + n for i in g.images))
             for g in B.generators]
    prod = Group(n + m, gens)
    if prod.order != A.order * B.order:
        raise AssertionError("direct product order mismatch")  # pragma: no cover
    return prod


def semidirect_product(N: Group, Q: Group,
                       action: Sequence[Mapping[Permutation, Permutation]]) -> Group:
    """Split extension of N by Q, acting on the element set of N.

    ``action[i]`` maps each element of N to its image under the automorphism
    induced by the i-th generator of Q.  The result is generated by the right
    translations of N together with the action permutations (holomorph-style
    embedding); the action must therefore be faithful, which is checked via
    the order |N| * |Q| of the result.
    """
    if len(action) != len(Q.generators):
        raise InvalidActionError("one automorphism per Q generator is required")
    if N.order > MAX_DEGREE:
        raise BoundExceededError(
            f"semidirect product would act on {N.order} > {MAX_DEGREE} points")
    domain = N.elements()
    index_of = {e: i for i, e in enumerate(domain)}
    nset = N.element_set()
    perms = []
    for phi in action:
        if set(phi) != nset or set(phi.values()) != nset:
            raise InvalidActionError("action is not a bijection on N")
        for a in domain:
            for b in domain:
                if phi[a * b] != phi[a] * phi[b]:
                    raise InvalidActionError("action is not an automorphism of N")
        perms.append(Permutation(tuple(index_of[phi[e]] for e in domain)))
    translations = [Permutation(tuple(index_of[e * g] for e in domain))
                    for g in N.generators]
    result = Group(len(domain), translations + perms)
    if result.order != N.order * Q.order:
        raise InvalidActionError(
            f"action is not faithful or not a homomorphism: got order "
            f"{result.order}, expected {N.order * Q.order}")
    return result

