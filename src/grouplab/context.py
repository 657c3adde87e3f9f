"""Shared per-group analysis state.

Everything downstream (lattice, structural predicates, formations,
quasinormality, theorem encodings) works through a :class:`GroupContext`,
which memoizes the expensive objects: the normal subgroup list, the full
subgroup lattice, Sylow classes, quotients and per-subgroup predicates.
There is one memo mechanism, the :func:`memoized` decorator: it stores
``f(ctx, *args)`` in ctx under the function and the argument tuple.  It
decorates the GroupContext methods asked twice and the context-first
functions of :mod:`~grouplab.structure`, :mod:`~grouplab.formations` and
:mod:`~grouplab.quasinormal`; their public ``(G, ...)`` functions are doors
that call them with ``context_of(G)``.  Contexts are created once per group
and shared; all contained data is immutable after computation.

Subgroups live in one registry per ambient group.  A root context, one made
for a group that no live registry produced, owns a registry that holds one
:class:`Group` object per element set.  Every subgroup built in the root's
tree goes into it, and ``context_of(H)`` for such a subgroup returns a
context in the same tree: it shares the root's registry and reads its
lattice off the root's.  No linking call is needed.  A Group built outside
every registry gets a root context of its own, even when a registry holds
its element set (unless a context for that set is cached); so does a
quotient G/N, built once by ``coset_action``.  ``ctx.quotient(N)``, the one
door to G/N, returns its context and ``image``: K to KN/N in its registry.

Each root also owns the element index of its group
(:class:`~grouplab.cayley.ElementIndex`): every context in the tree closes
subgroups on that index, as int masks, and the registry is keyed by mask.
A registry subgroup knows its place: the registry stamps it with the tree
(a weak reference to the root), its mask and its sorted positions, so
``ctx.mask(H)`` is an attribute read for it and an element lookup for any
other Group.  The mask is a subgroup's identity in the analysis layers:
``ctx.mask(H)`` is the one subgroup check, ``ctx.le(A, B)`` the one
containment test, and equal masks are equal subgroups.  The section kernels
(images in quotients, conjugation of elements and subgroups, centralizers
of chief factors, joins, intersections and HK = KH) read positions off the
index; permutations are only built where a subgroup enters or leaves it.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from functools import wraps
from typing import Callable, Iterable, Optional

from .cayley import ElementIndex
from .errors import NotASubgroupError, NotNormalError
from .groups import Group
from .perms import Permutation
from .primes import p_part, prime_divisors, require_prime

_MISSING = object()

_CONTEXTS: dict[Group, "GroupContext"] = {}


def context_of(G: Group) -> "GroupContext":
    """The cached context of G's element set: made in the tree of the
    registry that built G while its root lives, otherwise as a root."""
    ctx = _CONTEXTS.get(G)
    if ctx is None:
        root = G._place and G._place[0]()
        ctx = _CONTEXTS[G] = GroupContext(G, root)
    return ctx


def clear_contexts() -> None:
    _CONTEXTS.clear()


def subgroup_sort_key(H: Group) -> tuple:
    return (H.order, tuple(p.images for p in H.elements()))


def memoized(fn):
    """Memoize fn(ctx, *args) in the context ctx: its table is fn, its key
    the argument tuple with omitted defaults filled in, so f(ctx, x) and
    f(ctx, x, default) share an entry.  Arguments are hashable and
    positional; a Group hashes and compares by its element set, so an equal
    subgroup object is a hit.  The body runs only on a miss, and a
    stored False or None is a hit."""
    n = fn.__code__.co_argcount - 1          # the parameters after ctx
    defaults = fn.__defaults__ or ()
    required = n - len(defaults)
    @wraps(fn)
    def wrapper(ctx, *args):
        if required <= len(args) < n:
            args += defaults[len(args) - n:]
        entries = ctx._memo[fn]
        value = entries.get(args, _MISSING)
        if value is _MISSING:
            value = entries[args] = fn(ctx, *args)
        return value

    return wrapper


class GroupContext:
    """Memoized derived data for one ambient group."""

    def __init__(self, G: Group, root: Optional["GroupContext"] = None):
        self.group = G
        # None in a root, so that no root refers to itself and each one is
        # freed as soon as clear_contexts drops it.  Every context in a
        # root's tree shares its element index, its registry (mask -> the
        # tree's one Group with that element set) and its tree, the one weak
        # reference to the root that each registry Group's place holds
        self._root = root
        if root is None:
            self._index = ElementIndex(G.elements(), G.generators)
            self._tree = weakref.ref(self)
            whole = (1 << G.order) - 1
            self._registry: dict[int, Group] = {whole: G}
            object.__setattr__(G, "_place",
                               (self._tree, whole, list(range(G.order))))
        else:
            self._index = root._index
            self._registry = root._registry
            self._tree = root._tree
        # the bits outside this context's group, which no subgroup it is
        # asked about may have; none in a root, whose index is its group
        self._outside = 0 if root is None else ~G._place[1]
        # memoized function -> argument tuple -> value
        self._memo: defaultdict[Callable, dict] = defaultdict(dict)

    # ------------------------------------------------------------------
    # element positions and the subgroup registry

    def _at(self, elements) -> list[int]:
        """The positions of these elements of the ambient."""
        position = self._index.position
        try:
            return [position(e) for e in elements]
        except KeyError:
            raise NotASubgroupError(
                "an element lies outside the ambient group") from None

    def _inside(self, mask: int) -> int:
        if mask & self._outside:
            raise NotASubgroupError("a subgroup lies outside the ambient group")
        return mask

    def _where(self, H: Group) -> tuple:
        """H's place (tree, mask, sorted positions): read off H if this
        tree's registry built it, else found by its elements.  Raises
        NotASubgroupError unless H is a subgroup of this context's group."""
        place = H._place
        if place is None or place[0] is not self._tree:
            # elements in image-tuple order have increasing positions
            positions = self._at(H.elements())
            place = None, self._index.mask(positions), positions
        if place[1] & self._outside:
            raise NotASubgroupError("a subgroup lies outside the ambient group")
        return place

    def mask(self, H: Group) -> int:
        """H's mask; raises NotASubgroupError unless H is a subgroup."""
        return self._where(H)[1]

    def positions(self, H: Group) -> list[int]:
        """H's element positions in increasing order; do not modify."""
        return self._where(H)[2]

    def le(self, A: Group, B: Group) -> bool:
        """A <= B, for subgroups A and B of this context's group."""
        return not self._where(A)[1] & ~self._where(B)[1]

    def generated(self, elements) -> Group:
        """The tree's one Group object for the subgroup generated by these
        elements of the ambient: for the element set of a registry subgroup,
        that subgroup, found by its mask."""
        return self._subgroup_at(self._at(elements))

    def _subgroup_at(self, positions: Iterable[int]) -> Group:
        mask = self._index.mask(positions)
        H = self._registry.get(mask)
        if H is None:
            _, elems, mask = self._index.close(positions)
            H = self._group(mask, elems)
        self._inside(mask)
        return H

    def _group(self, mask: int, elems: Optional[list[int]] = None,
               gens: Optional[list[int]] = None) -> Group:
        """The tree's Group with this mask, built on first use and stamped
        with its place.  elems, its positions in any order, and gens, its
        greedy generators' positions, spare the mask scan and a closure."""
        H = self._registry.get(mask)
        if H is None:
            elems = sorted(elems) if elems is not None else [
                i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]
            at = self._index.elements
            H = self._registry[mask] = Group(
                self.group.degree,
                [at[i] for i in gens or self._index.close(elems)[0]],
                _skip_degree_check=True, _closure=[at[i] for i in elems])
            object.__setattr__(H, "_place", (self._tree, mask, elems))
        return H

    def trivial_subgroup(self) -> Group:
        return self._group(1)

    @memoized
    def join(self, A: Group, B: Group) -> Group:
        """<A, B>: B's cosets extended by A's generators."""
        _, bmask, bpos = self._where(B)
        _, elems, mask = self._index.close(
            self._at(A.generators), self._at(B.generators), bpos, bmask)
        return self._group(self._inside(mask), elems)

    def intersection(self, A: Group, B: Group) -> Group:
        return self._group(self.mask(A) & self.mask(B))

    def product_size(self, A: Group, B: Group) -> int:
        """|AB| = |A| |B| / |A n B|, by popcount."""
        return A.order * B.order // (self.mask(A) & self.mask(B)).bit_count()

    def permutes(self, H: Group, K: Group) -> bool:
        """HK = KH.  HK is a union of right cosets Hk; it is a subgroup, which
        is HK = KH, exactly when k h lies in it for every k in K and every
        generator h of H."""
        column = self._index.column
        hpos = self.positions(H)
        kpos = self.positions(K)
        hk = set()
        for k in kpos:
            col = column(k)
            hk.update([col[h] for h in hpos])
        return all(col[k] in hk
                   for col in map(column, self._at(H.generators))
                   for k in kpos)

    # ------------------------------------------------------------------
    # conjugation

    def conjugacy_classes(self) -> tuple[frozenset, ...]:
        """The classes of elements, each the orbit of its first element under
        the generators' conjugation maps, in order of that element."""
        conj = [self._index.conjugation(g)
                for g in self._at(self.group.generators)]
        at = self._index.elements
        seen: set[int] = set()
        classes = []
        for e in self.positions(self.group):
            if e not in seen:
                orbit = [x for x, in self._index.orbit([e], conj).values()]
                seen.update(orbit)
                classes.append(frozenset(at[i] for i in orbit))
        return tuple(classes)

    # ------------------------------------------------------------------
    # normal subgroups

    def normal_closure(self, K: Group, positions: list[int]) -> Group:
        """Normal closure inside the subgroup K of the elements at these
        positions."""
        index = self._index
        gens, elems, mask = index.close(positions)
        conj = [index.conjugation(k) for k in self._at(K.generators)]
        changed = True
        while changed:
            changed = False
            for s in list(gens):
                for c in conj:
                    if not mask >> c[s] & 1:
                        gens.append(c[s])
                        elems, mask = index.extend(elems, mask, gens)
                        changed = True
        return self._group(mask, elems)

    def commutator(self, A: Group, B: Group) -> Group:
        """[A, B] for B normal in A: the normal closure in A of the
        commutators [a, b] = a^-1 a^b of their generators."""
        index = self._index
        bconj = [index.conjugation(b) for b in self._at(B.generators)]
        return self.normal_closure(A, [
            index.column(c[a])[index.inverse(a)]
            for a in self._at(A.generators) for c in bconj])

    def is_abelian(self) -> bool:
        """Whether the group's generators commute pairwise."""
        column = self._index.column
        gens = self._at(self.group.generators)
        return all(column(a)[b] == column(b)[a] for a in gens for b in gens)

    def is_cyclic(self) -> bool:
        """Whether some element's order is the group's."""
        orders = self._index.orders()
        return any(orders[i] == self.group.order
                   for i in self.positions(self.group))

    @memoized
    def normal_subgroups(self) -> tuple[Group, ...]:
        """All normal subgroups, sorted by (order, element key)."""
        index = self._index
        if self.is_abelian():
            # every subgroup is normal
            return self.all_subgroups()
        classes = sorted((sorted(self._at(c)) for c in self.conjugacy_classes()),
                         key=lambda c: (len(c), c[0]))
        classes = [(index.mask(c), c) for c in classes]
        triv = self.trivial_subgroup()
        found: dict[int, Group] = {1: triv}
        worklist = [triv]
        while worklist:
            N = worklist.pop()
            _, nmask, npos = self._where(N)
            ngens = self._at(N.generators)
            for cmask, cls in classes:
                if not cmask & ~nmask:
                    continue
                # <N u cls>: N's cosets extended by the class elements that
                # are not generated yet
                _, elems, mask = index.close(cls, ngens, npos, nmask)
                if mask not in found:
                    found[mask] = M = self._group(mask, elems)
                    worklist.append(M)
        return tuple(sorted(found.values(), key=subgroup_sort_key))

    def minimal_normal_subgroups(self) -> tuple[Group, ...]:
        """The covers of 1 among the normal subgroups, in their order."""
        return self.covers(self.trivial_subgroup())

    def is_normal(self, H: Group) -> bool:
        """Whether H is a normal subgroup."""
        try:
            return self.normalizes(self.group, H)
        except NotASubgroupError:
            return False

    def normalizes(self, K: Group, H: Group) -> bool:
        """Whether K normalizes H: the conjugation map of each generator of
        K keeps H's generators inside H."""
        hmask = self.mask(H)
        hgens = self._at(H.generators)
        return all(hmask >> c[x] & 1
                   for c in map(self._index.conjugation, self._at(K.generators))
                   for x in hgens)

    # ------------------------------------------------------------------
    # the full subgroup lattice

    @memoized
    def all_subgroups(self) -> tuple[Group, ...]:
        """Every subgroup, sorted by (order, element key): on a root, the
        index's join closure of the zuppos."""
        if self._root is not None:
            return self._root.subgroups_of(self.group)
        from . import cache as _cache
        if _cache.enabled():
            cached = _cache.load_lattice(self.group)
            if cached is not None:
                return cached
        found = sorted((len(elems), sorted(elems), mask)
                       for mask, elems in self._index.subgroups().items())
        subgroups = tuple(self._group(mask, elems) for _, elems, mask in found)
        if _cache.enabled():
            _cache.store_lattice(self.group, subgroups)
        return subgroups

    @memoized
    def subgroup_classes(self) -> tuple[tuple[Group, ...], ...]:
        """Conjugacy classes of subgroups, each in lattice order, ordered by
        their first members.  A class is the orbit of its first member's mask
        under the generators' conjugation maps."""
        subs = self.all_subgroups()
        rank = {self.mask(H): r for r, H in enumerate(subs)}
        conj = [self._index.conjugation(g)
                for g in self._at(self.group.generators)]
        seen: set[int] = set()
        classes = []
        for H in subs:
            _, hmask, hpos = self._where(H)
            if hmask in seen:
                continue
            orbit = self._index.orbit(hpos, conj)
            seen.update(orbit)
            # H comes first: a member before it would have been seen
            classes.append(tuple(subs[r] for r in sorted(map(rank.get, orbit))))
        return tuple(classes)

    @memoized
    def subgroups_of(self, K: Group) -> tuple[Group, ...]:
        return tuple(H for H in self.all_subgroups() if self.le(H, K))

    @memoized
    def maximal_subgroups_of(self, K: Group) -> tuple[Group, ...]:
        """Maximal proper subgroups of K, read off the ambient lattice: from
        the largest order down (K itself comes last in subgroups_of), the
        proper subgroups inside none kept before, returned in their order."""
        kept: dict[int, Group] = {}
        for H in reversed(self.subgroups_of(K)[:-1]):
            hmask = self.mask(H)
            if all(hmask & ~m for m in kept):
                kept[hmask] = H
        return tuple(reversed(kept.values()))

    def n_maximal_subgroups_of(self, K: Group, n: int) -> tuple[Group, ...]:
        if n < 1:
            raise ValueError("n must be >= 1")
        level = [K]
        for _ in range(n):
            # mask -> subgroup: a subgroup maximal in two members counts once
            level = list({self.mask(M): M for H in level
                          for M in self.maximal_subgroups_of(H)}.values())
        return tuple(sorted(level, key=subgroup_sort_key))

    # ------------------------------------------------------------------
    # Sylow and Hall subgroups

    def primes(self) -> tuple[int, ...]:
        return prime_divisors(self.group.order)

    def sylow_all(self, p: int) -> tuple[Group, ...]:
        require_prime(p)
        return self.sylow_of_subgroup(self.group, p)

    def sylow(self, p: int) -> Group:
        return self.sylow_all(p)[0]

    @memoized
    def sylow_of_subgroup(self, K: Group, p: int) -> tuple[Group, ...]:
        """The Sylow p-subgroups of the subgroup K, in lattice order."""
        pp = p_part(K.order, p)
        if pp == 1:
            return (self.trivial_subgroup(),)
        return tuple(H for H in self.subgroups_of(K) if H.order == pp)

    def hall(self, pi) -> tuple[Optional[Group], bool]:
        """The first Hall pi-subgroup in lattice order (None if there is
        none), and whether the Hall pi-subgroups form one conjugacy class.
        The classes are ordered by their first members, so the first class
        of the Hall order starts with that subgroup."""
        part = 1
        for p in self.primes():
            if p in pi:
                part *= p_part(self.group.order, p)
        # the members of a class share one order
        classes = [c for c in self.subgroup_classes() if c[0].order == part]
        if not classes:
            return None, True
        return classes[0][0], len(classes) == 1

    # ------------------------------------------------------------------
    # named subgroups

    def center(self) -> Group:
        return self.chief_centralizer(self.trivial_subgroup(), self.group)

    def frattini(self) -> Group:
        mask = self.mask(self.group)
        for M in self.maximal_subgroups_of(self.group):
            mask &= self.mask(M)
        return self._group(mask)

    def O_p(self, p: int) -> Group:
        require_prime(p)
        return self.O_pi((p,))

    def O_pi_prime(self, pi) -> Group:
        return self.O_pi(tuple(q for q in self.primes() if q not in pi))

    @memoized
    def O_pi(self, pi) -> Group:
        """The largest normal pi-subgroup, for a hashable collection pi of
        primes: the normal subgroup of largest order whose order's primes
        all lie in pi.  It is unique, so the scan order does not matter."""
        return max((N for N in self.normal_subgroups()
                    if all(q in pi for q in prime_divisors(N.order))),
                   key=lambda N: N.order)

    def O_upper_p(self, p: int) -> Group:
        """Smallest normal subgroup with p-group quotient: <all p'-elements>."""
        orders = self._index.orders()
        return self._subgroup_at([i for i in self.positions(self.group)
                                  if orders[i] % p])

    def fitting(self) -> Group:
        return self.generated([g for p in self.primes()
                               for g in self.O_p(p).generators])

    # ------------------------------------------------------------------
    # core and subnormality

    @memoized
    def core(self, H: Group) -> Group:
        """Largest subgroup of H normal in the ambient group: the first of
        the largest normal subgroups inside H."""
        return max((N for N in self.normal_subgroups() if self.le(N, H)),
                   key=lambda N: N.order)

    @memoized
    def is_subnormal(self, H: Group) -> bool:
        hmask = self.mask(H)
        K = self.group
        while self.mask(K) != hmask:
            N = self.normal_closure(K, self._at(H.generators))
            if self.mask(N) == self.mask(K):
                return False
            K = N
        return True

    # ------------------------------------------------------------------
    # quotients

    @memoized
    def coset_action(self, N: Group) -> tuple["GroupContext", list[int]]:
        """G/N acting on the right cosets of N, numbered by their smallest
        positions: the quotient's context, and q, where q[i] is the position
        in that context's index of the image of the element at position i
        (-1 off G).  Raises NotNormalError unless N is a normal subgroup of
        G."""
        if not self.is_normal(N):
            raise NotNormalError("N is not a normal subgroup of G")
        label = self._coset_labels(N)
        reps = [x for x in self.positions(self.group) if label[x] == x]
        number = {r: c for c, r in enumerate(reps)}
        coset = [number.get(x, -1) for x in label]
        # coset c acts by right multiplication by reps[c]: as N is normal,
        # it maps the coset N r to N r reps[c], read off the column of reps[c]
        elems = [Permutation([coset[col[r]] for r in reps])
                 for col in map(self._index.column, reps)]
        images = [elems[coset[g]] for g in self._at(self.group.generators)]
        Q = Group(len(reps), images, _skip_degree_check=True, _closure=elems)
        if len(Q.element_set()) != Q.order:
            raise AssertionError("quotient order mismatch")  # pragma: no cover
        # positions in the quotient context's own index, which need not be
        # Q's element order: the context may belong to another tree
        qctx = context_of(Q)
        qpos = qctx._at(elems)
        return qctx, [qpos[c] if c >= 0 else -1 for c in coset]

    def quotient(self, N: Group) -> tuple["GroupContext", Callable]:
        """G/N's context (this one for N = 1) and image, image(K) = KN/N in
        its registry, by mask: the OR of the bits of K's images.  Not stored:
        image refers to this context (coset_action's context is another root)."""
        qctx, q = ((self, range(len(self._index.elements))) if N.order == 1
                   else self.coset_action(N))
        bit = [1 << j if j >= 0 else 0 for j in q]
        def image(K: Group) -> Group:
            mask = 0
            for i in self.positions(K):
                mask |= bit[i]
            return qctx._group(mask)
        return qctx, image

    # ------------------------------------------------------------------
    # chief factors

    @memoized
    def covers(self, K: Group) -> tuple[Group, ...]:
        """The normals H with H/K minimal normal in G/K, for normal K, in
        their order: those above K with no earlier cover inside.  A normal
        strictly between K and H, and a cover of K inside it, come before H."""
        kmask = self.mask(K)
        kept: dict[int, Group] = {}
        for H in self.normal_subgroups():
            if H.order > K.order:
                hmask = self.mask(H)
                if not kmask & ~hmask and all(m & ~hmask for m in kept):
                    kept[hmask] = H
        return tuple(kept.values())

    def chief_pairs(self) -> tuple[tuple[Group, Group], ...]:
        """All (lower, upper) pairs of normals with upper/lower minimal normal
        in G/lower."""
        return tuple((K, H) for K in self.normal_subgroups()
                     for H in self.covers(K))

    def _coset_labels(self, L: Group) -> list[int]:
        """label[i] names the right coset L x of the element x at position i
        by its smallest position: the coset is column x read at L's
        positions."""
        column = self._index.column
        lpos = self.positions(L)
        label = [-1] * len(self._index.elements)
        for x in self.positions(self.group):
            if label[x] < 0:
                col = column(x)
                for h in lpos:
                    label[col[h]] = x
        return label

    @memoized
    def chief_centralizer(self, lower: Group, upper: Group) -> Group:
        """C_G(upper/lower): the elements g of G whose commutator with every
        element of upper lies in lower.  For lower = 1 this is C_G(upper);
        for upper = G, the preimage of Z(G/lower).  Lower must be normal in G:
        then [g, h] lies in lower exactly when lower g^h = lower g, read off
        h's conjugation map, and the generators h of upper suffice."""
        if not self.is_normal(lower):
            raise NotNormalError("lower is not a normal subgroup of G")
        label = self._coset_labels(lower)
        out = self.positions(self.group)
        for c in map(self._index.conjugation, self._at(upper.generators)):
            out = [g for g in out if label[c[g]] == label[g]]
        return self._subgroup_at(out)
