"""Shared per-group analysis state.

Everything downstream (lattice, structural predicates, formations,
quasinormality, theorem encodings) works through a :class:`GroupContext`,
which memoizes the expensive objects: element conjugacy classes, the normal
subgroup list, the full subgroup lattice, Sylow classes, quotients and
per-subgroup predicates.  There is one memo mechanism, the :func:`memoized`
decorator: it stores ``f(ctx, *args)`` in ctx under the function and the
argument tuple.  It decorates GroupContext methods and the context-first
functions of :mod:`~grouplab.structure`, :mod:`~grouplab.formations` and
:mod:`~grouplab.quasinormal`; their public ``(G, ...)`` functions are doors
that call them with ``context_of(G)``.  Contexts are created once per group
and shared; all contained data is immutable after computation.

Subgroups live in one registry per ambient group.  A root context, one made
for a group that no registry produced, owns a registry that holds one
:class:`Group` object per element set.  Every subgroup built in the root's
tree goes into it, and ``context_of(H)`` for such a subgroup returns a
context in the same tree: it shares the root's registry and reads its
lattice off the root's.  No linking call is needed.  A quotient G/N is
built once, by :meth:`GroupContext.coset_action`, from the element index's
right-coset labels; its context is a root of its own unless another tree
already holds its element set.

Each root also owns the element index of its group
(:class:`~grouplab.cayley.ElementIndex`): every context in the tree closes
subgroups on that index, as int masks, and the registry is keyed by mask.
The root also keeps each registry subgroup's mask and sorted positions, so
the section kernels (quotient images, conjugation of elements and
subgroups, centralizers of chief factors, joins, intersections and HK = KH)
read them off the index; permutations are only built where a subgroup enters
or leaves it.
"""

from __future__ import annotations

from collections import defaultdict
from functools import wraps
from typing import Callable, Iterable, Optional

from .cayley import ElementIndex
from .errors import NotASubgroupError, NotNormalError
from .groups import Group, require_subgroup
from .perms import Permutation, identity
from .primes import p_part, prime_divisors, require_prime

_MISSING = object()

_CONTEXTS: dict[tuple[int, frozenset], "GroupContext"] = {}
# (degree, element set) of every registered subgroup -> the root context
# whose registry holds it
_ROOTS: dict[tuple[int, frozenset], "GroupContext"] = {}


def context_of(G: Group) -> "GroupContext":
    """The (cached) analysis context of G, in the tree of the registry that
    holds G's element set, if any."""
    ck = (G.degree, G.key)
    ctx = _CONTEXTS.get(ck)
    if ctx is None:
        ctx = _CONTEXTS[ck] = GroupContext(G, _ROOTS.get(ck))
    return ctx


def clear_contexts() -> None:
    _CONTEXTS.clear()
    _ROOTS.clear()


def _is_power_of(n: int, p: int) -> bool:
    return p_part(n, p) == n


def _is_pi_number(n: int, pi: frozenset) -> bool:
    return all(q in pi for q in prime_divisors(n))


def _is_pi_prime_number(n: int, pi: frozenset) -> bool:
    return all(q not in pi for q in prime_divisors(n))


def subgroup_sort_key(H: Group) -> tuple:
    return (H.order, tuple(p.images for p in H.elements()))


def memoized(fn):
    """Memoize fn(ctx, *args) in the context ctx: its table is fn, its key
    the argument tuple.  Arguments are hashable and positional; a Group hashes
    and compares by its degree and element set, so an equal subgroup object
    is a hit.  The body runs only on a miss, and a stored False or None is a
    hit."""
    @wraps(fn)
    def wrapper(ctx, *args):
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
        # freed as soon as clear_contexts drops it.  A root's element index
        # and registry, mask -> the tree's one Group with that element set,
        # are shared by every context in its tree
        self._root = root
        if root is None:
            self._index = ElementIndex(G.elements())
            whole = (1 << G.order) - 1
            self._registry: dict[int, Group] = {whole: G}
            # element key -> (mask, sorted positions) of each registry subgroup
            self._located: dict[frozenset, tuple[int, list[int]]] = {
                G.key: (whole, list(range(G.order)))}
        else:
            self._index = root._index
            self._registry = root._registry
            self._located = root._located
        # the bits outside this context's group, which no subgroup it is
        # asked about may have; none in a root, whose index is its group
        self._outside = 0 if root is None else ~self._located[G.key][0]
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

    def _where(self, H: Group) -> tuple[int, list[int]]:
        """(mask, sorted positions) of H, a subgroup of the ambient: a dict
        read for a registry subgroup."""
        found = self._located.get(H.key)
        if found is None:
            # elements in image-tuple order have increasing positions
            positions = self._at(H.elements())
            found = self._index.mask(positions), positions
        self._inside(found[0])
        return found

    def mask(self, H: Group) -> int:
        return self._where(H)[0]

    def positions(self, H: Group) -> list[int]:
        """H's element positions in increasing order; do not modify."""
        return self._where(H)[1]

    def generated(self, elements) -> Group:
        """The tree's one Group object for the subgroup generated by these
        elements of the ambient."""
        _, elems, mask = self._index.close(self._at(elements))
        return self._group(self._inside(mask), elems)

    def subgroup(self, elements) -> Group:
        """The subgroup generated by these elements: for the element set of a
        registry subgroup, that subgroup, found by its mask."""
        return self._subgroup_at(self._at(elements))

    def _subgroup_at(self, positions: Iterable[int]) -> Group:
        mask = self._index.mask(positions)
        H = self._registry.get(mask)
        if H is None:
            _, elems, mask = self._index.close(positions)
            H = self._group(mask, elems)
        self._inside(mask)
        return H

    def _group(self, mask: int, elems: list[int]) -> Group:
        """The tree's Group for the subgroup with this mask and element
        positions, built on first use with its greedy generators."""
        H = self._registry.get(mask)
        if H is None:
            elems = sorted(elems)
            at = self._index.elements
            H = self._registry[mask] = Group(
                self.group.degree,
                [at[i] for i in self._index.close(elems)[0]],
                _skip_degree_check=True, _closure=[at[i] for i in elems])
            self._located[H.key] = mask, elems
            _ROOTS.setdefault((H.degree, H.key), self._root or self)
        return H

    def greedy_generators(self, H: Group) -> list[Permutation]:
        """Each element of H, in image-tuple order, that the earlier ones do
        not generate: the generators of every registry subgroup but a root."""
        at = self._index.elements
        return [at[i] for i in self._index.close(self.positions(H))[0]]

    def trivial_subgroup(self) -> Group:
        return self._group(1, [0])

    @memoized
    def join(self, A: Group, B: Group) -> Group:
        """<A, B>: B's cosets extended by A's generators."""
        bmask, bpos = self._where(B)
        _, elems, mask = self._index.close(
            self._at(A.generators), self._at(B.generators), bpos, bmask)
        return self._group(self._inside(mask), elems)

    def _cut(self, mask: int, within: list[int]) -> Group:
        """The subgroup with this mask, whose elements lie at `within`."""
        H = self._registry.get(mask)
        if H is None:
            H = self._group(mask, [i for i in within if mask >> i & 1])
        return H

    def intersection(self, A: Group, B: Group) -> Group:
        amask, apos = self._where(A)
        return self._cut(amask & self.mask(B), apos)

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

    @memoized
    def _conjugations(self) -> list[list[int]]:
        """The conjugation map of each generator of the group, on positions."""
        return [self._index.conjugation(g)
                for g in self._at(self.group.generators)]

    @memoized
    def conjugacy_classes(self) -> tuple[frozenset, ...]:
        """The classes of elements, each the orbit of its first element under
        the generators' conjugation maps, in order of that element."""
        conj = self._conjugations()
        at = self._index.elements
        seen = set()
        classes = []
        for e in self.positions(self.group):
            if e in seen:
                continue
            orbit = [e]
            seen.add(e)
            for x in orbit:
                for c in conj:
                    y = c[x]
                    if y not in seen:
                        seen.add(y)
                        orbit.append(y)
            classes.append(frozenset(at[i] for i in orbit))
        return tuple(classes)

    # ------------------------------------------------------------------
    # normal subgroups

    def normal_closure_in(self, K: Group, H: Group) -> Group:
        """Normal closure of H inside the subgroup K (both within the ambient)."""
        index = self._index
        gens, elems, mask = index.close(self._at(H.generators))
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

    @memoized
    def normal_subgroups(self) -> tuple[Group, ...]:
        """All normal subgroups, sorted by (order, element key)."""
        index = self._index
        gens = self._at(self.group.generators)
        if all(index.column(a)[b] == index.column(b)[a]
               for a in gens for b in gens):
            # abelian: every subgroup is normal
            return self.all_subgroups()
        classes = sorted((sorted(self._at(c)) for c in self.conjugacy_classes()),
                         key=lambda c: (len(c), c[0]))
        classes = [(index.mask(c), c) for c in classes]
        triv = self.trivial_subgroup()
        found: dict[int, Group] = {1: triv}
        worklist = [triv]
        while worklist:
            N = worklist.pop()
            nmask, npos = self._where(N)
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
        normals = [N for N in self.normal_subgroups() if N.order > 1]
        masks = [self.mask(N) for N in normals]
        return tuple(N for N, n in zip(normals, masks)
                     if not any(m != n and not m & ~n for m in masks))

    def is_normal(self, H: Group) -> bool:
        """Whether H is a normal subgroup: every generator's conjugation map
        keeps H's generators inside H."""
        try:
            hmask = self.mask(H)
        except NotASubgroupError:
            return False
        hgens = self._at(H.generators)
        return all(hmask >> c[x] & 1 for c in self._conjugations()
                   for x in hgens)

    # ------------------------------------------------------------------
    # the full subgroup lattice

    @memoized
    def all_subgroups(self) -> tuple[Group, ...]:
        """Every subgroup, sorted by (order, element key): on a root, the
        index's join closure of the cyclic subgroups."""
        if self._root is not None:
            return self._root.subgroups_of(self.group)
        from . import cache as _cache
        if _cache.enabled():
            cached = _cache.load_lattice(self.group)
            if cached is not None:
                return cached
        found = sorted((len(elems), sorted(elems), mask)
                       for mask, elems in self._index.subgroups(
                           self._at(self.group.generators)).items())
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
        rank = {m: r for r, (_, m) in enumerate(self._masked_lattice())}
        conj = self._conjugations()
        to_mask = self._index.mask
        seen: set[int] = set()
        classes = []
        for H in subs:
            hmask, hpos = self._where(H)
            if hmask in seen:
                continue
            orbit = {hmask}
            queue = [hpos]
            while queue:
                pos = queue.pop()
                for c in conj:
                    image = [c[x] for x in pos]
                    mask = to_mask(image)
                    if mask not in orbit:
                        orbit.add(mask)
                        queue.append(image)
            seen |= orbit
            # H comes first: a member before it would have been seen
            classes.append(tuple(subs[r] for r in sorted(map(rank.get, orbit))))
        return tuple(classes)

    @memoized
    def _masked_lattice(self) -> list[tuple[Group, int]]:
        return [(H, self.mask(H)) for H in self.all_subgroups()]

    def subgroups_of(self, K: Group) -> tuple[Group, ...]:
        kmask = self.mask(K)
        return tuple(H for H, m in self._masked_lattice() if not m & ~kmask)

    @memoized
    def maximal_subgroups_of(self, K: Group) -> tuple[Group, ...]:
        """Maximal proper subgroups of K, read off the ambient lattice."""
        subs = [(H, self.mask(H)) for H in self.subgroups_of(K)
                if H.order < K.order]
        return tuple(H for H, h in subs
                     if not any(m != h and not h & ~m for _, m in subs))

    def n_maximal_subgroups_of(self, K: Group, n: int) -> tuple[Group, ...]:
        if n < 1:
            raise ValueError("n must be >= 1")
        level = {K.key: K}
        for _ in range(n):
            nxt: dict[frozenset, Group] = {}
            for H in level.values():
                for M in self.maximal_subgroups_of(H):
                    nxt[M.key] = M
            level = nxt
        return tuple(sorted(level.values(), key=subgroup_sort_key))

    # ------------------------------------------------------------------
    # Sylow and Hall subgroups

    def primes(self) -> tuple[int, ...]:
        return prime_divisors(self.group.order)

    def sylow_all(self, p: int) -> tuple[Group, ...]:
        require_prime(p)
        pp = p_part(self.group.order, p)
        if pp == 1:
            return (self.trivial_subgroup(),)
        return tuple(H for H in self.all_subgroups() if H.order == pp)

    def sylow(self, p: int) -> Group:
        return self.sylow_all(p)[0]

    def sylow_of_subgroup(self, K: Group, p: int) -> tuple[Group, ...]:
        pp = p_part(K.order, p)
        if pp == 1:
            return (self.trivial_subgroup(),)
        return tuple(H for H in self.subgroups_of(K) if H.order == pp)

    def hall(self, pi) -> tuple[Optional[Group], bool]:
        pi = frozenset(pi)
        part = 1
        for p in self.primes():
            if p in pi:
                part *= p_part(self.group.order, p)
        members = [H for H in self.all_subgroups() if H.order == part]
        if not members:
            return None, True
        # the members of a class share one order
        classes = [c for c in self.subgroup_classes() if c[0].order == part]
        return members[0], len(classes) == 1

    # ------------------------------------------------------------------
    # named subgroups

    @memoized
    def center(self) -> Group:
        return self.chief_centralizer(self.trivial_subgroup(), self.group)

    @memoized
    def frattini(self) -> Group:
        maxima = self.maximal_subgroups_of(self.group)
        if not maxima:
            return self.group
        mask = self.mask(self.group)
        for M in maxima:
            mask &= self.mask(M)
        return self._cut(mask, self.positions(self.group))

    def O_p(self, p: int) -> Group:
        # a normal subgroup of order 1 counts as a p-group here
        return self._largest_normal(_is_power_of, p)

    def O_pi_prime(self, pi) -> Group:
        return self._largest_normal(_is_pi_prime_number, frozenset(pi))

    def O_pi(self, pi) -> Group:
        """Largest normal pi-subgroup."""
        return self._largest_normal(_is_pi_number, frozenset(pi))

    @memoized
    def _largest_normal(self, order_ok: Callable[[int, object], bool],
                        arg) -> Group:
        """The first largest normal subgroup N with order_ok(|N|, arg)."""
        best = self.trivial_subgroup()
        for N in self.normal_subgroups():
            if order_ok(N.order, arg) and N.order > best.order:
                best = N
        return best

    @memoized
    def O_upper_p(self, p: int) -> Group:
        """Smallest normal subgroup with p-group quotient: <all p'-elements>."""
        return self.generated([e for e in self.group.elements()
                               if e.order() % p != 0])

    @memoized
    def fitting(self) -> Group:
        gens: list[Permutation] = []
        for p in self.primes():
            gens.extend(self.O_p(p).generators)
        return self.generated(gens) if gens else self.trivial_subgroup()

    # ------------------------------------------------------------------
    # core and subnormality

    @memoized
    def core(self, H: Group) -> Group:
        """Largest subgroup of H normal in the ambient group."""
        require_subgroup(H, self.group)
        hmask = self.mask(H)
        best = self.trivial_subgroup()
        for N in self.normal_subgroups():
            if N.order > best.order and not self.mask(N) & ~hmask:
                best = N
        return best

    @memoized
    def is_subnormal(self, H: Group) -> tuple[bool, int]:
        require_subgroup(H, self.group)
        K = self.group
        defect = 0
        while K.key != H.key:
            N = self.normal_closure_in(K, H)
            if N.key == K.key:
                return False, defect
            K = N
            defect += 1
        return True, defect

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
        # a generator maps coset c to the coset of reps[c] times it
        cols = [self._index.column(g) for g in self._at(self.group.generators)]
        images = tuple(Permutation([coset[col[r]] for r in reps])
                       for col in cols)
        # one walk over the cosets: the image of coset d = c g is that of c
        # times that of g
        elems = [None] * len(reps)
        elems[0] = identity(len(reps))
        walk = [0]
        for c in walk:
            for col, image in zip(cols, images):
                d = coset[col[reps[c]]]
                if elems[d] is None:
                    elems[d] = elems[c] * image
                    walk.append(d)
        Q = Group(len(reps), images, _skip_degree_check=True, _closure=elems)
        if len(Q.element_set()) != Q.order:
            raise AssertionError("quotient order mismatch")  # pragma: no cover
        # positions in the quotient context's own index, which need not be
        # Q's element order: the context may belong to another tree
        qctx = context_of(Q)
        qpos = qctx._at(elems)
        return qctx, [qpos[c] if c >= 0 else -1 for c in coset]

    def quotient_ctx(self, N: Group) -> "GroupContext":
        """The context of G/N: this one for N = 1."""
        return self if N.order == 1 else self.coset_action(N)[0]

    def quotient_image(self, N: Group, K: Group) -> Group:
        """KN/N as the quotient context's own subgroup object: K's positions
        mapped through the coset action's position map, found in the
        quotient's registry by mask."""
        if N.order == 1:
            return self._subgroup_at(self.positions(K))
        qctx, q = self.coset_action(N)
        return qctx._subgroup_at({q[i] for i in self.positions(K)})

    # ------------------------------------------------------------------
    # chief factors

    @memoized
    def chief_pairs(self) -> tuple[tuple[Group, Group], ...]:
        """All (lower, upper) pairs of normals with upper/lower minimal normal
        in G/lower."""
        normals = [(N, self.mask(N)) for N in self.normal_subgroups()]
        pairs = []
        for K, k in normals:
            for H, h in normals:
                if H.order <= K.order or k & ~h:
                    continue
                if any(m != k and m != h and not k & ~m and not m & ~h
                       for _, m in normals):
                    continue
                pairs.append((K, H))
        return tuple(pairs)

    def _coset_labels(self, L: Group) -> list[int]:
        """label[i] names the right coset L x of the element x at position i
        by its smallest position: the orbits of left multiplication by L's
        generators."""
        rows = [self._index.row(l) for l in self._at(L.generators)]
        label = [-1] * len(self._index.elements)
        for x in self.positions(self.group):
            if label[x] < 0:
                label[x] = x
                orbit = [x]
                for y in orbit:
                    for row in rows:
                        z = row[y]
                        if label[z] < 0:
                            label[z] = x
                            orbit.append(z)
        return label

    @memoized
    def chief_centralizer(self, lower: Group, upper: Group) -> Group:
        """C_G(upper/lower): the elements g of G whose commutator with every
        element of upper lies in lower.  For lower = 1 this is C_G(upper);
        for upper = G, the preimage of Z(G/lower).  Lower must be normal in G:
        then [g, h] lies in lower exactly when lower h g = lower g h, and the
        generators h of upper suffice."""
        if not self.is_normal(lower):
            raise NotNormalError("lower is not a normal subgroup of G")
        label = self._coset_labels(lower)
        index = self._index
        out = self.positions(self.group)
        for h in self._at(upper.generators):
            row, col = index.row(h), index.column(h)
            out = [g for g in out if label[row[g]] == label[col[g]]]
        return self._subgroup_at(out)
