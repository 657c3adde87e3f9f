"""Shared per-group analysis state.

Everything downstream (lattice, structural predicates, formations,
quasinormality, theorem encodings) works through a :class:`GroupContext`,
which memoizes the expensive objects: element conjugacy classes, the normal
subgroup list, the full subgroup lattice, Sylow classes, quotients and
per-subgroup predicates.  Every such value lives in the context's one memo
table, :meth:`GroupContext.memo`.  Contexts are created once per group and
shared; all contained data is immutable after computation.

Subgroups live in one registry per ambient group.  A root context, one made
for a group that no registry produced, owns a registry that holds one
:class:`Group` object per element set.  Every subgroup built in the root's
tree goes into it, and ``context_of(H)`` for such a subgroup returns a
context in the same tree: it shares the root's registry and reads its
lattice off the root's.  No linking call is needed.  Quotient groups are
built outside any registry, so each quotient context is a root of its own.

Each root also owns the element index of its group
(:class:`~grouplab.cayley.ElementIndex`): every context in the tree closes
subgroups on that index, as int masks, and the registry is keyed by mask.
"""

from __future__ import annotations

from functools import wraps
from typing import Callable, Optional, TypeVar

from .cayley import ElementIndex
from .groups import (Group, Homomorphism, is_normal_in, quotient,
                     require_subgroup)
from .perms import Permutation
from .primes import p_part, prime_divisors, require_prime

T = TypeVar("T")
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


def subgroup_sort_key(H: Group) -> tuple:
    return (H.order, tuple(p.images for p in H.elements()))


def _memoized(method):
    """Memoize a GroupContext method: one without arguments in the "named"
    table under its own name, one of a subgroup H in the table named after
    the method under H.key."""
    name = method.__name__

    @wraps(method)
    def wrapper(self, *args):
        if not args:
            return self.memo("named", name, lambda: method(self))
        H, = args
        return self.memo(name, H.key, lambda: method(self, H))

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
            self._registry: dict[int, Group] = {(1 << G.order) - 1: G}
        else:
            self._index = root._index
            self._registry = root._registry
        # table name -> key -> value; tables are created on first use
        self._memo: dict[str, dict] = {}

    def memo(self, table: str, key, compute: Callable[[], T]) -> T:
        """The value under `key` in `table`, from `compute()` on first use."""
        entries = self._memo.get(table)
        if entries is None:
            entries = self._memo[table] = {}
        value = entries.get(key, _MISSING)
        if value is _MISSING:
            value = entries[key] = compute()
        return value

    # ------------------------------------------------------------------
    # subgroup registry

    def generated(self, elements) -> Group:
        """The tree's one Group object for the subgroup generated by these
        elements of the ambient."""
        _, elems, mask = self._index.close(map(self._index.position, elements))
        return self._group(mask, elems)

    # a closed element set generates itself
    subgroup = generated

    def _group(self, mask: int, elems: list[int]) -> Group:
        """The tree's Group for the subgroup with this mask and element
        positions, built on first use with its greedy generators."""
        H = self._registry.get(mask)
        if H is None:
            at = self._index.elements
            H = self._registry[mask] = Group(
                self.group.degree,
                [at[i] for i in self._index.close(sorted(elems))[0]],
                _skip_degree_check=True, _closure=[at[i] for i in elems])
            _ROOTS.setdefault((H.degree, H.key), self._root or self)
        return H

    def trivial_subgroup(self) -> Group:
        return self._group(1, [0])

    # ------------------------------------------------------------------
    # conjugacy classes of elements

    @_memoized
    def conjugacy_classes(self) -> tuple[frozenset, ...]:
        gens = self.group.generators
        seen: set[Permutation] = set()
        classes = []
        for e in self.group.elements():
            if e in seen:
                continue
            orbit = {e}
            queue = [e]
            while queue:
                x = queue.pop()
                for g in gens:
                    y = g.inverse() * x * g
                    if y not in orbit:
                        orbit.add(y)
                        queue.append(y)
            seen |= orbit
            classes.append(frozenset(orbit))
        return tuple(classes)

    # ------------------------------------------------------------------
    # normal subgroups

    def normal_closure_in(self, K: Group, H: Group) -> Group:
        """Normal closure of H inside the subgroup K (both within the ambient)."""
        position = self._index.position
        gens, elems, mask = self._index.close(map(position, H.generators))
        at = self._index.elements
        changed = True
        while changed:
            changed = False
            for s in [at[i] for i in gens]:
                for k in K.generators:
                    c = position(k.inverse() * s * k)
                    if not mask >> c & 1:
                        gens.append(c)
                        elems, mask = self._index.extend(elems, mask, gens)
                        changed = True
        return self._group(mask, elems)

    @_memoized
    def normal_subgroups(self) -> tuple[Group, ...]:
        """All normal subgroups, sorted by (order, element key)."""
        gens = self.group.generators
        if all(a * b == b * a for a in gens for b in gens):
            # abelian: every subgroup is normal
            return self.all_subgroups()
        classes = sorted(self.conjugacy_classes(),
                         key=lambda c: (len(c), min(p.images for p in c)))
        triv = self.trivial_subgroup()
        found: dict[frozenset, Group] = {triv.key: triv}
        worklist = [triv]
        while worklist:
            N = worklist.pop()
            nset = N.element_set()
            for cls in classes:
                if cls <= nset:
                    continue
                # <N u cls> = <N.generators u cls>; keep the generating
                # set small, as each coset of the closure tries every one
                M = self.generated(tuple(N.generators) + tuple(sorted(cls)))
                if M.key not in found:
                    found[M.key] = M
                    worklist.append(M)
        return tuple(sorted(found.values(), key=subgroup_sort_key))

    def minimal_normal_subgroups(self) -> tuple[Group, ...]:
        normals = [N for N in self.normal_subgroups() if N.order > 1]
        return tuple(N for N in normals
                     if not any(M.key < N.key for M in normals))

    def is_normal(self, H: Group) -> bool:
        return is_normal_in(H, self.group)

    # ------------------------------------------------------------------
    # the full subgroup lattice

    @_memoized
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
                       for mask, elems in self._index.subgroups().items())
        subgroups = tuple(self._group(mask, elems) for _, elems, mask in found)
        if _cache.enabled():
            _cache.store_lattice(self.group, subgroups)
        return subgroups

    @_memoized
    def subgroup_classes(self) -> tuple[tuple[Group, ...], ...]:
        """Conjugacy classes of subgroups, deterministically ordered."""
        all_subs = {H.key: H for H in self.all_subgroups()}
        seen: set[frozenset] = set()
        classes = []
        for H in self.all_subgroups():
            if H.key in seen:
                continue
            orbit = {H.key}
            queue = [H]
            while queue:
                X = queue.pop()
                for g in self.group.generators:
                    Y = frozenset((g.inverse() * x * g).images
                                  for x in X.elements())
                    if Y not in orbit:
                        orbit.add(Y)
                        queue.append(all_subs[Y])
            seen |= orbit
            members = tuple(sorted((all_subs[k] for k in orbit),
                                   key=subgroup_sort_key))
            classes.append(members)
        classes.sort(key=lambda ms: subgroup_sort_key(ms[0]))
        return tuple(classes)

    def subgroups_of(self, K: Group) -> tuple[Group, ...]:
        kset = K.element_set()
        return tuple(H for H in self.all_subgroups()
                     if H.element_set() <= kset)

    @_memoized
    def maximal_subgroups_of(self, K: Group) -> tuple[Group, ...]:
        """Maximal proper subgroups of K, read off the ambient lattice."""
        subs = [H for H in self.subgroups_of(K) if H.order < K.order]
        maximals = []
        for H in subs:
            hset = H.element_set()
            if not any(M.order > H.order and hset < M.element_set()
                       for M in subs):
                maximals.append(H)
        return tuple(maximals)

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

    @_memoized
    def center(self) -> Group:
        return self.chief_centralizer(self.trivial_subgroup(), self.group)

    @_memoized
    def frattini(self) -> Group:
        maxima = self.maximal_subgroups_of(self.group)
        if not maxima:
            return self.group
        inter = frozenset(self.group.elements())
        for M in maxima:
            inter &= M.element_set()
        return self.subgroup(inter)

    def O_p(self, p: int) -> Group:
        # a normal subgroup of order 1 counts as a p-group here
        return self.memo("named", ("O_p", p), lambda: self._largest_normal(
            lambda n: p_part(n, p) == n))

    def O_pi_prime(self, pi) -> Group:
        pi = frozenset(pi)
        return self.memo("named", ("O_pi_prime", tuple(sorted(pi))),
                         lambda: self._largest_normal(lambda n: all(
                             q not in pi for q in prime_divisors(n))))

    def O_pi(self, pi) -> Group:
        """Largest normal pi-subgroup."""
        pi = frozenset(pi)
        return self.memo("named", ("O_pi", tuple(sorted(pi))),
                         lambda: self._largest_normal(lambda n: all(
                             q in pi for q in prime_divisors(n))))

    def _largest_normal(self, order_ok: Callable[[int], bool]) -> Group:
        """The first largest normal subgroup whose order passes order_ok."""
        best = self.trivial_subgroup()
        for N in self.normal_subgroups():
            if order_ok(N.order) and N.order > best.order:
                best = N
        return best

    def O_upper_p(self, p: int) -> Group:
        """Smallest normal subgroup with p-group quotient: <all p'-elements>."""
        return self.memo("named", ("O_upper_p", p), lambda: self.generated(
            [e for e in self.group.elements() if e.order() % p != 0]))

    @_memoized
    def fitting(self) -> Group:
        gens: list[Permutation] = []
        for p in self.primes():
            gens.extend(self.O_p(p).generators)
        return self.generated(gens) if gens else self.trivial_subgroup()

    @_memoized
    def socle(self) -> Group:
        gens: list[Permutation] = []
        for N in self.minimal_normal_subgroups():
            gens.extend(N.generators)
        return self.generated(gens) if gens else self.trivial_subgroup()

    # ------------------------------------------------------------------
    # core and subnormality

    @_memoized
    def core(self, H: Group) -> Group:
        """Largest subgroup of H normal in the ambient group."""
        require_subgroup(H, self.group)
        hset = H.element_set()
        best = self.trivial_subgroup()
        for N in self.normal_subgroups():
            if N.order > best.order and N.element_set() <= hset:
                best = N
        return best

    @_memoized
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

    def quotient_ctx(self, N: Group) -> tuple["GroupContext", Homomorphism]:
        if N.order > 1:
            return self._quotient_ctx(N)
        # G/1 is G: no coset action.  Memoizing only the homomorphism keeps
        # the context free of references to itself
        return self, self.memo("named", "identity_hom", lambda: Homomorphism(
            self.group, self.group, self.group.generators,
            {e: e for e in self.group.elements()}))

    @_memoized
    def _quotient_ctx(self, N: Group) -> tuple["GroupContext", Homomorphism]:
        res = quotient(self.group, N)
        return context_of(res.group), res.epimorphism

    def quotient_image(self, N: Group, K: Group) -> Group:
        """KN/N as the quotient context's own subgroup object, so an image
        already in its registry costs no closure."""
        qctx, hom = self.quotient_ctx(N)
        return qctx.subgroup({hom(k) for k in K.elements()})

    # ------------------------------------------------------------------
    # chief factors

    @_memoized
    def chief_pairs(self) -> tuple[tuple[Group, Group], ...]:
        """All (lower, upper) pairs of normals with upper/lower minimal normal
        in G/lower."""
        normals = self.normal_subgroups()
        sets = {N.key: N.element_set() for N in normals}
        pairs = []
        for K in normals:
            for H in normals:
                if H.order <= K.order or not sets[K.key] < sets[H.key]:
                    continue
                if any(L.key != K.key and L.key != H.key
                       and sets[K.key] < sets[L.key] < sets[H.key]
                       for L in normals):
                    continue
                pairs.append((K, H))
        return tuple(pairs)

    def chief_centralizer(self, lower: Group, upper: Group) -> Group:
        """C_G(upper/lower): the elements of G whose commutator with every
        element of upper lies in lower.  For lower = 1 this is C_G(upper);
        for upper = G and lower normal, the preimage of Z(G/lower)."""
        lset = lower.element_set()
        out = []
        for g in self.group.elements():
            ginv = g.inverse()
            if all((ginv * h * g) * h.inverse() in lset for h in upper.generators):
                out.append(g)
        return self.subgroup(out)
