"""The subgroup lattice by tuple-permutation joins: an oracle for the
element index.

This is the lattice algorithm grouplab ran before its element index:
cyclic subgroups found by multiplying permutations, then every join
<H, C> of a found subgroup H with a cyclic subgroup C closed by a BFS over
generator products from the identity (``groups.closure``).  It uses no
Cayley table, no mask and no registry, and no class or coset reduction:
it joins every found subgroup with every cyclic subgroup.

``one_element_extension_keys`` is another algorithm again: from the trivial
group, <H, g> for every found H and every element g, closed the same way.
It has no seeds, so it does not rest on the subgroups being generated by
their cyclic or zuppo subgroups.

``maximal_subgroups_of`` is the pairwise scan the context ran before its
greedy one: a proper subgroup of K is maximal unless it lies strictly
inside another.
"""

from __future__ import annotations

from grouplab.context import GroupContext
from grouplab.groups import Group, closure
from grouplab.perms import identity


def oracle_subgroup_keys(G: Group) -> set[frozenset]:
    """The element key of every subgroup of G."""
    degree = G.degree
    ident = identity(degree)
    seeds = {frozenset((ident.images,)): []}
    for e in G.elements():
        if e.is_identity():
            continue
        powers = {ident.images, e.images}
        x = e * e
        while x.images not in powers:
            powers.add(x.images)
            x = x * e
        seeds.setdefault(frozenset(powers), [e])
    found = dict(seeds)
    worklist = list(seeds.items())
    while worklist:
        hkey, hgens = worklist.pop()
        for ckey, cgens in seeds.items():
            if ckey <= hkey:
                continue
            gens = hgens + cgens
            jkey = frozenset(p.images for p in closure(degree, gens))
            if jkey not in found:
                found[jkey] = gens
                worklist.append((jkey, gens))
    return set(found)


def one_element_extension_keys(G: Group) -> set[frozenset]:
    """The element key of every subgroup of G, each found as <H, g>."""
    degree = G.degree
    trivial = frozenset((identity(degree).images,))
    found = {trivial: []}
    worklist = [(trivial, [])]
    while worklist:
        hkey, hgens = worklist.pop()
        for g in G.elements():
            if g.images in hkey:
                continue
            gens = hgens + [g]
            jkey = frozenset(p.images for p in closure(degree, gens))
            if jkey not in found:
                found[jkey] = gens
                worklist.append((jkey, gens))
    return set(found)


def maximal_subgroups_of(ctx: GroupContext, K: Group) -> tuple[Group, ...]:
    """Maximal proper subgroups of K, in the ambient lattice's order."""
    subs = [H for H in ctx.subgroups_of(K) if H.order < K.order]
    return tuple(H for H in subs
                 if not any(H.order < M.order and ctx.le(H, M)
                            for M in subs))
