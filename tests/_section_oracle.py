"""The section kernels by permutation products: an oracle for the element
index.

These are the routines grouplab ran before it read conjugation, cosets,
quotients, quotient images and preimages off its element index.  Every
element is a ``Permutation`` and every product is computed; they use no
Cayley table, no position and no mask.  Each returns element keys, element
sets or a fresh quotient, so a test can compare it with the kernel's
objects.
"""

from __future__ import annotations

from grouplab.errors import NotNormalError
from grouplab.formations import f_hypercenter
from grouplab.groups import Group, Homomorphism, QuotientResult
from grouplab.perms import Permutation


def subgroup_class_keys(G: Group, subgroups) -> list[list[frozenset]]:
    """The conjugacy classes of `subgroups` (every subgroup of G, sorted by
    order and element key) under G, each as element keys in list order,
    ordered by their first members."""
    rank = {H.key: r for r, H in enumerate(subgroups)}
    seen: set[frozenset] = set()
    classes = []
    for H in subgroups:
        if H.key in seen:
            continue
        orbit = {H.key}
        queue = [H.elements()]
        while queue:
            X = queue.pop()
            for g in G.generators:
                Y = [g.inverse() * x * g for x in X]
                key = frozenset(y.images for y in Y)
                if key not in orbit:
                    orbit.add(key)
                    queue.append(Y)
        seen |= orbit
        classes.append(sorted(orbit, key=rank.__getitem__))
    classes.sort(key=lambda keys: rank[keys[0]])
    return classes


def conjugacy_classes(G: Group) -> list[frozenset]:
    """The element classes of G, in order of their smallest elements."""
    seen = set()
    classes = []
    for e in G.elements():
        if e in seen:
            continue
        orbit = {e}
        queue = [e]
        while queue:
            x = queue.pop()
            for g in G.generators:
                y = g.inverse() * x * g
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        seen |= orbit
        classes.append(frozenset(orbit))
    return classes


def chief_centralizer(G: Group, lower: Group, upper: Group) -> frozenset:
    """The elements g of G with g^-1 h g h^-1 in lower for every generator
    h of upper."""
    lset = lower.element_set()
    return frozenset(
        g for g in G.elements()
        if all(g.inverse() * h * g * h.inverse() in lset
               for h in upper.generators))


def permutes(H: Group, K: Group) -> bool:
    """HK = KH, by comparing the two product sets."""
    hk = {h * k for h in H.elements() for k in K.elements()}
    kh = {k * h for h in H.elements() for k in K.elements()}
    return hk == kh


def product_size(H: Group, K: Group) -> int:
    """|HK| = |H| |K| / |H n K|, from the element sets."""
    inter = H.element_set() & K.element_set()
    return H.order * K.order // len(inter)


def quotient_image_key(hom: Homomorphism, K: Group) -> frozenset:
    """The element key of KN/N, closed from the images of K's generators."""
    return hom.image_of_subgroup(K).key


def hypercenter_preimage(G: Group, qgroup: Group, hom: Homomorphism,
                         formation: str) -> frozenset:
    """The elements of G whose image under hom lies in Z_inf^F(qgroup)."""
    return hom.preimage_elements(f_hypercenter(qgroup, formation))


def coset_quotient(G: Group, N: Group) -> QuotientResult:
    """G/N on the right cosets of N, each formed by products with N and
    named by its smallest element; the quotient is closed from the coset
    permutations of G's generators."""
    nset = N.element_set()
    if not (N.is_subgroup_of(G)
            and all(g.inverse() * n * g in nset
                    for g in G.generators for n in N.generators)):
        raise NotNormalError("N is not a normal subgroup of G")
    coset_of: dict[Permutation, Permutation] = {}
    reps = []
    for e in G.elements():
        if e in coset_of:
            continue
        coset = sorted(n * e for n in nset)
        reps.append(coset[0])
        for c in coset:
            coset_of[c] = coset[0]
    reps.sort()
    index_of = {rep: i for i, rep in enumerate(reps)}
    images = [Permutation(tuple(index_of[coset_of[rep * g]] for rep in reps))
              for g in G.generators]
    qgroup = Group(len(reps), images, _skip_degree_check=True)
    if qgroup.order * N.order != G.order:
        raise AssertionError("quotient order mismatch")
    return QuotientResult(qgroup, Homomorphism(G, qgroup, images))
