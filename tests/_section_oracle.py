"""The section kernels by permutation products: an oracle for the element
index.

These are the routines grouplab ran before it read conjugation, cosets,
quotient images and preimages off its element index.  Every element is a
``Permutation`` and every product is computed; they use no Cayley table,
no position and no mask.  Each returns element keys or element sets, so a
test can compare it with the kernel's registry objects.
"""

from __future__ import annotations

from grouplab.formations import f_hypercenter
from grouplab.groups import Group, Homomorphism


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
