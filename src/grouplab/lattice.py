"""Subgroup lattices: enumeration up to conjugacy, normal, maximal, Sylow and
Hall subgroups.  Cores, subnormality, n-maximal subgroups and named normal
subgroups are :class:`~grouplab.context.GroupContext` methods; the layer and
F* are in :mod:`grouplab.structure`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .context import context_of, subgroup_sort_key
from .groups import Group

__all__ = [
    "SubgroupClass",
    "SubgroupLattice",
    "enumerate_subgroups",
    "normal_subgroups",
    "maximal_subgroups",
    "sylow",
    "sylow_all",
    "hall",
]


@dataclass(frozen=True)
class SubgroupClass:
    representative: Group
    members: tuple[Group, ...]
    is_normal: bool
    order: int


@dataclass(frozen=True)
class SubgroupLattice:
    ambient: Group
    classes: tuple[SubgroupClass, ...]

    @property
    def subgroup_count(self) -> int:
        return sum(len(c.members) for c in self.classes)

    def all_subgroups(self) -> tuple[Group, ...]:
        return tuple(sorted((m for c in self.classes for m in c.members),
                            key=subgroup_sort_key))


def enumerate_subgroups(G: Group) -> SubgroupLattice:
    """The complete subgroup lattice, grouped into conjugacy classes; a
    subgroup is normal exactly when its class is itself."""
    classes = []
    for members in context_of(G).subgroup_classes():
        classes.append(SubgroupClass(
            representative=members[0],
            members=members,
            is_normal=len(members) == 1,
            order=members[0].order,
        ))
    return SubgroupLattice(ambient=G, classes=tuple(classes))


def normal_subgroups(G: Group, minimal_only: bool = False) -> tuple[Group, ...]:
    ctx = context_of(G)
    if minimal_only:
        return ctx.minimal_normal_subgroups()
    return ctx.normal_subgroups()


def maximal_subgroups(H: Group, ambient: Optional[Group] = None) -> tuple[Group, ...]:
    """Maximal subgroups of H (read off the lattice of the ambient, which
    defaults to H itself)."""
    ctx = context_of(ambient if ambient is not None else H)
    return ctx.maximal_subgroups_of(H)


def sylow(G: Group, p: int) -> Group:
    return context_of(G).sylow(p)


def sylow_all(G: Group, p: int) -> tuple[Group, ...]:
    return context_of(G).sylow_all(p)


def hall(G: Group, pi) -> tuple[Optional[Group], bool]:
    """A Hall pi-subgroup if one exists, plus whether all of them are conjugate."""
    return context_of(G).hall(pi)

