"""Subgroup lattices: enumeration up to conjugacy, Sylow/Hall subgroups,
maximal and n-maximal subgroups, cores, subnormality and named normal
subgroups (O_p, O_pi', O^p, Phi, F, socle)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .context import context_of, subgroup_sort_key
from .errors import BoundExceededError
from .groups import Group, MAX_ORDER

__all__ = [
    "SubgroupClass",
    "SubgroupLattice",
    "enumerate_subgroups",
    "normal_subgroups",
    "maximal_subgroups",
    "n_maximal",
    "sylow",
    "sylow_all",
    "hall",
    "named_subgroup",
    "core",
    "is_subnormal",
    "SubnormalResult",
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
    """The complete subgroup lattice, grouped into conjugacy classes."""
    if G.order > MAX_ORDER:
        raise BoundExceededError(f"order {G.order} exceeds desk bound {MAX_ORDER}")
    ctx = context_of(G)
    classes = []
    for members in ctx.subgroup_classes():
        classes.append(SubgroupClass(
            representative=members[0],
            members=members,
            is_normal=len(members) == 1 and ctx.is_normal(members[0]),
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


def n_maximal(H: Group, n: int, ambient: Optional[Group] = None) -> tuple[Group, ...]:
    ctx = context_of(ambient if ambient is not None else H)
    return ctx.n_maximal_subgroups_of(H, n)


def sylow(G: Group, p: int) -> Group:
    return context_of(G).sylow(p)


def sylow_all(G: Group, p: int) -> tuple[Group, ...]:
    return context_of(G).sylow_all(p)


def hall(G: Group, pi) -> tuple[Optional[Group], bool]:
    """A Hall pi-subgroup if one exists, plus whether all of them are conjugate."""
    return context_of(G).hall(pi)


def core(G: Group, H: Group) -> Group:
    return context_of(G).core(H)


@dataclass(frozen=True)
class SubnormalResult:
    flag: bool
    defect: int


def is_subnormal(G: Group, H: Group) -> SubnormalResult:
    flag, defect = context_of(G).is_subnormal(H)
    return SubnormalResult(flag, defect)


def named_subgroup(G: Group, kind: str, p: Optional[int] = None,
                   pi=None) -> Group:
    """center | frattini | fitting | socle | O_p | O_pi_prime | O_upper_p |
    layer | generalized_fitting."""
    ctx = context_of(G)
    if kind == "center":
        return ctx.center()
    if kind == "frattini":
        return ctx.frattini()
    if kind == "fitting":
        return ctx.fitting()
    if kind == "socle":
        return ctx.socle()
    if kind == "O_p":
        return ctx.O_p(p)
    if kind == "O_pi_prime":
        return ctx.O_pi_prime(pi)
    if kind == "O_upper_p":
        return ctx.O_upper_p(p)
    if kind == "layer":
        from .structure import layer
        return layer(G)
    if kind == "generalized_fitting":
        from .structure import generalized_fitting
        return generalized_fitting(G)
    raise ValueError(f"unknown named subgroup kind: {kind!r}")
