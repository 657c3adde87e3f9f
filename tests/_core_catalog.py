"""The builtin names of the shipped core catalog, and its text format: the
tests regenerate ``data/core.catalog`` from these and compare."""

from __future__ import annotations

from typing import Sequence

from grouplab.catalog import builtin_group
from grouplab.groups import Group
from grouplab.perms import to_cycles


def format_catalog(named_groups: Sequence[tuple[str, Group]]) -> str:
    out = ["# grouplab core catalog (generated from builtin constructors)", ""]
    for name, G in named_groups:
        out.append(f"group {name}")
        out.append(f"degree {G.degree}")
        for g in G.generators:
            out.append(f"gen {to_cycles(g)}")
        out.append(f"order {G.order}")
        out.append("end")
        out.append("")
    return "\n".join(out)


# every group of order <= 24 appears, plus the larger exercise set
CORE_GROUP_NAMES: tuple[str, ...] = (
    # orders 1..15
    "trivial",
    "cyclic(2)", "cyclic(3)",
    "cyclic(4)", "elementary_abelian(2,2)",
    "cyclic(5)",
    "cyclic(6)", "symmetric(3)",
    "cyclic(7)",
    "cyclic(8)", "direct(cyclic(4),cyclic(2))", "elementary_abelian(2,3)",
    "dihedral(4)", "dicyclic(2)",
    "cyclic(9)", "elementary_abelian(3,2)",
    "cyclic(10)", "dihedral(5)",
    "cyclic(11)",
    "cyclic(12)", "direct(cyclic(6),cyclic(2))", "dihedral(6)",
    "alternating(4)", "dicyclic(3)",
    "cyclic(13)",
    "cyclic(14)", "dihedral(7)",
    "cyclic(15)",
    # order 16 (all 14)
    "cyclic(16)", "direct(cyclic(4),cyclic(4))", "v4_rtimes_c4",
    "metacyclic(4,4,3)", "direct(cyclic(8),cyclic(2))", "metacyclic(8,2,5)",
    "dihedral(8)", "metacyclic(8,2,3)", "dicyclic(4)",
    "direct(cyclic(4),elementary_abelian(2,2))",
    "direct(dihedral(4),cyclic(2))", "direct(dicyclic(2),cyclic(2))",
    "pauli16", "elementary_abelian(2,4)",
    # orders 17..23
    "cyclic(17)",
    "cyclic(18)", "direct(cyclic(3),cyclic(6))", "dihedral(9)",
    "direct(symmetric(3),cyclic(3))", "gendihedral(3,3)",
    "cyclic(19)",
    "cyclic(20)", "direct(cyclic(10),cyclic(2))", "dihedral(10)",
    "dicyclic(5)", "metacyclic(5,4,2)",
    "cyclic(21)", "metacyclic(7,3,2)",
    "cyclic(22)", "dihedral(11)",
    "cyclic(23)",
    # order 24 (all 15)
    "metacyclic(3,8,2)", "cyclic(24)", "SL(2,3)", "dicyclic(6)",
    "direct(cyclic(4),symmetric(3))", "dihedral(12)",
    "direct(cyclic(2),dicyclic(3))", "c3xv4_rtimes_c2",
    "direct(cyclic(12),cyclic(2))", "direct(cyclic(3),dihedral(4))",
    "direct(cyclic(3),dicyclic(2))", "symmetric(4)",
    "direct(cyclic(2),alternating(4))",
    "direct(elementary_abelian(2,2),symmetric(3))",
    "direct(cyclic(6),elementary_abelian(2,2))",
    # larger soluble groups
    "cyclic(25)", "elementary_abelian(5,2)",
    "cyclic(27)", "elementary_abelian(3,3)", "heisenberg(3)",
    "metacyclic(9,3,4)",
    "dihedral(15)",
    "dihedral(16)", "dicyclic(8)",
    "direct(alternating(4),cyclic(3))",
    "metacyclic(5,8,2)",
    "metacyclic(7,6,3)",
    "direct(symmetric(4),cyclic(2))",
    "dihedral(25)",
    "metacyclic(13,4,5)",
    "metacyclic(11,5,3)",
    "dihedral(32)",
    "cyclic(100)",
    "cyclic(210)",
    "cyclic(360)",
    # nonsoluble groups
    "alternating(5)",
    "symmetric(5)",
    "SL(2,5)",
    "direct(alternating(5),cyclic(2))",
    "direct(cyclic(3),alternating(5))",
)


def build_core_entries() -> tuple[tuple[str, Group], ...]:
    return tuple((name, builtin_group(name)) for name in CORE_GROUP_NAMES)
