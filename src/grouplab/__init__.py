"""Finite permutation-group engine with a theorem-verification harness.

Deterministic, desk-scale computations (order <= 1000, degree <= 64, at most
2500 subgroups in a lattice): enumerated element sets, subgroup lattices,
structural predicates, saturated formations (nilpotent / supersoluble /
soluble), hypercenters, subgroup permutability, and batch verification over
a group catalog.
"""

from .catalog import builtin_group, core_catalog_path, load_catalog
from .errors import (
    BoundExceededError,
    CacheError,
    CatalogError,
    GroupLabError,
)
from .formations import f_hypercenter, f_residual, in_formation, is_f_central
from .groups import (
    Group,
    Homomorphism,
    direct_product,
    quotient,
    semidirect_product,
    set_product,
)
from .harness import run_suite, select_theorems
from .lattice import (
    enumerate_subgroups,
    hall,
    maximal_subgroups,
    normal_subgroups,
    sylow,
    sylow_all,
)
from .perms import Permutation, from_cycles, to_cycles
from .quasinormal import (
    Verdict,
    has_f_supplement,
    is_fs_quasinormal,
    is_s_permutable,
)
from .structure import chief_factors, predicate, series
from .theorems import THEOREM_IDS, params_for, verify_case

__version__ = "0.1.0"

__all__ = [
    "BoundExceededError", "CacheError", "CatalogError", "GroupLabError",
    "Group", "Homomorphism", "Permutation", "Verdict",
    "builtin_group", "chief_factors", "core_catalog_path", "direct_product",
    "enumerate_subgroups", "f_hypercenter", "f_residual", "from_cycles",
    "hall", "has_f_supplement", "in_formation", "is_f_central",
    "is_fs_quasinormal", "is_s_permutable", "load_catalog",
    "maximal_subgroups", "normal_subgroups", "params_for", "predicate",
    "quotient", "run_suite", "select_theorems", "semidirect_product",
    "series", "set_product", "sylow", "sylow_all", "THEOREM_IDS",
    "to_cycles", "verify_case",
]
