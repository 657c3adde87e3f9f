"""Tour: build groups, inspect lattices, series, and named subgroups.

Run:  python3 demos/tour_structure.py
"""

from grouplab import (
    builtin_group,
    enumerate_subgroups,
    hall,
    maximal_subgroups,
    normal_subgroups,
    series,
    sylow,
    sylow_all,
)
from grouplab.context import context_of
from grouplab.structure import generalized_fitting

S4 = builtin_group("symmetric(4)")
print(f"S4: order {S4.order} on {S4.degree} points")

lat = enumerate_subgroups(S4)
print(f"  {lat.subgroup_count} subgroups in {len(lat.classes)} classes")
print("  normal subgroup orders:",
      [N.order for N in normal_subgroups(S4)])
print("  Sylow 2-subgroup order:", sylow(S4, 2).order,
      f"({len(sylow_all(S4, 2))} conjugates)")
ctx = context_of(S4)
print("  Fitting:", ctx.fitting().order,
      " Frattini:", ctx.frattini().order,
      " F*:", generalized_fitting(S4).order)
print("  derived series orders:",
      [t.order for t in series(S4, "derived").chain])
print("  chief series orders:",
      [t.order for t in series(S4, "chief").chain])

A5 = builtin_group("alternating(5)")
H, single = hall(A5, {2, 3})
print(f"\nA5: Hall {{2,3}}-subgroup of order {H.order} exists")
H2, _ = hall(A5, {3, 5})
print("A5: Hall {3,5}-subgroup exists:", H2 is not None)

Q8 = builtin_group("dicyclic(2)")
print(f"\nQ8: maximal subgroup orders "
      f"{[M.order for M in maximal_subgroups(Q8)]}; "
      f"order-2 subgroups: "
      f"{sum(1 for s in enumerate_subgroups(Q8).all_subgroups() if s.order == 2)}"
      f" (unique minimal subgroup)")
