"""The Cayley table by permutation products: an oracle for the element
index.

This is how grouplab filled its table before the index composed it from
the generator columns: every column mapped element by element through the
image tuples of two permutations.  It uses no Cayley-graph walk and no other
column.
"""

from __future__ import annotations

from typing import Sequence

from grouplab.perms import Permutation


def permutation_table(elements: Sequence[Permutation]) -> list[list[int]]:
    """table[j][i] is the position of elements[i] * elements[j]."""
    position = {e.images: i for i, e in enumerate(elements)}
    return [[position[tuple(map(g.images.__getitem__, e.images))]
             for e in elements] for g in elements]
