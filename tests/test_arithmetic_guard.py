"""The analysis layers decide on the element index: running every theorem
multiplies, inverts and takes orders of permutations only in the door code
that builds or rechecks groups, never in the contexts, encoders or
predicates."""

import sys
from collections import Counter

import pytest

from grouplab.catalog import builtin_group
from grouplab.context import clear_contexts
from grouplab.perms import Permutation
from grouplab.theorems import THEOREM_IDS, params_for, verify_case

# the context builds quotient groups off its Cayley table too
ANALYSIS = ("grouplab.context", "grouplab.structure", "grouplab.formations",
            "grouplab.quasinormal", "grouplab.theorems")
# a call from a comprehension is charged to the function around it
COMPREHENSIONS = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")


@pytest.fixture(autouse=True)
def fresh_contexts():
    clear_contexts()
    yield
    clear_contexts()


@pytest.mark.parametrize("name", [
    "symmetric(4)", "direct(alternating(5),cyclic(2))"])
def test_theorems_make_no_permutation_arithmetic(monkeypatch, name):
    G = builtin_group(name)
    callers = Counter()
    for attr in ("__mul__", "inverse", "order"):
        original = getattr(Permutation, attr)

        def counting(*args, _original=original):
            frame = sys._getframe(1)
            while frame.f_code.co_name in COMPREHENSIONS:
                frame = frame.f_back
            callers[frame.f_globals["__name__"], frame.f_code.co_name] += 1
            return _original(*args)

        monkeypatch.setattr(Permutation, attr, counting)
    for tid in THEOREM_IDS:
        for params in params_for(G, tid):
            assert verify_case(G, tid, params).verdict != "fail", tid
    monkeypatch.undo()
    assert not [c for c in callers if c[0] in ANALYSIS]
