"""Permutation primitives: composition convention, cycles, ordering."""

import pytest
from hypothesis import given, strategies as st

from grouplab.errors import CycleParseError, DegreeMismatchError
from grouplab.perms import Permutation, from_cycles, identity, to_cycles

DEG = 7


def perms(degree=DEG):
    return st.permutations(range(degree)).map(lambda t: Permutation(tuple(t)))


def test_apply_left_first_convention():
    # (p*q)(i) = q(p(i)): p maps 0->1, q maps 1->2, so p*q maps 0->2
    p = from_cycles("(1 2)", 3)
    q = from_cycles("(2 3)", 3)
    assert (p * q)(0) == 2
    assert (q * p)(0) == 1


def test_identity_and_inverse():
    e = identity(5)
    p = from_cycles("(1 2 3)(4 5)", 5)
    assert p * p.inverse() == e
    assert p.inverse() * p == e
    assert e.is_identity() and not p.is_identity()


def test_order():
    assert from_cycles("(1 2 3)(4 5)", 5).order() == 6
    assert identity(4).order() == 1


def test_pow():
    p = from_cycles("(1 2 3 4)", 4)
    assert p ** 4 == identity(4)
    assert p ** -1 == p.inverse()
    assert p ** 0 == identity(4)


def test_cycle_roundtrip_examples():
    for text in ["(1 2)", "(1 2 3)(4 5)", "(2 4 6)"]:
        p = from_cycles(text, 6)
        assert from_cycles(to_cycles(p), 6) == p
    for text in ["()", "()()", "( )"]:
        assert from_cycles(text, 3) == identity(3)


def test_cycle_parse_errors():
    with pytest.raises(CycleParseError):
        from_cycles("(1 2", 4)
    with pytest.raises(CycleParseError):
        from_cycles("(0 1)", 4)  # 1-based notation
    with pytest.raises(CycleParseError):
        from_cycles("(1 9)", 4)  # out of range
    with pytest.raises(CycleParseError):
        from_cycles("(1 1)", 4)  # repeated point
    for text in ["(", "((", ")(", "(()", "())", "( ) )"]:  # unbalanced
        with pytest.raises(CycleParseError):
            from_cycles(text, 4)


def test_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        from_cycles("(1 2)", 3) * from_cycles("(1 2)", 4)


@given(perms(), perms(), perms())
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(perms())
def test_inverse_property(p):
    assert p * p.inverse() == identity(DEG)


@given(perms())
def test_cycle_notation_roundtrip(p):
    assert from_cycles(to_cycles(p), DEG) == p


@given(perms())
def test_order_annihilates(p):
    assert p ** p.order() == identity(DEG)


@given(perms(), perms())
def test_conjugate(p, g):
    assert p.conjugate(g) == g.inverse() * p * g


def test_total_order_and_hash():
    a = Permutation((0, 1, 2))
    b = Permutation((1, 0, 2))
    assert a < b
    assert len({a, Permutation((0, 1, 2)), b}) == 2


def test_immutability():
    p = Permutation((1, 0))
    with pytest.raises(AttributeError):
        p.images = (0, 1)
