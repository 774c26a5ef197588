"""Sparse polynomial helper."""

from fractions import Fraction

import pytest

from spinorlab.poly import Poly

from polyparts import coefficient_of_var, divide_by_var, without_var


def test_arithmetic_and_evaluation():
    x, y = Poly.var("x"), Poly.var("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.evaluate({"x": Fraction(3), "y": Fraction(2)}) == 5
    assert (p - p).is_zero()
    assert Poly.const(0).is_zero()


def test_scalar_multiplication():
    x = Poly.var("x")
    assert 2 * x == x + x
    assert (x * Fraction(1, 2)).evaluate({"x": 4}) == 2


def test_linear_split_and_division():
    a, b, c = Poly.var("a"), Poly.var("b"), Poly.var("c")
    p = a * b + c * Fraction(3)
    assert coefficient_of_var(p, "a") == b
    assert without_var(p, "a") == 3 * c
    assert divide_by_var(a * b + a * c, "a") == b + c
    with pytest.raises(ValueError):
        coefficient_of_var(a * a, "a")
    with pytest.raises(ValueError):
        divide_by_var(a + b, "a")
