"""Splitting a polynomial along one variable, for the reduction identities.

Criterion 5a shows that a residual is a multiple of a coordinate condition
by exact division; the library itself never needs these.
"""

from spinorlab.poly import Poly


def coefficient_of_var(p, name):
    """Polynomial Q with p = P + Q*name, requiring degree <= 1 in name.

    Raises ValueError if some monomial contains `name` more than once.
    """
    out = {}
    for mono, coeff in p.terms.items():
        count = mono.count(name)
        if count > 1:
            raise ValueError(f"degree in {name} exceeds 1")
        if count == 1:
            reduced = list(mono)
            reduced.remove(name)
            out[tuple(reduced)] = coeff
    return Poly(out)


def without_var(p, name):
    """Part of p whose monomials do not contain `name`."""
    return Poly({m: c for m, c in p.terms.items() if name not in m})


def divide_by_var(p, name):
    """Exact quotient p / name; every monomial must contain `name`."""
    out = {}
    for mono, coeff in p.terms.items():
        if name not in mono:
            raise ValueError(f"monomial {mono} not divisible by {name}")
        reduced = list(mono)
        reduced.remove(name)
        out[tuple(reduced)] = coeff
    return Poly(out)
