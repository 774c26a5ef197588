"""Sparse multivariate polynomials over Fraction, for symbolic identities.

A monomial is a sorted tuple of variable names (repetition = power), the
zero polynomial is the empty term map.  Just enough arithmetic for the
entries of the symbolic point matrix, their evaluation, and the entry of
Xi^2 that a failed square check reports; no simplification beyond exact
cancellation is ever needed because all the identities in this package
are polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

Rational = Union[int, Fraction]
Monomial = tuple[str, ...]


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Rational] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c:
                    clean[tuple(sorted(mono))] = clean.get(tuple(sorted(mono)), Fraction(0)) + c
        self.terms = {m: c for m, c in clean.items() if c}

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, value: Rational) -> "Poly":
        return cls({(): value})

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls({(name,): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + coeff
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) - coeff
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: Union["Poly", Rational]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly({m: c * other for m, c in self.terms.items()})
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return Poly(out)

    def __rmul__(self, other: Rational) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def evaluate(self, values: Mapping[str, Rational]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            acc = coeff
            for name in mono:
                acc *= Fraction(values[name])
            total += acc
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            body = "*".join(mono) if mono else "1"
            parts.append(f"{c}*{body}")
        return " + ".join(parts)
