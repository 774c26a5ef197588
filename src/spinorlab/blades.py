"""Exact real Clifford algebra arithmetic over bitmask-indexed basis blades.

A basis blade e_{i1...ik} with 1 <= i1 < ... < ik <= p+q is encoded as the
integer mask with bit i-1 set for every factor e_i; the scalar blade is
mask 0.  An element holds its coefficients in one reduced integer form:
a numerator per blade over one positive scale, the lcm of the
coefficients' denominators, so every algebraic identity in this package
is decided exactly, and in integers.  Sums, products, scaling, reversion
and projection work on the numerators; a ``fractions.Fraction`` is formed
only where a coefficient is read.  Floating point exists only as a
presentation mode at the CLI layer.

Generator relations: e_i e_j = -e_j e_i for i != j and e_i**2 = sigma(i),
where sigma is fixed by the :class:`Signature` and its ordering convention
("plain": the p generators squaring to +1 come first; "interleaved": signs
alternate +,-,+,-,... while both kinds remain, then the leftover kind).

All values are immutable after construction and all operations are pure,
so everything here is safe to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import InvariantViolation
from .linalg import _cleared, _reduced, solve_unique

Rational = Union[int, Fraction]

PLAIN = "plain"
INTERLEAVED = "interleaved"

#: Largest supported number of generators.
MAX_DIM = 16

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Signature:
    """Quadratic-space context: p generators square to +1, q to -1."""

    p: int
    q: int
    ordering: str = PLAIN

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError(f"signature counts must be non-negative, got ({self.p},{self.q})")
        if self.p + self.q > MAX_DIM:
            raise ValueError(f"at most {MAX_DIM} generators supported, got {self.p + self.q}")
        if self.ordering not in (PLAIN, INTERLEAVED):
            raise ValueError(f"unknown ordering {self.ordering!r}")

    @property
    def dim(self) -> int:
        """Number of generators p+q."""
        return self.p + self.q

    def sigma(self, i: int) -> int:
        """Sign of e_i**2 for a 1-based generator index."""
        if not 1 <= i <= self.dim:
            raise ValueError(f"generator index {i} outside 1..{self.dim}")
        return _sigma_tuple(self.p, self.q, self.ordering)[i - 1]

    def sigmas(self) -> tuple[int, ...]:
        """All generator squares, indexed by i-1."""
        return _sigma_tuple(self.p, self.q, self.ordering)


@lru_cache(maxsize=None)
def _sigma_tuple(p: int, q: int, ordering: str) -> tuple[int, ...]:
    if ordering == PLAIN:
        return (1,) * p + (-1,) * q
    # interleaved: alternate starting with +1 while both kinds remain,
    # then append whichever kind is left over
    m = min(p, q)
    head = (1, -1) * m
    tail = (1,) * (p - m) + (-1,) * (q - m)
    return head + tail


@lru_cache(maxsize=None)
def _negative_mask(p: int, q: int, ordering: str) -> int:
    """Mask of the generators that square to -1."""
    return sum(1 << i for i, sigma in enumerate(_sigma_tuple(p, q, ordering)) if sigma < 0)


def blade_grade(mask: int) -> int:
    """Number of generator factors in a blade."""
    return mask.bit_count()


def blade_indices(mask: int) -> tuple[int, ...]:
    """Ascending 1-based generator indices of a blade, one step per index."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def mask_from_indices(indices: Iterable[int]) -> int:
    """Blade mask from distinct 1-based generator indices."""
    mask = 0
    for i in indices:
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated generator index {i}")
        mask |= bit
    return mask


def blade_product(b1: int, b2: int, sig: Signature) -> tuple[int, int]:
    """Product of two basis blades: ``(sign, result_mask)``.

    The result mask is the XOR of the factor masks; the sign is (-1) to the
    number of transpositions needed to interleave the factors into canonical
    ascending order, times sigma(i) for every index present in both blades.
    Only parities matter, so the sign is one popcount of b2 against
    :func:`_sign_mask` (a suffix XOR over at most MAX_DIM bits).
    """
    dim = sig.p + sig.q
    if b1 >> dim or b2 >> dim:
        raise ValueError("blade mask outside the algebra's generators")
    negative = _negative_mask(sig.p, sig.q, sig.ordering) if b1 & b2 else 0
    flips = _sign_mask(b1, negative) & b2
    return -1 if flips.bit_count() & 1 else 1, b1 ^ b2


def _sign_mask(b1: int, negative: int) -> int:
    """The mask whose overlap with b2 has the parity of the sign of b1 b2:
    bit j of ``above`` is the parity of the factors of b1 above position j,
    and ``common`` marks the factors of b1 that square to -1, which count
    where b2 shares them.  Both parities add under XOR."""
    above = b1 >> 1
    above ^= above >> 1
    above ^= above >> 2
    above ^= above >> 4
    above ^= above >> 8
    common = b1 & negative
    return above ^ common


def _numerator_product(
    left: Iterable[tuple[int, int]], right: Sequence[tuple[int, int]], sig: Signature
) -> dict[int, int]:
    """Product of two (mask, integer numerator) term lists, by result blade
    in first-reached order; entries that cancel stay, as 0.  The masks are
    valid by construction, so the sign is read as in :func:`blade_product`,
    with the negative mask looked up once and the sign mask of each left
    term formed once."""
    out: dict[int, int] = {}
    negative = _negative_mask(sig.p, sig.q, sig.ordering)
    for m1, a in left:
        flips = _sign_mask(m1, negative)
        negated = -a
        for m2, b in right:
            mask = m1 ^ m2
            out[mask] = out.get(mask, 0) + (negated if (flips & m2).bit_count() & 1 else a) * b
    return out


def volume_element(sig: Signature) -> int:
    """Mask of the product of all generators."""
    if sig.dim == 0:
        return 0
    return (1 << sig.dim) - 1


def volume_square(sig: Signature) -> int:
    """Square of the volume element, always +1 or -1."""
    omega = volume_element(sig)
    sign, rest = blade_product(omega, omega, sig)
    if rest:
        found = f"{_blade_token(omega)} leaves {_blade_token(rest)} with sign {sign}"
        raise InvariantViolation(f"the volume element of Cl({sig.p},{sig.q}) does not square to a scalar: {found}")
    return sign


class Multivector:
    """Sparse multivector: a map from blade masks to exact coefficients.

    Instances are immutable; arithmetic returns new objects.  Zero
    coefficients are never stored.  An element holds only its reduced
    integer form: a dict of (mask, numerator) in term order and one
    positive scale coprime to the numerators, which is ``linalg._cleared``
    of its coefficients, so equal elements hold equal forms.  The
    constructor clears its ``Fraction``s once; a producer that computes in
    integers builds through :meth:`_from_numerators`, which reduces its form
    once.  The public readers form each ``Fraction`` as they read it.
    """

    __slots__ = ("signature", "_numerators", "_scale")

    def __init__(self, signature: Signature, terms: Mapping[int, Rational] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            limit = 1 << signature.dim
            for mask, coeff in terms.items():
                if not 0 <= mask < limit:
                    raise ValueError(f"blade mask {mask} outside algebra of dimension {signature.dim}")
                c = Fraction(coeff)
                if c:
                    clean[mask] = c
        numerators, scale = _cleared(clean.values())
        self.signature = signature
        self._numerators = dict(zip(clean, numerators))
        self._scale = scale

    @classmethod
    def _from_numerators(cls, signature: Signature, terms: Iterable[tuple[int, int]], scale: int) -> "Multivector":
        """The element sum v/scale e_mask over (mask, v) pairs valid by
        construction (distinct masks in range), zeros dropped, scale nonzero.

        The form is reduced once, by ``linalg._reduced``, which makes it the
        one ``linalg._cleared`` gives of the coefficients.
        """
        out = cls.__new__(cls)
        out.signature = signature
        out._numerators, out._scale = _reduced({mask: v for mask, v in terms if v}, scale)
        return out

    def _cleared_terms(self) -> tuple[Iterable[tuple[int, int]], int]:
        """The (mask, numerator) pairs in term order, and the scale."""
        return self._numerators.items(), self._scale

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig)

    @classmethod
    def scalar(cls, sig: Signature, value: Rational) -> "Multivector":
        return cls(sig, {0: value})

    @classmethod
    def blade(cls, sig: Signature, mask: int, coefficient: Rational = 1) -> "Multivector":
        return cls(sig, {mask: coefficient})

    @classmethod
    def generator(cls, sig: Signature, i: int) -> "Multivector":
        if not 1 <= i <= sig.dim:
            raise ValueError(f"generator index {i} outside 1..{sig.dim}")
        return cls(sig, {1 << (i - 1): 1})

    @classmethod
    def vector(cls, sig: Signature, coords: Sequence[Rational]) -> "Multivector":
        if len(coords) != sig.dim:
            raise ValueError(f"expected {sig.dim} vector coordinates, got {len(coords)}")
        return cls(sig, {1 << i: c for i, c in enumerate(coords)})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[int, Fraction]]:
        scale = self._scale
        return ((mask, Fraction(v, scale)) for mask, v in self._numerators.items())

    def masks(self) -> Iterator[int]:
        return iter(self._numerators)

    def coefficient(self, mask: int) -> Fraction:
        v = self._numerators.get(mask)
        return Fraction(v, self._scale) if v else _ZERO

    def scalar_part(self) -> Fraction:
        return self.coefficient(0)

    def is_zero(self) -> bool:
        return not self._numerators

    def is_even(self) -> bool:
        return all(not m.bit_count() & 1 for m in self._numerators)

    def is_grade(self, k: int) -> bool:
        return all(m.bit_count() == k for m in self._numerators)

    def vector_coords(self) -> list[Fraction]:
        """Coordinates of a pure grade-1 element along e_1..e_{p+q}."""
        if not self.is_grade(1):
            raise ValueError("not a pure vector")
        return [self.coefficient(1 << i) for i in range(self.signature.dim)]

    def __len__(self) -> int:
        return len(self._numerators)

    # -- arithmetic --------------------------------------------------------

    def _check_signature(self, other: "Multivector") -> None:
        if self.signature != other.signature:
            raise ValueError(f"signature mismatch: {self.signature} vs {other.signature}")

    def __add__(self, other: "Multivector") -> "Multivector":
        """Sum of the numerators over the lcm of the two scales."""
        self._check_signature(other)
        scale = lcm(self._scale, other._scale)
        f1, f2 = scale // self._scale, scale // other._scale
        out = {mask: v * f1 for mask, v in self._numerators.items()}
        for mask, v in other._numerators.items():
            out[mask] = out.get(mask, 0) + v * f2
        return Multivector._from_numerators(self.signature, out.items(), scale)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + -other

    def __neg__(self) -> "Multivector":
        negated = [(mask, -v) for mask, v in self._numerators.items()]
        return Multivector._from_numerators(self.signature, negated, self._scale)

    def __mul__(self, other: Union["Multivector", Rational]) -> "Multivector":
        """Geometric product, or scaling by a rational.

        The signed numerator products are summed per result blade over the
        product of the two scales.
        """
        left, d1 = self._cleared_terms()
        if isinstance(other, (int, Fraction)):
            return Multivector._from_numerators(
                self.signature, [(m, v * other.numerator) for m, v in left], other.denominator * d1
            )
        self._check_signature(other)
        right, d2 = other._cleared_terms()
        return Multivector._from_numerators(
            self.signature, _numerator_product(left, right, self.signature).items(), d1 * d2
        )

    def __rmul__(self, other: Rational) -> "Multivector":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, scalar: Rational) -> "Multivector":
        if isinstance(scalar, (int, Fraction)):
            return self * (Fraction(1) / Fraction(scalar))
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return (self.signature, self._scale, self._numerators) == (other.signature, other._scale, other._numerators)

    def __hash__(self) -> int:
        return hash((self.signature, self._scale, tuple(sorted(self._numerators.items()))))

    def __repr__(self) -> str:
        return f"Multivector({self.signature.p},{self.signature.q}: {self.to_text()})"

    # -- involutions and grade structure ------------------------------------

    def reverse(self) -> "Multivector":
        """Reversion: grade-k part scaled by (-1)^(k(k-1)/2), which is -1
        exactly when bit 1 of k is set."""
        out = [(mask, -v if mask.bit_count() & 2 else v) for mask, v in self._numerators.items()]
        return Multivector._from_numerators(self.signature, out, self._scale)

    def grade_projection(self, k: int) -> "Multivector":
        """Grade-k part; k must lie in 0..p+q."""
        if not 0 <= k <= self.signature.dim:
            raise ValueError(f"grade {k} outside 0..{self.signature.dim}")
        terms = [(m, v) for m, v in self._numerators.items() if m.bit_count() == k]
        return Multivector._from_numerators(self.signature, terms, self._scale)

    # -- inversion ----------------------------------------------------------

    def inverse(self) -> "Multivector":
        """Two-sided inverse; raises ValueError when the element is singular.

        Fast path: when m * reverse(m) is a nonzero scalar the inverse is
        reverse(m) scaled.  Otherwise the inverse is found exactly by solving
        the left-multiplication operator (the regular representation); that
        path is limited to p+q <= 10 to keep the solve size bounded.
        """
        if not self._numerators:
            raise ValueError("zero multivector has no inverse")
        rev = self.reverse()
        norm = self * rev
        if len(norm) == 1 and 0 in norm._numerators:
            return rev * Fraction(norm._scale, norm._numerators[0])
        dim = self.signature.dim
        if dim > 10:
            raise ValueError("general inversion limited to p+q <= 10")
        size = 1 << dim
        cols: list[list[Fraction]] = [[Fraction(0)] * size for _ in range(size)]
        for basis_mask in range(size):
            image = self * Multivector.blade(self.signature, basis_mask)
            for mask, coeff in image.items():
                cols[mask][basis_mask] = coeff
        rhs = [Fraction(0)] * size
        rhs[0] = Fraction(1)
        solution = solve_unique(cols, rhs)
        if solution is None:
            raise ValueError("multivector is not invertible")
        return Multivector(self.signature, dict(enumerate(solution)))

    # -- text form -----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. ``1 - 2*e12 + 1/3*e134``."""
        if not self._numerators:
            return "0"
        parts: list[str] = []
        for mask in sorted(self._numerators, key=lambda m: (blade_grade(m), m)):
            coeff = Fraction(self._numerators[mask], self._scale)
            mag = -coeff if coeff < 0 else coeff
            if mask == 0:
                body = str(mag)
            else:
                token = _blade_token(mask)
                body = token if mag == 1 else f"{mag}*{token}"
            if not parts:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f" - {body}" if coeff < 0 else f" + {body}")
        return "".join(parts)

    @classmethod
    def from_text(cls, sig: Signature, text: str) -> "Multivector":
        """Parse the canonical text form (tolerates arbitrary spacing)."""
        compact = text.replace(" ", "")
        if not compact:
            raise ValueError("empty multivector text")
        if compact == "0":
            return cls.zero(sig)
        out: dict[int, Fraction] = {}
        for piece in re.findall(r"[+-]?[^+-]+", compact):
            coeff, mask = _parse_term(piece, sig)
            out[mask] = out.get(mask, Fraction(0)) + coeff
        return cls(sig, out)

    # -- JSON form -------------------------------------------------------------

    def to_json_terms(self) -> list[dict]:
        """List of ``{"mask", "value"}`` records sorted by mask; values are exact rationals."""
        return [{"mask": mask, "value": Fraction(v, self._scale)} for mask, v in sorted(self._numerators.items())]

    @classmethod
    def from_json_terms(cls, sig: Signature, records: Iterable[Mapping[str, Rational]]) -> "Multivector":
        out: dict[int, Fraction] = {}
        for rec in records:
            mask = int(rec["mask"])
            out[mask] = out.get(mask, Fraction(0)) + Fraction(rec["value"])
        return cls(sig, out)


def _blade_token(mask: int) -> str:
    indices = blade_indices(mask)
    if indices and indices[-1] > 9:
        return "e(" + ",".join(str(i) for i in indices) + ")"
    return "e" + "".join(str(i) for i in indices)


_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)"
    r"(?:(?P<coeff>\d+(?:/\d+)?)\*?)?"
    r"(?:e(?:(?P<digits>\d+)|\((?P<listed>\d+(?:,\d+)*)\)))?"
    r"$"
)


def _parse_term(piece: str, sig: Signature) -> tuple[Fraction, int]:
    match = _TERM_RE.match(piece)
    if not match or (match.group("coeff") is None and match.group("digits") is None and match.group("listed") is None):
        raise ValueError(f"cannot parse multivector term {piece!r}")
    coeff = Fraction(match.group("coeff")) if match.group("coeff") else Fraction(1)
    if match.group("sign") == "-":
        coeff = -coeff
    digits = match.group("digits")
    listed = match.group("listed")
    if digits is not None:
        indices = [int(ch) for ch in digits]
    elif listed is not None:
        indices = [int(tok) for tok in listed.split(",")]
    else:
        return coeff, 0
    if any(i < 1 or i > sig.dim for i in indices):
        raise ValueError(f"generator index outside 1..{sig.dim} in term {piece!r}")
    if list(indices) != sorted(set(indices)):
        raise ValueError(f"blade indices must be strictly increasing in term {piece!r}")
    return coeff, mask_from_indices(indices)
