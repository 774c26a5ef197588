"""Recursive 2^n x 2^n real matrix representation for the neutral algebras.

The interleaved algebra on 2n generators (signs +,-,+,-,...) is isomorphic
to the full real matrix algebra of order 2^n.  The isomorphism is built by
peeling two generators at a time: with F = [[0,1],[1,0]], G = [[0,1],[-1,0]]
and W = F G = [[-1,0],[0,1]],

    e_i      -> rep(e_i) (+) rep(e_i)        (block diagonal, i <= 2n-2)
    e_{2n-1} -> [[0, V], [ V, 0]]
    e_{2n}   -> [[0, V], [-V, 0]]            V = rep(e_1 ... e_{2n-2})

Every generator image is a signed permutation matrix, so blade images stay
signed permutations and the representation is exact and cheap.  Each is held
as three integers (a, b, s), the bit-vector form of Pauli operators of
S. Aaronson and D. Gottesman, Phys. Rev. A 70, 052328 (2004): column j
carries the sign s (-1)^popcount(b & j) in row j XOR a.  Two compose in O(1),

    (a1, b1, s1) (a2, b2, s2) = (a1 ^ a2, b1 ^ b2, s1 s2 (-1)^popcount(b1 & a2)).

With h = 2^(n-1) and V = (a, b, s), the recursion above keeps the triples of
e_1..e_{2n-2} and adds e_{2n-1} -> (a | h, b, s) and e_{2n} -> (a | h, b | h, -s).
A blade image is the fold of its generators' triples; no 2^n-long table is
kept.

A point of the neutral space S(n,n) with homogeneous coordinates
x^0..x^{2n} is the element sum_i x^i E_i, where E_0 is the volume element
and E_i omits generator i.  Its image, the point matrix Xi, obeys the
2x2 block recursion

    Xi_n = [[-Xi_{n-1}, (x^{2n-1}+x^{2n}) I], [(-x^{2n-1}+x^{2n}) I, Xi_{n-1}]]

with base [[x^0]], and satisfies Xi^2 = Q(x) I for the alternating form
Q(x) = (x^0)^2 - (x^1)^2 + (x^2)^2 - ... + (x^{2n})^2, as a polynomial
identity.  The recursion is the source of truth for every entry sign.
The identity is decided once per rank, inside the cached
:func:`build_xi_symbolic`, by the Clifford relations of the integer
coefficient matrices C_i of Xi(x) = sum_i x^i C_i.  An evaluated check at x
then only confirms, in integers, that the entries are sum_i x^i C_i at x,
against a per-rank pattern read off those C_i; a matrix that is not, such
as a tampered one, is squared.
Only this module reads the triples.  Geometry and the CLI act through
:func:`_signed_sum`, the integer sum of signed permutations applied to a
spinor, and read the images E_i of :func:`point_blade_images` only through
it: the x^i coefficient of row r of Xi(x) a = 0 is entry r of E_i a, one
signed copy of the coordinate of a that E_i sends to row r.  Every entry
of Xi(x) is one of 4n integer forms, +-x^0 and +-x^(2l-1) +- x^(2l), so an
evaluated Xi(x) reads a per-rank table off the triples once
(:func:`_triple_pattern`): each form is summed once over the coordinates
cleared to one denominator, one ``Fraction`` is formed per distinct nonzero
value, and the table places the entries.  The kernel read-off of the
geometry module takes the columns of Xi(x) from the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from . import linalg
from .blades import _ZERO, INTERLEAVED, Multivector, Rational, Signature, blade_indices
from .errors import InvariantViolation
from .linalg import _cleared
from .poly import Poly

MAX_RANK = 8


def neutral_signature(n: int) -> Signature:
    """The interleaved algebra hosting rank-n point matrices."""
    _check_rank(n)
    return Signature(n, n, INTERLEAVED)


def _check_rank(n: int) -> None:
    if not 1 <= n <= MAX_RANK:
        raise ValueError(f"neutral rank must lie in 1..{MAX_RANK}, got {n}")


#: A signed permutation as three integers (a, b, s): column j carries the sign
#: s (-1)^popcount(b & j) in row j ^ a.
SignedPerm = tuple[int, int, int]


def _compose(left: SignedPerm, right: SignedPerm) -> SignedPerm:
    """Matrix product left @ right of two signed permutations."""
    a1, b1, s1 = left
    a2, b2, s2 = right
    return a1 ^ a2, b1 ^ b2, -s1 * s2 if (b1 & a2).bit_count() & 1 else s1 * s2


@lru_cache(maxsize=None)
def generator_images(n: int) -> tuple[SignedPerm, ...]:
    """Images of e_1..e_2n in the rank-n representation: those of rank n-1,
    then the two block swaps carrying the rank n-1 volume image V."""
    if n == 0:
        return ()
    h = 1 << (n - 1)
    a, b, s = blade_image(n - 1, (1 << (2 * n - 2)) - 1)
    return generator_images(n - 1) + ((a | h, b, s), (a | h, b | h, -s))


@lru_cache(maxsize=None)
def blade_image(n: int, mask: int) -> SignedPerm:
    """Image of a basis blade, the product of its generator images.  Cached:
    a hit is 10-15 times faster than the fold, and a rank holds at most 4^n
    triples."""
    out = (0, 0, 1)
    gens = generator_images(n)
    for i in blade_indices(mask):
        out = _compose(out, gens[i - 1])
    return out


def rep_multivector(m: Multivector, n: int) -> linalg.Matrix:
    """Dense rational image of any element of the rank-n algebra."""
    if m.signature != neutral_signature(n):
        raise ValueError(f"element must live in the interleaved ({n},{n}) algebra")
    out = linalg.zeros(1 << n, 1 << n)
    for mask, coeff in m.items():
        a, b, s = blade_image(n, mask)
        for j in range(1 << n):
            out[j ^ a][j] += -coeff if ((b & j).bit_count() & 1) != (s < 0) else coeff
    return out


@lru_cache(maxsize=None)
def point_blade_images(n: int) -> tuple[SignedPerm, ...]:
    """Images of E_0..E_{2n}: the volume element and its one-index omissions."""
    full = (1 << (2 * n)) - 1
    images = [blade_image(n, full)]
    for i in range(1, 2 * n + 1):
        images.append(blade_image(n, full ^ (1 << (i - 1))))
    return tuple(images)


#: The entries of a point matrix as integer forms: the distinct forms
#: sum_i k x^i as tuples of (i, k) pairs, and for each row, or each column,
#: its (column or row, form index) pairs.
FormTable = tuple[tuple[tuple[tuple[int, int], ...], ...], tuple[tuple[tuple[int, int], ...], ...]]


def _signed_sum(terms: Iterable[tuple[SignedPerm, int]], vector: Mapping[int, int]) -> dict[int, int]:
    """sum_k c_k P_k v in integers over signed permutations P_k, for a sparse
    integer v, with zero entries dropped: the one spinor action.  Xi(x) v sums
    over (E_i, x^i) and rep(m) a over (B_M, c_M), on integer multiples."""
    out: dict[int, int] = {}
    items = list(vector.items())
    for (a, b, s), c in terms:
        if c:
            c *= s
            negated = -c
            for j, value in items:
                r = j ^ a
                out[r] = out.get(r, 0) + (negated if (b & j).bit_count() & 1 else c) * value
    return {r: value for r, value in out.items() if value}


def point_element(n: int, x: Sequence[Rational]) -> Multivector:
    """The algebra element sum_i x^i E_i behind a point matrix."""
    coords = _check_coords(n, x)
    sig = neutral_signature(n)
    full = (1 << (2 * n)) - 1
    terms = {full: coords[0]}
    for i in range(1, 2 * n + 1):
        terms[full ^ (1 << (i - 1))] = coords[i]
    return Multivector(sig, terms)


def quadratic_form(x: Sequence[Rational]) -> Fraction:
    """Alternating form (x^0)^2 - (x^1)^2 + (x^2)^2 - ... + (x^{2n})^2, summed
    in integers over the lcm of the denominators, with one ``Fraction``."""
    if len(x) % 2 == 0 or len(x) < 3:
        raise ValueError("point coordinates come as x^0..x^{2n}, an odd count >= 3")
    ints, scale = _cleared([v if isinstance(v, (int, Fraction)) else Fraction(v) for v in x])
    return Fraction(sum(c * c for c in ints[::2]) - sum(c * c for c in ints[1::2]), scale * scale)


@dataclass(frozen=True)
class XiMatrix:
    """Point matrix of S(n,n): symbolic (Poly entries) or evaluated (Fraction)."""

    n: int
    entries: tuple
    symbolic: bool

    @property
    def size(self) -> int:
        return 1 << self.n

    def rows(self) -> list[list]:
        return [list(row) for row in self.entries]

    def evaluate(self, x: Sequence[Rational]) -> "XiMatrix":
        if not self.symbolic:
            raise ValueError("matrix is already evaluated")
        coords = _check_coords(self.n, x)
        values = {f"x{i}": c for i, c in enumerate(coords)}
        rows = tuple(
            tuple(entry.evaluate(values) if entry.terms else _ZERO for entry in row)
            for row in self.entries
        )
        return XiMatrix(self.n, rows, symbolic=False)

    def verify_square_identity(self, x: Sequence[Rational] | None = None) -> Fraction | None:
        """Assert Xi^2 = Q(x) I, symbolically or at a point; at a point,
        return the Q(x) it checked against.

        The symbolic identity is decided by the Clifford relations of the
        C_i of Xi(x) = sum_i x^i C_i.  At a point it is decided in two parts:
        the rank's symbolic identity, decided once inside the cached
        :func:`build_xi_symbolic`, and a check that the entries are exactly
        sum_i x^i C_i at x (:func:`_is_point_matrix`).  Any other matrix is
        squared by :func:`_verify_evaluated_square`, which names the first
        failing entry, or passes a matrix such as -Xi(x) that squares to
        Q(x) I all the same.
        """
        if self.symbolic:
            _verify_symbolic_square(self)
            return None
        if x is None:
            raise ValueError("evaluated matrices need their coordinates for the check")
        q = quadratic_form(x)
        if not _is_point_matrix(self.entries, self.n, x):
            _verify_evaluated_square(self.entries, q)
        return q

    def token_rows(self) -> list[list[str]]:
        """Symbolic entries as sign-prefixed tokens, e.g. ``-x1+x2``: fresh
        lists of the tokens formed once per matrix."""
        if not self.symbolic:
            raise ValueError("token form exists only for symbolic matrices")
        return [list(row) for row in self._tokens]

    @cached_property
    def _tokens(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(map(_entry_token, row)) for row in self.entries)

    def to_json(self) -> dict:
        """Token rows when symbolic, otherwise rows whose leaves are exact rationals."""
        return {"n": self.n, "rows": self.token_rows() if self.symbolic else self.rows()}


def _check_coords(n: int, x: Sequence[Rational]) -> list[Fraction]:
    _check_rank(n)
    if len(x) != 2 * n + 1:
        raise ValueError(f"rank {n} needs 2n+1 = {2 * n + 1} coordinates, got {len(x)}")
    return _as_fractions(x)


def _as_fractions(x: Iterable[Rational]) -> list[Fraction]:
    """The values as ``Fraction``s, keeping those whose type is exactly
    ``Fraction``, so that a converted list is not converted again."""
    return [v if type(v) is Fraction else Fraction(v) for v in x]


@lru_cache(maxsize=None)
def build_xi_symbolic(n: int) -> XiMatrix:
    """Symbolic point matrix by the 2x2 block recursion, with Xi^2 = Q(x) I
    decided once per rank: a failing build raises and nothing is cached."""
    _check_rank(n)
    rows: list[list[Poly]] = [[Poly.var("x0")]]
    for level in range(1, n + 1):
        h = len(rows)
        plus = Poly.var(f"x{2 * level - 1}") + Poly.var(f"x{2 * level}")
        minus = -Poly.var(f"x{2 * level - 1}") + Poly.var(f"x{2 * level}")
        zero = Poly.zero()
        new_rows: list[list[Poly]] = []
        for r in range(h):
            new_rows.append([-rows[r][c] for c in range(h)] + [plus if c == r else zero for c in range(h)])
        for r in range(h):
            new_rows.append([minus if c == r else zero for c in range(h)] + list(rows[r]))
        rows = new_rows
    xi = XiMatrix(n, tuple(tuple(row) for row in rows), symbolic=True)
    xi.verify_square_identity()
    return xi


def build_xi(x: Sequence[Rational]) -> XiMatrix:
    """Evaluated point matrix from the per-rank :func:`_triple_pattern`: each
    integer form is summed once over the coordinates cleared to the lcm of
    their denominators, one ``Fraction`` is formed per distinct nonzero value,
    and every other entry is the shared zero."""
    if len(x) % 2 == 0 or len(x) < 3:
        raise ValueError("point coordinates come as x^0..x^{2n}, an odd count >= 3")
    n = (len(x) - 1) // 2
    ints, scale = _cleared(_check_coords(n, x))
    forms, columns = _triple_pattern(n)
    fractions = {0: _ZERO}
    entries = []
    for form in forms:
        value = sum(k * ints[i] for i, k in form)
        entry = fractions.get(value)
        if entry is None:
            entry = fractions[value] = Fraction(value, scale)
        entries.append(entry)
    size = 1 << n
    rows = [[_ZERO] * size for _ in range(size)]
    for c, column in enumerate(columns):
        for r, f in column:
            rows[r][c] = entries[f]
    return XiMatrix(n, tuple(map(tuple, rows)), symbolic=False)


def _integer_columns(n: int, ints: Sequence[int]) -> list[dict[int, int]]:
    """The columns of sum_i c^i E_i for integers c^0..c^{2n}, each as a map
    from row to its nonzero entries, evaluated from :func:`_triple_pattern`.
    At n = 0 the one image is the identity, so the matrix is [[c^0]]."""
    forms, columns = _triple_pattern(n)
    values = [sum(k * ints[i] for i, k in form) for form in forms]
    return [{r: values[f] for r, f in column if values[f]} for column in columns]


@lru_cache(maxsize=None)
def _triple_pattern(n: int) -> FormTable:
    """The entries of sum_i x^i E_i, read off the triples of
    :func:`point_blade_images`: the distinct integer forms, 4n of them at
    rank n >= 1, and for each column its (row, form index) pairs.  Built on
    first use, once per rank."""
    terms = []
    for i, (a, b, s) in enumerate(point_blade_images(n)):
        for j in range(1 << n):
            terms.append((j, j ^ a, i, -s if (b & j).bit_count() & 1 else s))
    return _grouped_forms(1 << n, terms)


def _grouped_forms(size: int, terms: Iterable[tuple[int, int, int, int]]) -> FormTable:
    """Group (outer, inner, i, k) terms, k x^i at entry (outer, inner), into
    the distinct forms sum_i k x^i, as tuples of (i, k) pairs in the terms'
    order, and for each outer index its (inner, form index) pairs by inner."""
    entries: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(size)]
    for outer, inner, i, k in terms:
        entries[outer].setdefault(inner, []).append((i, k))
    forms: dict[tuple[tuple[int, int], ...], int] = {}
    groups = tuple(
        tuple((inner, forms.setdefault(tuple(form), len(forms))) for inner, form in sorted(entry.items()))
        for entry in entries
    )
    return tuple(forms), groups


def xi_square_check(x: Sequence[Rational]) -> Fraction:
    """Q(x), after asserting Xi(x)^2 = Q(x) I exactly."""
    return build_xi(x).verify_square_identity(x)


@lru_cache(maxsize=None)
def _point_pattern(n: int) -> tuple[tuple, tuple, tuple[itemgetter, ...]]:
    """The entries of Xi(x) = sum_i x^i C_i, read off the C_i whose Clifford
    relations :func:`build_xi_symbolic` has just decided: the distinct
    integer forms sum_i k x^i as (i, k) pairs, for each row its
    (column, form index) pairs, one per entry that is not identically 0, and
    for each row an ``itemgetter`` of its other entries, which returns them
    as a sequence at every rank.

    The forms come from the ``Poly`` block recursion, not from the
    signed-permutation triples of :func:`_triple_pattern`, so a point check
    against them is a second route to the one :func:`build_xi` evaluates.
    """
    size = 1 << n
    coefficients = _coefficient_columns(build_xi_symbolic(n))
    forms, pattern = _grouped_forms(
        size,
        ((r, c, i, k) for i, columns in enumerate(coefficients) for c, column in enumerate(columns) for r, k in column),
    )
    off_pattern = []
    for expected in pattern:
        columns = sorted(set(range(size)).difference(c for c, _ in expected))
        if len(columns) > 1:
            off_pattern.append(itemgetter(*columns))
        else:  # none at n = 1 and one at n = 2, where itemgetter gives no tuple; a slice does
            off_pattern.append(itemgetter(slice(columns[0], columns[0] + 1) if columns else slice(0)))
    return forms, pattern, tuple(off_pattern)


def _is_point_matrix(entries: Sequence[Sequence], n: int, x: Sequence[Rational]) -> bool:
    """Whether the entries are exactly sum_i x^i C_i, the rank-n point matrix
    at x, compared in integers with no ``Fraction`` formed.

    x is cleared to integers c^i over one denominator L, each form is summed
    once as f = sum_i k c^i, and an entry p/q is f/L exactly when p L = f q;
    an entry that is the very object last found equal to its form's value,
    as the entries :func:`build_xi` shares are, is not compared again.  A
    row then holds nothing else when every entry off its pattern is zero:
    one ``tuple.count`` of the shared zero over those entries, which
    compares by identity first, so the zeros :func:`build_xi` writes cost
    no ``Fraction`` comparison, and any other zero object is still counted
    exactly by ``==``.  Anything that is not a 2^n x 2^n matrix of rationals
    at 2n+1 coordinates is left to the square.
    """
    if len(x) != 2 * n + 1 or n > MAX_RANK or len(entries) != 1 << n:
        return False
    size = 1 << n
    forms, pattern, off_pattern = _point_pattern(n)
    ints, scale = _cleared([v if isinstance(v, (int, Fraction)) else Fraction(v) for v in x])
    values = [sum(k * ints[i] for i, k in form) for form in forms]
    checked = [None] * len(forms)
    try:
        for row, expected, off in zip(entries, pattern, off_pattern):
            if len(row) != size:
                return False
            for c, f in expected:
                entry = row[c]
                if entry is not checked[f]:
                    if entry.numerator * scale != values[f] * entry.denominator:
                        return False
                    checked[f] = entry
            if off(row).count(_ZERO) != size - len(expected):
                return False
    except (AttributeError, TypeError):
        return False
    return True


def _verify_evaluated_square(entries: tuple, q: Fraction) -> None:
    """Square the sparse rows of L*Xi in integers, L the lcm of the entries'
    denominators, and compare with L^2 Q(x) I; a failure is reported in the
    original units at its first entry in row order.

    :meth:`XiMatrix.verify_square_identity` calls this only when the
    entries are not the point matrix at x, whose square the symbolic
    identity already decides: a tampered matrix, one checked at another
    point, or one such as -Xi(x) that is not Xi(x) but squares to Q(x) I.
    """
    # cleared inline: linalg._cleared would also clear the zeros, which slowed
    # this check by about 15%; only (n+1) 2^n of the 4^n entries are nonzero
    nonzero = [[(c, v) for c, v in enumerate(row) if v] for row in entries]
    scale = lcm(*[v.denominator for row in nonzero for _, v in row])
    sparse = [[(c, v.numerator * (scale // v.denominator)) for c, v in row] for row in nonzero]
    target = scale * scale * q
    for r, row in enumerate(sparse):
        square = {r: 0}
        for k, a in row:
            for c, b in sparse[k]:
                square[c] = square.get(c, 0) + a * b
        for c in sorted(square):
            if square[c] != (target if c == r else 0):
                expected = q if c == r else Fraction(0)
                raise InvariantViolation(
                    f"point-matrix square identity failed at entry ({r}, {c}): "
                    f"{Fraction(square[c], scale * scale)}, expected {expected} with Q(x) = {q}"
                )


def _verify_symbolic_square(xi: XiMatrix) -> None:
    """Decide Xi^2 = Q(x) I by the Clifford relations of Xi(x) = sum_i x^i C_i.

    The x^i x^j coefficient of Xi^2 is C_i C_j + C_j C_i, so the identity
    holds exactly when C_i^2 = g_i I (g_i = +1 for even i, -1 for odd i)
    and C_i C_j + C_j C_i = 0 for i < j.  Each C_i is read off the entries
    as integer columns and the relations are checked column by column; only
    a failure forms its first entry of Xi^2, in row order, as a polynomial.
    """
    size, count = xi.size, 2 * xi.n + 1
    coefficients = _coefficient_columns(xi)
    failures: set[tuple[int, int]] = set()
    for c in range(size):
        for i, left in enumerate(coefficients):
            for j in range(i, count):
                right = coefficients[j]
                # column c of C_i C_j + C_j C_i, less 2 g_i I when i = j
                column = {c: 2 if i % 2 else -2} if i == j else {}
                for outer, inner in ((left, right), (right, left)):
                    for r, a in inner[c]:
                        for s, b in outer[r]:
                            column[s] = column.get(s, 0) + a * b
                if any(column.values()):
                    failures.update((s, c) for s, value in column.items() if value)
    if failures:
        r, c = min(failures)
        value = Poly.zero()
        for k in range(size):
            value = value + xi.entries[r][k] * xi.entries[k][c]
        q = Poly({(f"x{i}", f"x{i}"): -1 if i % 2 else 1 for i in range(count)})
        expected = q if r == c else Poly.zero()
        raise InvariantViolation(
            f"symbolic point-matrix square identity failed at entry ({r}, {c}): "
            f"{value!r}, expected {expected!r}"
        )


def _coefficient_columns(xi: XiMatrix) -> list[list[list[tuple[int, int]]]]:
    """The columns of each C_i as (row, integer) pairs: out[i][c] holds C_i e_c.

    An entry that is not an integer linear form in x^0..x^{2n} breaks the
    point-matrix convention; the first such entry in row order is named.
    """
    index = {f"x{i}": i for i in range(2 * xi.n + 1)}
    out: list[list[list[tuple[int, int]]]] = [[[] for _ in range(xi.size)] for _ in index]
    for r, row in enumerate(xi.entries):
        for c, entry in enumerate(row):
            for mono, coeff in entry.terms.items():
                i = index.get(mono[0]) if len(mono) == 1 else None
                if i is None or coeff.denominator != 1:
                    raise InvariantViolation(
                        f"symbolic point-matrix entry ({r}, {c}) is not an integer linear form "
                        f"in x0..x{2 * xi.n}: {entry!r}"
                    )
                out[i][c].append((r, coeff.numerator))
    return out


def _entry_token(entry: Poly) -> str:
    if entry.is_zero():
        return "0"
    pieces: list[tuple[int, Fraction]] = []
    for mono, coeff in entry.terms.items():
        if len(mono) != 1 or not mono[0].startswith("x"):
            raise ValueError("entry is not a linear coordinate form")
        pieces.append((int(mono[0][1:]), coeff))
    pieces.sort()
    out = []
    for idx, coeff in pieces:
        mag = -coeff if coeff < 0 else coeff
        body = f"x{idx}" if mag == 1 else f"{mag}*x{idx}"
        if not out:
            out.append(f"-{body}" if coeff < 0 else body)
        else:
            out.append(f"-{body}" if coeff < 0 else f"+{body}")
    return "".join(out)
