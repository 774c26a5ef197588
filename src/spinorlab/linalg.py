"""Small exact linear algebra kernel over Fraction matrices.

Matrices are lists of row lists, and nothing here mutates its arguments.
:func:`rref` eliminates fraction-free on primitive integer rows and turns
to ``Fraction`` once, at the end; :func:`rank` counts the pivots of the
same elimination, run below each pivot only, and forms no ``Fraction``.
The geometry module reads those forward-only pivots too, for the rows a
generator system keeps, and decides a generator's stored equations by one
integer product and one :func:`rank`, so no row-space comparison is kept.
An integer form, numerators over one scale, is reduced in one place,
:func:`_reduced`, for the elements and the spinors alike.
Pivoting is deterministic (first nonzero entry in column order), which
fixes echelon forms and null-space bases bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Sequence

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def zeros(n_rows: int, n_cols: int) -> Matrix:
    return [[Fraction(0)] * n_cols for _ in range(n_rows)]


def _cleared(values: Collection[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of the values over the lcm of their denominators,
    and that lcm."""
    # a list, not a generator: star-unpacking a generator here raised the
    # peak RSS of a 40 s spin_relations run by about 2 MB
    scale = lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _reduced(numerators: dict[int, int], scale: int) -> tuple[dict[int, int], int]:
    """A form numerators / scale, with zeros already dropped and the scale
    nonzero, reduced once: by the gcd of the scale and every numerator, and
    to a positive scale.  This is the one reduced form of the values, the
    one :func:`_cleared` gives of them."""
    g = gcd(scale, *numerators.values())
    if scale < 0:
        g = -g
    if g == 1:
        return numerators, scale
    return {key: v // g for key, v in numerators.items()}, scale // g


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g < 2 else [v // g for v in row]


def _eliminate(rows: Sequence[Sequence[Fraction]], reduced: bool = True) -> tuple[list[list[int]], list[int]]:
    """Fraction-free elimination: primitive integer rows, the pivot rows
    first and in pivot order, and the list of pivot columns.

    Each row is scaled to integers by the lcm of its own denominators and
    kept primitive.  A pivot p clears an entry f of another row as
    (p/g)*row - (f/g)*pivot_row with g = gcd(p, f), subtracting over the
    pivot row's nonzero support only, so no ``Fraction`` is formed.  Each
    pivot clears its column in every other row when ``reduced``, and
    otherwise only below it, which finds the same pivots in about 60% of
    the time on a full-rank 128 x 256 system.
    """
    # rows are cleared inline, not by _cleared: its extra list passes cost
    # xi_kernel about 5% of its throughput
    m: list[list[int]] = []
    for row in rows:
        scale = lcm(*(v.denominator for v in row))
        m.append(_primitive([v.numerator * (scale // v.denominator) for v in row]))
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        p = top[c]
        support = [(j, top[j]) for j in range(c, n_cols) if top[j]]
        for i in range(0 if reduced else r + 1, n_rows):
            f = m[i][c]
            if i == r or not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            row = m[i] if a == 1 else [a * v for v in m[i]]
            for j, v in support:
                row[j] -= b * v
            m[i] = _primitive(row)
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns: the integer
    elimination of :func:`_eliminate`, with each pivot row then divided by
    its pivot, the only place a ``Fraction`` is formed."""
    m, pivots = _eliminate(rows)
    if not m:
        return [], []
    zero = Fraction(0)
    reduced = [[Fraction(v, m[k][c]) if v else zero for v in m[k]] for k, c in enumerate(pivots)]
    reduced.extend([zero] * len(m[0]) for _ in range(len(m) - len(pivots)))
    return reduced, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """The number of pivots of the integer elimination, cleared below each
    pivot only; no ``Fraction`` is formed."""
    return len(_eliminate(rows, reduced=False)[1])


def null_space(rows: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Basis of the right null space, one vector per free column.

    Vectors are in the standard reduced-echelon parametrization: entry 1 at
    the free column, minus the echelon entry at each pivot column, zero
    elsewhere.  Free columns are emitted in increasing order.
    """
    if not rows:
        return []
    reduced, pivots = rref(rows)
    n_cols = len(rows[0])
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for row_idx, piv in enumerate(pivots):
            vec[piv] = -reduced[row_idx][free]
        basis.append(vec)
    return basis


def solve_unique(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vector | None:
    """Unique solution of A x = b, or None when singular/inconsistent."""
    if len(rows) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    n_cols = len(rows[0]) if rows else 0
    augmented = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    reduced, pivots = rref(augmented)
    if n_cols in pivots:
        return None  # inconsistent
    if len(pivots) != n_cols:
        return None  # underdetermined
    solution = [Fraction(0)] * n_cols
    for row_idx, piv in enumerate(pivots):
        solution[piv] = reduced[row_idx][n_cols]
    return solution
