"""Exact linear algebra kernel."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import linalg

from dense import det, identity, mat_eq, mat_mul, mat_vec, same_row_space


def frac_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


def test_rref_and_pivots():
    m = frac_rows([[0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2], [0, 0, 0, 0]])
    reduced, pivots = linalg.rref(m)
    assert pivots == [1, 3]
    assert reduced[0][1] == 1 and reduced[1][3] == 1


def test_null_space_worked_example():
    m = frac_rows([[0, -2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2], [0, 0, 0, 0]])
    basis = linalg.null_space(m)
    assert basis == [
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
    ]


def test_null_space_vectors_annihilate():
    rng = random.Random(42)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(4)]
        basis = linalg.null_space(rows)
        assert len(basis) == 6 - linalg.rank(rows)
        for vec in basis:
            assert all(v == 0 for v in mat_vec(rows, vec))


def test_solve_unique():
    a = frac_rows([[2, 0], [1, 1]])
    assert linalg.solve_unique(a, [Fraction(4), Fraction(5)]) == [Fraction(2), Fraction(3)]
    singular = frac_rows([[1, 1], [2, 2]])
    assert linalg.solve_unique(singular, [Fraction(1), Fraction(2)]) is None
    assert linalg.solve_unique(singular, [Fraction(1), Fraction(3)]) is None


def test_det():
    assert det(frac_rows([[1, 2], [3, 4]])) == -2
    assert det(frac_rows([[1, 2], [2, 4]])) == 0
    rng = random.Random(3)
    a = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)]
    b = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)]
    assert det(mat_mul(a, b)) == det(a) * det(b)


def test_mat_mul_identity():
    rng = random.Random(5)
    a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)] for _ in range(5)]
    assert mat_eq(mat_mul(a, identity(5)), a)
    assert mat_eq(mat_mul(identity(5), a), a)


def test_same_row_space():
    a = frac_rows([[1, 0, 0], [0, 1, 0]])
    b = frac_rows([[1, 1, 0], [1, -1, 0]])
    c = frac_rows([[1, 0, 0], [0, 0, 1]])
    assert same_row_space(a, b)
    assert not same_row_space(a, c)


# -- differential against Fraction Gauss-Jordan ----------------------------------


def oracle_rref(rows):
    """Gauss-Jordan on Fraction rows: normalize the pivot row, clear its column."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def oracle_null_space(rows):
    reduced, pivots = oracle_rref(rows)
    n_cols = len(rows[0])
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for row, piv in zip(reduced, pivots):
            vec[piv] = -row[free]
        basis.append(vec)
    return basis


def seeded_matrices():
    """Rational matrices of every shape the eliminations meet, from one seed."""
    rng = random.Random(2024)

    def entry(den=12):
        kind = rng.random()
        if kind < 0.35:
            return Fraction(0)
        if kind < 0.7:
            return Fraction(rng.randint(-6, 6))
        return Fraction(rng.randint(-9, 9), rng.randint(1, den))

    def block(n_rows, n_cols):
        return [[entry() for _ in range(n_cols)] for _ in range(n_rows)]

    cases = [[], [[Fraction(0)] * 4 for _ in range(3)], [[Fraction(-3, 7)]], [[Fraction(0)]]]
    for _ in range(12):
        cases.append(block(rng.randint(1, 4), rng.randint(5, 9)))  # wide
        cases.append(block(rng.randint(5, 9), rng.randint(1, 4)))  # tall
        k = rng.randint(1, 8)
        cases.append(block(k, k))  # square
        cases.append(block(1, rng.randint(1, 8)))  # 1 x k
        cases.append(block(rng.randint(1, 8), 1))  # k x 1
        base = block(rng.randint(1, 3), rng.randint(3, 7))  # rank-deficient
        combos = [[sum(rng.randint(-3, 3) * Fraction(1, rng.randint(1, 4)) * row[j] for row in base)
                   for j in range(len(base[0]))] for _ in range(rng.randint(1, 4))]
        mixed = base + combos + [[Fraction(0)] * len(base[0])]  # zero row included
        rng.shuffle(mixed)
        cases.append(mixed)
    # negative and rational pivots, and a pivot column that only a lower row fills
    cases.append([[Fraction(-2, 3), Fraction(1, 5), 0], [Fraction(4, 9), Fraction(-7, 2), Fraction(1, 6)]])
    cases.append([[0, Fraction(-5), 3], [Fraction(-1, 4), 2, 0], [0, 0, Fraction(-9, 8)]])
    # tuple rows, as independent_system passes zip(*rows)
    cases.append(list(zip(*block(4, 6))))
    return cases


def test_rref_matches_fraction_oracle():
    for rows in seeded_matrices():
        reduced, pivots = linalg.rref(rows)
        assert (reduced, pivots) == oracle_rref(rows)
        assert all(type(v) is Fraction for row in reduced for v in row)


def test_eliminations_agree_with_oracle_values():
    rng = random.Random(11)
    for rows in seeded_matrices():
        if not rows:
            continue
        assert linalg.rank(rows) == len(oracle_rref(rows)[1])
        assert linalg.null_space(rows) == oracle_null_space(rows)
        mixed = [[sum(rng.randint(-2, 2) * row[j] for row in rows) for j in range(len(rows[0]))]
                 for _ in range(len(rows))]
        expected = len(oracle_rref(rows)[1]) == len(oracle_rref(mixed)[1]) == len(oracle_rref(rows + mixed)[1])
        assert same_row_space(rows, mixed) == expected
        assert same_row_space(rows, rows[::-1])
        if len(rows) == len(rows[0]):
            rhs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in rows]
            solution = linalg.solve_unique(rows, rhs)
            if det(rows) == 0:
                assert solution is None
            else:
                reduced, _ = oracle_rref([list(row) + [b] for row, b in zip(rows, rhs)])
                assert solution == [row[-1] for row in reduced]
                assert mat_vec(rows, solution) == rhs


def test_rank_forms_no_fraction(monkeypatch):
    # rank counts the pivots of the integer elimination; only rref divides
    cases = [rows for rows in seeded_matrices() if rows]
    expected = [len(oracle_rref(rows)[1]) for rows in cases]
    monkeypatch.setattr(linalg, "Fraction", None)
    assert [linalg.rank(rows) for rows in cases] == expected
    with pytest.raises(TypeError):
        linalg.rref(cases[0])


_entries = st.one_of(
    st.integers(-20, 20).map(Fraction),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9)),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(lambda k: st.lists(st.lists(_entries, min_size=k, max_size=k), max_size=6)))
def test_rref_matches_oracle_property(rows):
    assert linalg.rref(rows) == oracle_rref(rows)
    assert linalg.rank(rows) == len(oracle_rref(rows)[1])


def test_eliminations_match_sympy():
    sympy = pytest.importorskip("sympy")

    def fraction(value):
        return Fraction(int(value.p), int(value.q))

    def fractions(matrix):
        return [[fraction(v) for v in row] for row in matrix.tolist()]

    for rows in seeded_matrices():
        if not rows or not rows[0]:
            continue
        matrix = sympy.Matrix([[sympy.Rational(Fraction(v).numerator, Fraction(v).denominator) for v in row]
                               for row in rows])
        expected, pivots = matrix.rref()
        assert linalg.rref(rows) == (fractions(expected), list(pivots))
        assert linalg.null_space(rows) == [[v for (v,) in fractions(vec)] for vec in matrix.nullspace()]
        if len(rows) == len(rows[0]):
            assert det(rows) == fraction(matrix.det())
