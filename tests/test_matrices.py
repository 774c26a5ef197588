"""Recursive matrix representation and the point matrices."""

import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import (
    InvariantViolation,
    Multivector,
    SpinElement,
    XiMatrix,
    build_xi,
    build_xi_symbolic,
    linalg,
    neutral_signature,
    point_element,
    quadratic_form,
    rep_multivector,
    xi_square_check,
)
from spinorlab import matrices
from spinorlab.blades import _ZERO
from spinorlab.matrices import MAX_RANK, _compose, _entry_token, blade_image, generator_images
from spinorlab.poly import Poly

import dense
from dense import det, identity, mat_eq, mat_mul

XI_1_TOKENS = [
    ["-x0", "x1+x2"],
    ["-x1+x2", "x0"],
]

XI_2_TOKENS = [
    ["x0", "-x1-x2", "x3+x4", "0"],
    ["x1-x2", "-x0", "0", "x3+x4"],
    ["-x3+x4", "0", "-x0", "x1+x2"],
    ["0", "-x3+x4", "-x1+x2", "x0"],
]


def test_golden_rank_one():
    assert build_xi_symbolic(1).token_rows() == XI_1_TOKENS


def test_golden_rank_two():
    assert build_xi_symbolic(2).token_rows() == XI_2_TOKENS


def test_rank_three_recursion_entries():
    # spot entries of the 8x8 matrix fixed by the recursion
    tokens = build_xi_symbolic(3).token_rows()
    assert tokens[0][:5] == ["-x0", "x1+x2", "-x3-x4", "0", "x5+x6"]
    assert tokens[2][0] == "x3-x4"
    assert tokens[7][5] == "-x3+x4"
    assert tokens[7][7] == "x0"
    assert tokens[4][0] == "-x5+x6"


@pytest.mark.parametrize("n", range(1, MAX_RANK + 1))
def test_symbolic_tokens_are_formed_once_per_rank(n):
    xi = build_xi_symbolic(n)
    assert xi.token_rows() == [[_entry_token(entry) for entry in row] for row in xi.entries]


@pytest.mark.parametrize("n", range(1, MAX_RANK + 1))
def test_symbolic_square_identity(n):
    build_xi_symbolic(n).verify_square_identity()


def test_symbolic_square_identity_at_the_top_ranks_within_budget():
    matrices = [build_xi_symbolic(n) for n in (MAX_RANK - 1, MAX_RANK)]  # built outside the timed region
    started = time.perf_counter()
    for xi in matrices:
        xi.verify_square_identity()
    assert time.perf_counter() - started < 1.0


def test_generator_relations_in_representation():
    for n in (1, 2, 3):
        sig = neutral_signature(n)
        size = 1 << n
        images = [
            rep_multivector(Multivector.generator(sig, i), n) for i in range(1, 2 * n + 1)
        ]
        for i in range(2 * n):
            for j in range(2 * n):
                anti = mat_mul(images[i], images[j])
                other = mat_mul(images[j], images[i])
                total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(anti, other)]
                expected = (
                    [[Fraction(2 * sig.sigma(i + 1)) if r == c else Fraction(0) for c in range(size)] for r in range(size)]
                    if i == j
                    else linalg.zeros(size, size)
                )
                assert mat_eq(total, expected)


def random_even(sig, rng, max_terms=8):
    terms = {}
    masks = [m for m in range(1 << sig.dim) if bin(m).count("1") % 2 == 0]
    for mask in rng.sample(masks, min(max_terms, len(masks))):
        terms[mask] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Multivector(sig, terms)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_representation_multiplicative(n):
    sig = neutral_signature(n)
    rng = random.Random(50 + n)
    one = Multivector.scalar(sig, 1)
    assert mat_eq(rep_multivector(one, n), identity(1 << n))
    for _ in range(12):
        s = random_even(sig, rng)
        t = random_even(sig, rng)
        left = rep_multivector(s * t, n)
        right = mat_mul(rep_multivector(s, n), rep_multivector(t, n))
        assert mat_eq(left, right)


def test_representation_multiplicative_on_all_blade_pairs():
    # exhaustive, not sampled: every blade pair at ranks 1, 2 and 3
    for n in (1, 2, 3):
        sig = neutral_signature(n)
        for m1 in range(1 << (2 * n)):
            b1 = Multivector.blade(sig, m1)
            r1 = rep_multivector(b1, n)
            for m2 in range(1 << (2 * n)):
                b2 = Multivector.blade(sig, m2)
                left = rep_multivector(b1 * b2, n)
                assert mat_eq(left, mat_mul(r1, rep_multivector(b2, n)))


def test_representation_faithful_on_even_part():
    # flattened blade images must be linearly independent (trivial kernel)
    for n in (1, 2, 3, 4):
        rows = []
        for mask in range(1 << (2 * n)):
            if bin(mask).count("1") % 2:
                continue
            a, b, s = blade_image(n, mask)
            rows.append({(j ^ a) << n | j: Fraction(-s if (b & j).bit_count() & 1 else s) for j in range(1 << n)})
        assert _sparse_rank(rows) == 1 << (2 * n - 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_blade_images_equal_the_table_oracle(n):
    """Every blade's triple against the 2^n-long (perm, signs) table composed
    from the generator tables of the block recursion."""
    size = 1 << n
    for mask in range(1 << (2 * n)):
        a, b, s = blade_image(n, mask)
        perm, signs = dense.table_blade_image(n, mask)
        assert perm == tuple(j ^ a for j in range(size)), (n, mask)
        assert signs == tuple(-s if (b & j).bit_count() & 1 else s for j in range(size)), (n, mask)


@pytest.mark.parametrize("n", range(1, MAX_RANK + 1))
def test_generator_images_obey_the_clifford_relations(n):
    """E_i^2 = g_i I and E_i E_j = -E_j E_i by the triple composition alone,
    with g_i = +1 for odd i and -1 for even i, independently of the tables."""
    gens = generator_images(n)
    assert len(gens) == 2 * n
    for i, left in enumerate(gens):
        assert _compose(left, left) == (0, 0, 1 if i % 2 == 0 else -1)
        for right in gens[i + 1 :]:
            a, b, s = _compose(left, right)
            assert _compose(right, left) == (a, b, -s)


def test_every_even_blade_image_at_max_rank_within_budget():
    """All 2^(2n-1) even blade images at MAX_RANK from cold caches in under
    1 s.  On a 2-vCPU VM the 2^n-long tables took 10-11 s and raised the peak
    RSS to 183 MB; the triples take about 0.1 s."""
    generator_images.cache_clear()
    blade_image.cache_clear()
    started = time.perf_counter()
    images = [blade_image(MAX_RANK, mask) for mask in range(1 << (2 * MAX_RANK)) if mask.bit_count() % 2 == 0]
    assert time.perf_counter() - started < 1.0
    # distinct images, each keeping the parity of popcount(j): the half-spinor spaces
    assert len({(a, b) for a, b, _ in images}) == len(images) == 1 << (2 * MAX_RANK - 1)
    assert all(a.bit_count() % 2 == 0 for a, _, _ in images)


def _sparse_rank(rows):
    rank = 0
    reduced: list[dict] = []
    for row in rows:
        current = dict(row)
        for pivot_key, pivot_row in reduced:
            if pivot_key in current:
                factor = current[pivot_key]
                for key, value in pivot_row.items():
                    current[key] = current.get(key, Fraction(0)) - factor * value
                    if not current[key]:
                        del current[key]
        if current:
            pivot_key = min(current)
            inv = Fraction(1) / current[pivot_key]
            reduced.append((pivot_key, {k: v * inv for k, v in current.items()}))
            rank += 1
    return rank


def test_even_part_splits_into_two_blocks():
    # the volume element is central in the even part and squares to +1;
    # its image splits the spinor space into two rank-8 eigenspaces that
    # every even image preserves (the double 8x8 block structure at n=4)
    n = 4
    sig = neutral_signature(n)
    omega = Multivector.blade(sig, (1 << (2 * n)) - 1)
    omega_rep = rep_multivector(omega, n)
    size = 1 << n
    assert mat_eq(mat_mul(omega_rep, omega_rep), identity(size))
    plus = [[(identity(size)[r][c] + omega_rep[r][c]) / 2 for c in range(size)] for r in range(size)]
    minus = [[(identity(size)[r][c] - omega_rep[r][c]) / 2 for c in range(size)] for r in range(size)]
    assert linalg.rank(plus) == 8 and linalg.rank(minus) == 8
    rng = random.Random(99)
    for _ in range(4):
        s = random_even(sig, rng, max_terms=10)
        image = rep_multivector(s, n)
        assert mat_eq(mat_mul(image, plus), mat_mul(plus, image))


def test_build_xi_matches_symbolic():
    rng = random.Random(8)
    for n in (1, 2, 3, 4):
        symbolic = build_xi_symbolic(n)
        for _ in range(5):
            x = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2 * n + 1)]
            assert build_xi(x).entries == symbolic.evaluate(x).entries


def test_build_xi_matches_algebra_image():
    rng = random.Random(9)
    for n in (1, 2, 3):
        for _ in range(4):
            x = [Fraction(rng.randint(-5, 5)) for _ in range(2 * n + 1)]
            via_algebra = rep_multivector(point_element(n, x), n)
            assert mat_eq(build_xi(x).rows(), via_algebra)


#: Rationals with mixed denominators up to 10^6, and zero.
rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)) | st.just(Fraction(0))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_build_is_bit_equal_to_the_fraction_build(data):
    """Xi(x) and Q(x) summed in integers, against the ``Fraction`` accumulation
    of the images E_i and the ``Fraction`` sum of squares, at n = 1..7."""
    n = data.draw(st.integers(1, 7))
    x = data.draw(st.lists(rationals | st.integers(-9, 9), min_size=2 * n + 1, max_size=2 * n + 1))
    entries = [v for row in build_xi(x).entries for v in row]
    expected = [v for row in dense.fraction_build_xi(x) for v in row]
    assert [(type(v), v) for v in entries] == [(type(v), v) for v in expected]
    q = quadratic_form(x)
    assert type(q) is Fraction and q == sum(Fraction(v) ** 2 * (-1) ** i for i, v in enumerate(x))


def test_build_xi_worked_point():
    evaluated = build_xi([0, 1, 1, 0, 0])
    expected = [
        [0, -2, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 2],
        [0, 0, 0, 0],
    ]
    assert evaluated.rows() == [[Fraction(v) for v in row] for row in expected]


def test_xi_unit_point_diagonal():
    evaluated = build_xi([1, 0, 0, 0, 0])
    diag = [evaluated.rows()[i][i] for i in range(4)]
    assert diag == [Fraction(1), Fraction(-1), Fraction(-1), Fraction(1)]


def test_xi_square_check_values():
    assert xi_square_check([1, 0, 0]) == 1
    assert xi_square_check([0, 1, 1, 0, 0]) == 0
    rng = random.Random(21)
    for _ in range(10):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(7)]
        assert xi_square_check(x) == quadratic_form(x)


def test_square_identity_failure_names_the_entry():
    x = [1, 2, 3, 4, 5]
    rows = build_xi(x).rows()
    rows[1][2] += 1
    tampered = XiMatrix(2, tuple(map(tuple, rows)), symbolic=False)
    with pytest.raises(InvariantViolation, match=re.escape("entry (0, 2): -5, expected 0 with Q(x) = 15")):
        tampered.verify_square_identity(x)
    for (r, c), message in [((1, 2), "entry (0, 2): -5/3, expected 0"), ((0, 0), "entry (0, 0): 142/9, expected 15")]:
        rows = build_xi(x).rows()
        rows[r][c] += Fraction(1, 3)
        tampered = XiMatrix(2, tuple(map(tuple, rows)), symbolic=False)
        with pytest.raises(InvariantViolation, match=re.escape(f"{message} with Q(x) = 15")):
            tampered.verify_square_identity(x)
    rows = build_xi_symbolic(2).rows()
    rows[0][1] = -rows[0][1]
    tampered = XiMatrix(2, tuple(map(tuple, rows)), symbolic=True)
    found = "1*x0*x0 + 1*x1*x1 + -1*x2*x2 + -1*x3*x3 + 1*x4*x4"
    expected = "1*x0*x0 + -1*x1*x1 + 1*x2*x2 + -1*x3*x3 + 1*x4*x4"
    with pytest.raises(InvariantViolation, match=re.escape(f"entry (0, 0): {found}, expected {expected}")):
        tampered.verify_square_identity()


def first_square_failure(rows, q):
    """Dense Fraction square of rows: the first entry, in row order, off Q(x) I."""
    size = len(rows)
    for r in range(size):
        for c in range(size):
            value = sum(rows[r][k] * rows[k][c] for k in range(size))
            expected = q if r == c else Fraction(0)
            if value != expected:
                return f"entry ({r}, {c}): {value}, expected {expected} with Q(x) = {q}"
    return None


@pytest.mark.parametrize(
    "x",
    [
        [1, 2, 3, 4, 5],
        [-2, 1, 0, 3, 1, 4, -1],
        [Fraction(1, 2), Fraction(3, 5), 2, Fraction(1, 7), Fraction(5, 4)],
        [Fraction(-3, 4), 1, Fraction(2, 9), 0, Fraction(7, 10), Fraction(1, 2), 5],
    ],
)
def test_square_check_catches_tampering_with_any_denominator(x):
    # A tampered entry whose denominator the coordinates do not share must
    # still be seen, and reported at its exact rational value.
    q = quadratic_form(x)
    n = (len(x) - 1) // 2
    size = 1 << n
    for r, c in [(1, 2), (0, size - 1), (size - 1, 0), (0, 0), (size - 1, size - 1)]:
        for delta in (Fraction(1, 3), Fraction(-2, 7), Fraction(1, 1000)):
            rows = build_xi(x).rows()
            rows[r][c] += delta
            expected = first_square_failure(rows, q)
            assert expected is not None
            tampered = XiMatrix(n, tuple(map(tuple, rows)), symbolic=False)
            with pytest.raises(InvariantViolation, match=re.escape(expected)):
                tampered.verify_square_identity(x)


def _square_outcome(xi, x):
    """The message of the evaluated square check at x, or None when it passes."""
    try:
        xi.verify_square_identity(x)
    except InvariantViolation as exc:
        return str(exc)
    return None


@pytest.fixture
def squarings(monkeypatch):
    """Counts the calls of the evaluated squaring behind verify_square_identity."""
    calls = []
    square = matrices._verify_evaluated_square
    monkeypatch.setattr(matrices, "_verify_evaluated_square", lambda *args: calls.append(1) or square(*args))
    return calls


def _points_with_cancelling_entries(n, rng):
    """x = 0, x = e_0, x^(2l-1) = +-x^(2l) for each l (an expected entry is 0),
    and a point with mixed denominators."""
    size = 2 * n + 1
    points = [[0] * size, [1] + [0] * (size - 1)]
    for level in range(1, n + 1):
        for sign in (1, -1):
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)]
            x[2 * level] = sign * x[2 * level - 1]
            points.append(x)
    points.append([Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(size)])
    return points


@pytest.mark.parametrize("n", range(1, MAX_RANK + 1))
def test_point_matrices_are_decided_without_squaring(n, squarings):
    # Xi(x) is sum_i x^i C_i, whose square the symbolic build has decided, so
    # neither build route reaches the squaring; it is 1 for a tampered matrix
    rng = random.Random(700 + n)
    symbolic = build_xi_symbolic(n)
    for x in _points_with_cancelling_entries(n, rng):
        q = quadratic_form(x)
        evaluated = symbolic.evaluate(x)
        assert all(v is _ZERO for row, srow in zip(evaluated.entries, symbolic.entries)
                   for v, entry in zip(row, srow) if not entry.terms)
        assert build_xi(x).verify_square_identity(x) == q
        assert evaluated.verify_square_identity(x) == q
    assert squarings == []
    x = _points_with_cancelling_entries(n, rng)[-1]
    rows = build_xi(x).rows()
    rows[0][-1 if n > 1 else 0] += 1  # off the pattern, except at n = 1
    with pytest.raises(InvariantViolation, match="point-matrix square identity failed"):
        XiMatrix(n, tuple(map(tuple, rows)), symbolic=False).verify_square_identity(x)
    assert squarings == [1]


def test_squaring_is_reached_for_every_matrix_that_is_not_xi(squarings):
    x = [Fraction(1, 2), 3, Fraction(-2, 7), 1, 0]
    xi = build_xi(x)
    negated = XiMatrix(2, tuple(tuple(-v for v in row) for row in xi.entries), symbolic=False)
    assert negated.verify_square_identity(x) == quadratic_form(x)  # -Xi(x) squares to Q(x) I
    other = [Fraction(1, 2), 1, Fraction(-2, 7), 3, 0]  # the same Q at another point
    assert xi.verify_square_identity(other) == quadratic_form(other) == quadratic_form(x)
    assert len(squarings) == 2
    # coordinates of another rank keep the squaring's outcome
    assert build_xi([1, 0, 0]).verify_square_identity([1, 0, 0, 0, 0]) == 1 and len(squarings) == 3


def test_point_check_is_independent_of_the_triples(monkeypatch):
    # the point pattern comes from the decided C_i, not from point_blade_images:
    # a build_xi that sums a broken image is still caught; both per-rank tables
    # are cleared, or a cached triple table would hide the broken image
    images = matrices.point_blade_images(3)
    broken = (images[0], images[2]) + images[2:]  # E_1 replaced by E_2
    matrices._point_pattern.cache_clear()
    matrices._triple_pattern.cache_clear()
    monkeypatch.setattr(matrices, "point_blade_images", lambda n: broken if n == 3 else images)
    try:
        x = [1, 2, 3, 0, 0, 0, 0]
        with pytest.raises(InvariantViolation, match="point-matrix square identity failed"):
            build_xi(x).verify_square_identity(x)
    finally:
        matrices._point_pattern.cache_clear()
        matrices._triple_pattern.cache_clear()


def _with_fresh_zeros(entries, zero):
    """The rows with every shared zero replaced by a fresh zero object."""
    return [[(Fraction(zero) if type(zero) is Fraction else zero) if v is _ZERO else v for v in row] for row in entries]


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_point_check_counts_other_zero_objects_exactly(n, squarings):
    # the identity count of the shared zero falls short on fresh Fraction(0)
    # or 0 objects, and the exact count decides them: still no squaring
    rng = random.Random(740 + n)
    for x in _points_with_cancelling_entries(n, rng):
        for zero in (Fraction(0), 0):
            rows = _with_fresh_zeros(build_xi(x).entries, zero)
            assert not any(v is _ZERO for row in rows for v in row)
            xi = XiMatrix(n, tuple(map(tuple, rows)), symbolic=False)
            assert xi.verify_square_identity(x) == quadratic_form(x)
    assert squarings == []


@pytest.mark.parametrize("n", [2, 3])
def test_point_check_squares_a_stray_entry_among_other_zero_objects(n, squarings):
    # an entry off the pattern that is not zero fails the exact count too, and
    # the squaring names it, with shared and with fresh zeros around it
    rng = random.Random(760 + n)
    x = _points_with_cancelling_entries(n, rng)[-1]
    q = quadratic_form(x)
    forms, pattern, _ = matrices._point_pattern(n)
    c = min(set(range(1 << n)) - {c for c, _ in pattern[0]})
    for rows in (build_xi(x).rows(), _with_fresh_zeros(build_xi(x).entries, Fraction(0))):
        rows[0][c] = Fraction(1, 3)
        expected = first_square_failure(rows, q)
        with pytest.raises(InvariantViolation, match=re.escape(f"point-matrix square identity failed at {expected}")):
            XiMatrix(n, tuple(map(tuple, rows)), symbolic=False).verify_square_identity(x)
    assert squarings == [1, 1]


@pytest.mark.parametrize("n", range(1, MAX_RANK + 1))
def test_triple_table_build_equals_the_poly_evaluation_and_the_fraction_build(n):
    # build_xi evaluates the table read off the triples; the Poly evaluation
    # of the decided symbolic matrix shares no code with its grouping, and the
    # Fraction accumulation of the images E_i none with its table
    rng = random.Random(800 + n)
    symbolic = build_xi_symbolic(n)
    points = _points_with_cancelling_entries(n, rng)
    points.append([Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(2 * n + 1)])
    for x in points if n < 7 else points[::3]:
        entries = build_xi(x).entries
        assert entries == symbolic.evaluate(x).entries
        assert [list(row) for row in entries] == dense.fraction_build_xi(x)
        assert all(type(v) is Fraction for row in entries for v in row)
        assert all(v is _ZERO for row in entries for v in row if not v)


@pytest.mark.parametrize("n", range(0, MAX_RANK + 1))
def test_integer_columns_equal_the_triple_sum(n):
    # the table's columns against the image-by-image sum over the triples,
    # with the entries that cancel dropped
    rng = random.Random(820 + n)
    for x in _points_with_cancelling_entries(n, rng):
        ints = linalg._cleared([Fraction(v) for v in x])[0]
        expected = [{r: v for r, v in column.items() if v} for column in dense.triple_sum_columns(n, ints)]
        assert matrices._integer_columns(n, ints) == expected


def test_triple_table_is_built_on_first_use():
    # nothing builds the table at import, so it never counts as start-up work
    code = (
        "import spinorlab, spinorlab.cli\n"
        "from spinorlab import matrices\n"
        "print(matrices._triple_pattern.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(matrices.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "0"


def test_triple_table_at_max_rank_within_budget():
    """The table at MAX_RANK from a cleared cache, plus one build and check,
    under 1 s (about 3 ms on a 2-vCPU VM); the symbolic side it is checked
    against is built outside the timed region."""
    rng = random.Random(89)
    x = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(2 * MAX_RANK + 1)]
    matrices._point_pattern(MAX_RANK)
    matrices._triple_pattern.cache_clear()
    started = time.perf_counter()
    matrices._triple_pattern(MAX_RANK)
    assert build_xi(x).verify_square_identity(x) == quadratic_form(x)
    assert time.perf_counter() - started < 1.0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_point_check_agrees_with_the_dense_square(data):
    # single-entry tamperings, Xi(x') checked at x, and -Xi(x), at n <= 4
    n = data.draw(st.integers(1, 4))
    size = 1 << n
    coords = st.lists(rationals | st.integers(-9, 9), min_size=2 * n + 1, max_size=2 * n + 1)
    x = data.draw(coords)
    q = quadratic_form(x)
    rows = build_xi(x).rows()
    r, c = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
    rows[r][c] += data.draw(rationals.filter(bool))
    cases = [rows, build_xi(data.draw(coords)).rows()]
    for rows in cases:
        expected = first_square_failure(rows, q)
        outcome = _square_outcome(XiMatrix(n, tuple(map(tuple, rows)), symbolic=False), x)
        assert outcome == (None if expected is None else f"point-matrix square identity failed at {expected}")
    negated = XiMatrix(n, tuple(tuple(-v for v in row) for row in build_xi(x).entries), symbolic=False)
    assert _square_outcome(negated, x) is None


def test_point_check_at_max_rank_within_budget():
    """A warm evaluated check at MAX_RANK under 50 ms (about 2 ms on a 2-vCPU
    VM), and the per-rank set-up it rests on, the symbolic build and its
    point pattern, from cleared caches in under 1 s (about 0.1 s)."""
    build_xi_symbolic.cache_clear()
    matrices._point_pattern.cache_clear()
    started = time.perf_counter()
    matrices._point_pattern(MAX_RANK)
    assert time.perf_counter() - started < 1.0
    rng = random.Random(88)
    x = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(2 * MAX_RANK + 1)]
    xi = build_xi(x)
    started = time.perf_counter()
    assert xi.verify_square_identity(x) == quadratic_form(x)
    assert time.perf_counter() - started < 0.05


@pytest.mark.parametrize("n", range(1, 6))
def test_symbolic_square_agrees_with_the_polynomial_square(n):
    xi = build_xi_symbolic(n)
    xi.verify_square_identity()
    dense.verify_symbolic_square(xi)


def _tampered_symbolic(n):
    """Single-entry tamperings of the rank-n symbolic matrix, as (label, rows)."""
    base = build_xi_symbolic(n)
    nonzero = [(r, c) for r, row in enumerate(base.entries) for c, entry in enumerate(row) if entry.terms]
    swap = {"x1": "x2", "x2": "x1"}
    x0, x1 = Poly.var("x0"), Poly.var("x1")
    edits = [
        ("flip", lambda e: -e),
        ("swap_x1_x2", lambda e: Poly({tuple(swap.get(v, v) for v in m): k for m, k in e.terms.items()})),
        ("zero", lambda e: Poly.zero()),
        ("double", lambda e: 2 * e),
    ]
    for label, edit in edits:
        for r, c in nonzero:
            rows = base.rows()
            rows[r][c] = edit(rows[r][c])
            if rows[r][c] != base.entries[r][c]:
                yield f"{label} ({r}, {c})", rows
    for label, (r, c), entry in [
        ("quadratic", nonzero[0], x1 * x1),
        ("non-integer", nonzero[-1], x0 * Fraction(1, 2)),
    ]:
        rows = base.rows()
        rows[r][c] = entry
        yield f"{label} ({r}, {c})", rows


@pytest.mark.parametrize("n", [2, 3])
def test_symbolic_square_rejects_every_tampering_like_the_polynomial_square(n):
    seen = set()
    for label, rows in _tampered_symbolic(n):
        seen.add(label.split()[0])
        tampered = XiMatrix(n, tuple(map(tuple, rows)), symbolic=True)
        with pytest.raises(InvariantViolation) as oracle:
            dense.verify_symbolic_square(tampered)
        with pytest.raises(InvariantViolation) as decided:
            tampered.verify_square_identity()
        if label.startswith(("quadratic", "non-integer")):
            # a broken convention is named at the entry itself
            position = label.split(" ", 1)[1]
            assert str(decided.value).startswith(f"symbolic point-matrix entry {position} is not an integer"), label
        else:
            assert str(decided.value) == str(oracle.value), label
    assert seen == {"flip", "swap_x1_x2", "zero", "double", "quadratic", "non-integer"}


def test_quadratic_form_examples():
    assert quadratic_form([1, 0, 0]) == 1
    assert quadratic_form([0, 1, 1, 0, 0]) == 0
    assert quadratic_form([0, 0, 0, 1, 0]) == -1
    with pytest.raises(ValueError):
        quadratic_form([1, 2])


def test_zero_point_gives_zero_matrix():
    assert all(v == 0 for row in build_xi([0, 0, 0, 0, 0]).rows() for v in row)


def test_singular_on_the_quadric():
    rng = random.Random(33)
    for n in (1, 2, 3):
        for _ in range(6):
            x = _random_absolute_point(n, rng)
            assert quadratic_form(x) == 0
            assert det(build_xi(x).rows()) == 0


def _random_absolute_point(n, rng):
    # Q = x0^2 + sum(s_i d_i) with s = x^{2i-1}+x^{2i}, d = x^{2i}-x^{2i-1};
    # solve one difference so the total vanishes
    while True:
        x0 = Fraction(rng.randint(-4, 4))
        sums = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        diffs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        pivot = next((i for i, s in enumerate(sums) if s), None)
        if pivot is None:
            continue
        residue = -x0 * x0 - sum(s * d for i, (s, d) in enumerate(zip(sums, diffs)) if i != pivot)
        diffs[pivot] = residue / sums[pivot]
        x = [x0]
        for s, d in zip(sums, diffs):
            x.extend([(s - d) / 2, (s + d) / 2])
        if any(x):
            return x


def test_rep_even_element_rejects_other_signatures():
    from spinorlab import Signature

    s = SpinElement(Multivector.scalar(Signature(2, 2), 1))
    with pytest.raises(ValueError):
        rep_multivector(s.value, 2)


def test_xi_json_forms():
    symbolic = build_xi_symbolic(1)
    assert symbolic.to_json() == {"n": 1, "rows": XI_1_TOKENS}
    evaluated = build_xi([1, 0, 0])
    payload = evaluated.to_json()
    assert payload["rows"][0][0] == Fraction(-1)
