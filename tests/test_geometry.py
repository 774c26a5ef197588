"""Absolute geometry: kernels, plane generators, the two-valued spinor map."""

import collections
import contextlib
import io
import itertools
import json
import random
import re
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spinorlab.cli
import spinorlab.geometry
from spinorlab import (
    INTERLEAVED,
    InvariantViolation,
    Multivector,
    PointClass,
    SpinElement,
    SpinorCoords,
    Signature,
    apply_rotation,
    classify_point,
    generator_to_spinor,
    independent_system,
    kernel_spinors,
    linalg,
    motion_on_points,
    motion_on_spinors,
    neutral_signature,
    normalize,
    quadratic_form,
    random_spin_element,
    reduction_identities,
)
from spinorlab.geometry import _coordinate_names, _validate_generator_geometry, _verify_spinor_matches, annihilates
from spinorlab.geometry import spinor_images
from spinorlab.matrices import MAX_RANK, build_xi, generator_images, rep_multivector
from spinorlab.spin import _chart, _residuals

import dense
from dense import dense_kernel_equivariance, generator_rows, generator_rows_annihilate, mat_eq, mat_mul, mat_vec
from dense import null_space_kernel
from dense import primitive


def frac(values):
    return [Fraction(v) for v in values]


def random_absolute_point(n, rng):
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


def random_relation_spinor(n, rng, allow_zero_entries=True):
    """Random spinor with nonzero scalar, completed by the relations."""
    scalar = Fraction(0)
    while scalar == 0:
        scalar = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    vector = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    skew = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            skew[(i, j)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return SpinorCoords.from_low_grade(n, scalar, vector, skew)


# -- point classification -------------------------------------------------------


def test_classify_point_cases():
    assert classify_point([1, 0, 0], 1) is PointClass.PROPER
    assert classify_point([1, 0, 0], -1) is PointClass.IDEAL
    assert classify_point([0, 1, 0], 1) is PointClass.IDEAL
    assert classify_point([0, 1, 0], -1) is PointClass.PROPER
    assert classify_point([0, 1, 1, 0, 0], 1) is PointClass.ABSOLUTE
    assert classify_point([0, 1, 1, 0, 0], -1) is PointClass.ABSOLUTE
    with pytest.raises(ValueError):
        classify_point([0, 0, 0], 1)
    with pytest.raises(ValueError):
        classify_point([1, 0, 0], 2)


# -- kernels ---------------------------------------------------------------------


def test_kernel_rank_one_example():
    basis = kernel_spinors([0, 1, 1])
    assert len(basis) == 1
    assert basis[0].values == frac([1, 0])


def test_kernel_worked_point():
    basis = kernel_spinors([0, 1, 1, 0, 0])
    assert [b.values for b in basis] == [frac([1, 0, 0, 0]), frac([0, 0, 1, 0])]


def test_kernel_rejects_non_absolute():
    with pytest.raises(ValueError):
        kernel_spinors([1, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        kernel_spinors([0, 0, 0, 0, 0])


def test_kernel_spinors_error_messages_in_order():
    # zero vector, then odd count, then non-absolute, then rank: each case
    # also fails every later check
    zero = "the zero vector does not represent a point"
    odd = "point coordinates come as x^0..x^{2n}, an odd count >= 3"
    absolute = "kernel spinors exist only for absolute points"
    cases = [
        ([], zero),
        ([0, 0], zero),
        ([Fraction(0)] * 19, zero),
        ([1, 1], odd),
        ([1, 0, 0, 0], odd),
        ([1, 0, 0], absolute),
        ([Fraction(1, 2)] + [0] * 18, absolute),
        ([0, 1, 1] + [0] * 16, "neutral rank must lie in 1..8, got 9"),
    ]
    for x, message in cases:
        with pytest.raises(ValueError) as raised:
            kernel_spinors(x)
        assert str(raised.value) == message, x


@pytest.mark.parametrize("n", [1, 2])
def test_kernel_dimension_on_integer_grid(n):
    # exhaustive over all absolute points with coordinates in {-1, 0, 1}
    from itertools import product

    count = 0
    for x in product((-1, 0, 1), repeat=2 * n + 1):
        if not any(x) or quadratic_form(x) != 0:
            continue
        assert len(kernel_spinors(list(x))) == 1 << (n - 1)
        count += 1
    assert count > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_dimension_random(n):
    rng = random.Random(500 + n)
    for _ in range(15):
        x = random_absolute_point(n, rng)
        basis = kernel_spinors(x)
        assert len(basis) == 1 << (n - 1)
        xi_rows = build_xi(x).rows()
        for vec in basis:
            assert all(v == 0 for v in mat_vec(xi_rows, vec.values))


@pytest.mark.parametrize("n", [7, 8])
def test_kernel_at_large_rank_within_budget(n):
    x = random_absolute_point(n, random.Random(700 + n))
    started = time.perf_counter()
    basis = kernel_spinors(x)
    assert time.perf_counter() - started < 10.0
    assert len(basis) == 1 << (n - 1)
    xi_rows = build_xi(x).rows()
    for vec in (basis[0], basis[-1]):
        assert all(v == 0 for v in mat_vec(xi_rows, vec.values))


def draw_absolute_point(data, n):
    """A point of the absolute at rank n, built down the block recursion
    Xi = [[-Xi', alpha I], [beta I, Xi']], Q = Q' + alpha beta: at each rank
    either beta != 0 and alpha solves Q = 0, or beta = 0 over an absolute
    lower point, with alpha != 0 or alpha = 0.  It may be the zero point."""
    case = data.draw(st.sampled_from(("beta", "beta_zero", "alpha_beta_zero")))
    if n == 1 and case != "beta":
        lower = [Fraction(0)]
    elif case != "beta":
        lower = draw_absolute_point(data, n - 1)
    else:
        lower = data.draw(st.lists(rationals, min_size=2 * n - 1, max_size=2 * n - 1))
    if case == "beta":
        beta = data.draw(rationals.filter(bool))
        alpha = -sum(v * v if i % 2 == 0 else -v * v for i, v in enumerate(lower)) / beta
    else:
        beta = Fraction(0)
        alpha = data.draw(rationals.filter(bool)) if case == "beta_zero" else Fraction(0)
    return lower + [(alpha - beta) / 2, (alpha + beta) / 2]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_read_off_is_bit_equal_to_the_null_space_route(data):
    """The block-recursion read-off against elimination on the ``Fraction``-built
    Xi(x), at n = 1..7, with beta = 0 and alpha = beta = 0 forced at some ranks
    of most draws and denominators up to 10^6."""
    n = data.draw(st.integers(1, 7))
    x = draw_absolute_point(data, n)
    assume(any(x))
    assert bits(v for vec in kernel_spinors(x) for v in vec.values) == bits(
        v for vec in null_space_kernel(x) for v in vec
    )


def test_kernel_read_off_covers_every_case_of_the_recursion():
    # the integer grid at n = 2 reaches all four cases at the top rank, and
    # each agrees with elimination
    from itertools import product

    seen = set()
    for x in product((-1, 0, 1), repeat=5):
        if not any(x) or quadratic_form(x) != 0:
            continue
        alpha, beta = x[3] + x[4], x[4] - x[3]
        lower_zero = not any(x[:3])
        seen.add("beta" if beta else "alpha_beta_zero" if not alpha else "lower_zero" if lower_zero else "beta_zero")
        assert [vec.values for vec in kernel_spinors(list(x))] == null_space_kernel(x)
    assert seen == {"beta", "alpha_beta_zero", "lower_zero", "beta_zero"}


def test_kernel_read_off_at_max_rank_within_budget():
    # one point for each case at the top rank, built outside the timed region
    rng = random.Random(800)
    lower = random_absolute_point(MAX_RANK - 1, rng)
    points = [random_absolute_point(MAX_RANK, rng), lower + [Fraction(3, 2)] * 2, lower + [0, 0]]
    for x in points:
        started = time.perf_counter()
        basis = kernel_spinors(x)
        assert time.perf_counter() - started < 0.5
        assert len(basis) == 1 << (MAX_RANK - 1)
        assert annihilates(x, *basis)


@pytest.mark.parametrize("n", range(1, 7))
def test_annihilates_agrees_with_the_generator_rows(n):
    # kernel vectors, and each with one coordinate changed, at points with
    # rational coordinates
    rng = random.Random(900 + n)
    still_killed = rejected = 0
    for _ in range(3):
        x = random_absolute_point(n, rng)
        for vec in kernel_spinors(x):
            values = list(vec.values)
            values[rng.randrange(len(values))] += Fraction(rng.randint(1, 3), rng.randint(1, 2))
            assert annihilates(x, vec) and generator_rows_annihilate(x, vec)
            changed = SpinorCoords(n, values)
            verdict = annihilates(x, changed)
            assert verdict == generator_rows_annihilate(x, changed)
            still_killed += verdict
            rejected += not verdict
    assert rejected > still_killed


# -- spinor coordinates ----------------------------------------------------------


def test_from_low_grade_four_index():
    spinor = SpinorCoords.from_low_grade(4, 1, [0, 0, 0, 0], {(1, 2): 1, (3, 4): 2})
    assert spinor.coefficient(0b1111) == 2  # Pfaffian completion
    assert spinor.satisfies_relations()


def test_relation_residuals_detect_violation():
    values = [0] * 8
    values[0] = 1  # scalar
    values[7] = 1  # a^123
    spinor = SpinorCoords(3, values)
    assert not spinor.satisfies_relations()


def _obeys_relations(a, sig, chart=True):
    """The relation test of the renamed spinor, with the renamed element built
    in sig, on its chart or on the element itself."""
    renamed = Multivector(sig, {mask | (mask.bit_count() % 2) << a.n: v for mask, v in enumerate(a.values)})
    element = _chart(renamed) if chart else renamed
    return all(v == 0 for _, v in _residuals(*element._cleared_terms(), a.n + 1))


def _pure_by_rank(a):
    """Independent oracle: the 2^n generator equations have rank n+1."""
    return linalg.rank(generator_rows(a)) == a.n + 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_relations_decide_purity_on_every_small_spinor(n):
    """Every nonzero spinor with coordinates in {-1, 0, 1}: the chart obeys
    the relations exactly when the generator system has rank n+1."""
    for values in itertools.product((-1, 0, 1), repeat=1 << n):
        if any(values):
            a = SpinorCoords(n, values)
            assert a.satisfies_relations() == _pure_by_rank(a), values


@pytest.mark.parametrize("n", [4, 5])
def test_relations_decide_purity_on_zero_scalar_spinors(n):
    """Zero-scalar spinors: pure ones moved by a blade, and sparse ones.  The
    verdict agrees with the rank, whatever signature the renamed element is
    built in; without the chart, some impure spinors pass the relations."""
    rng = random.Random(40 + n)
    sig = neutral_signature(n)
    others = (Signature(1, n), Signature(n + 1 - (n + 1) // 2, (n + 1) // 2, INTERLEAVED))
    seen = collections.Counter()
    for _ in range(200):
        blade = Multivector.blade(sig, rng.randrange(1, 1 << 2 * n))
        moved = spinor_images(blade, [random_relation_spinor(n, rng)])[0]
        sparse = SpinorCoords(n, [0] + [rng.choice((-1, 0, 0, 0, 1)) for _ in range((1 << n) - 1)])
        for a in (moved, sparse):
            if a.scalar_coord() or a.is_zero():
                continue
            pure = _pure_by_rank(a)
            assert a.satisfies_relations() == pure
            assert all(_obeys_relations(a, other) == pure for other in others)
            seen[pure, _obeys_relations(a, others[0], chart=False)] += 1
    assert seen[True, True] and seen[False, False] and seen[False, True] and not seen[True, False]


def test_spinor_json_roundtrip():
    spinor = SpinorCoords(2, [1, Fraction(1, 2), 0, -3])
    payload = spinor.to_json()
    assert all(type(v) is Fraction for v in spinor.values)  # outside input is converted
    assert payload == {"a": Fraction(1), "a1": Fraction(1, 2), "a2": Fraction(0), "a12": Fraction(-3)}
    assert SpinorCoords.from_json(2, payload) == spinor


@pytest.mark.parametrize("n", range(1, MAX_RANK + 1))
def test_coordinate_names_are_formed_once_per_rank(n):
    assert _coordinate_names(n) == tuple(SpinorCoords.coordinate_name(mask) for mask in range(1 << n))


# -- independent systems ---------------------------------------------------------


def test_independent_system_unit_spinor_rank_two():
    g = independent_system(SpinorCoords(2, [1, 0, 0, 0]))
    assert g.row_masks == (0, 1, 2)
    assert g.equations == (
        (1, 0, 0, 0, 0),
        (0, 1, -1, 0, 0),
        (0, 0, 0, -1, 1),
    )
    assert g.projective_dimension == 1
    assert set(g.basis) == {(0, 1, 1, 0, 0), (0, 0, 0, 1, 1)}


def test_independent_system_unit_spinor_rank_one():
    g = independent_system(SpinorCoords(1, [1, 0]))
    assert g.row_masks == (0, 1)
    assert g.basis == ((0, 1, 1),)
    assert quadratic_form(g.basis[0]) == 0


def test_independent_system_rejects_zero_and_violations():
    with pytest.raises(ValueError):
        independent_system(SpinorCoords(2, [0, 0, 0, 0]))
    bad = SpinorCoords(3, [1, 0, 0, 0, 0, 0, 0, 1])
    with pytest.raises(ValueError):
        independent_system(bad)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_all_equations_follow_from_selected(n):
    rng = random.Random(700 + n)
    for _ in range(10):
        a = random_relation_spinor(n, rng)
        g = independent_system(a)
        assert g.row_masks == (0,) + tuple(1 << (i - 1) for i in range(1, n + 1))
        full = generator_rows(a)
        for point in g.basis:
            for row in full:
                assert sum(c * v for c, v in zip(row, point)) == 0
        # span of solutions is inside the quadric
        for u in g.basis:
            for v in g.basis:
                s = [a_ + b_ for a_, b_ in zip(u, v)]
                assert quadratic_form(s) == 0


def test_generator_in_hyperplane_for_pure_bivector_spinor():
    g = independent_system(SpinorCoords(2, [0, 0, 0, 1]))
    assert g.row_masks == (1, 2, 3)
    # every solution has x0 = 0
    assert all(point[0] == 0 for point in g.basis)
    assert g.projective_dimension == 1


# -- reduction identities ---------------------------------------------------------


def test_pair_identity_unconditional_rank_two():
    rng = random.Random(41)
    for _ in range(20):
        a = SpinorCoords(2, [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(4)])
        x = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
        b = mat_vec(build_xi(x).rows(), a.values)
        report = reduction_identities(a, b)
        assert report.pairs_ok


def test_identities_hold_for_relation_spinors_rank_three():
    rng = random.Random(43)
    for _ in range(10):
        a = random_relation_spinor(3, rng)
        x = [Fraction(rng.randint(-5, 5)) for _ in range(7)]
        b = mat_vec(build_xi(x).rows(), a.values)
        report = reduction_identities(a, b)
        assert report.conditions_ok
        assert report.pairs_ok
        assert report.triples_ok


def test_triple_identity_fails_without_condition():
    a = SpinorCoords(3, [1, 0, 0, 0, 0, 0, 0, 1])  # violates the triple condition
    x = [Fraction(v) for v in (1, 2, 3, 4, 5, 6, 7)]
    b = mat_vec(build_xi(x).rows(), a.values)
    report = reduction_identities(a, b)
    assert not report.conditions_ok
    assert not report.triples_ok or not report.pairs_ok


def test_zero_image_trivial():
    a = SpinorCoords(2, [1, 2, 3, 4])
    report = reduction_identities(a, [0, 0, 0, 0])
    # with b = 0 every identity collapses to a*0 = 0
    assert report.pairs_ok and report.triples_ok


# -- generator <-> spinor correspondence ------------------------------------------


@pytest.mark.parametrize("n", range(1, MAX_RANK + 1))
def test_roundtrip_exact_on_relation_spinors(n):
    rng = random.Random(900 + n)
    for _ in range(12):
        a = random_relation_spinor(n, rng)
        recovered = generator_to_spinor(independent_system(a))
        assert recovered == a


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_read_off_rejects_any_changed_canonical_entry(n):
    # a changed canonical entry never keeps the stored scale: the rows stop
    # being a multiple of the product's.  The plane then has to match the
    # stored equations, which holds only where the changed column is zero on
    # every basis point, so the row space is unchanged
    rng = random.Random(950 + n)
    for _ in range(4):
        a = random_relation_spinor(n, rng)
        g = independent_system(a)
        assert g.row_masks == (0,) + tuple(1 << i for i in range(n))
        assert generator_to_spinor(g) == a
        for k, row in enumerate(g.equations):
            for i in range(len(row)):
                for delta in (Fraction(1), Fraction(-1), Fraction(1, 2)):
                    changed = list(g.equations)
                    changed[k] = row[:i] + (row[i] + delta,) + row[i + 1 :]
                    changed_g = replace(g, equations=tuple(changed))
                    if all(point[i] == 0 for point in g.basis):
                        assert generator_to_spinor(changed_g).values == primitive(a.values)
                    else:
                        with pytest.raises(ValueError):
                            generator_to_spinor(changed_g)


def test_read_off_check_names_the_point():
    g = independent_system(SpinorCoords(2, [1, 0, 0, 0]))
    with pytest.raises(InvariantViolation, match=re.escape("generator point (0, 1, 1, 0, 0)")):
        _verify_spinor_matches(SpinorCoords(2, [1, 0, 0, 1]), g, _validate_generator_geometry(g))


def test_roundtrip_worked_line():
    a = SpinorCoords(2, [1, 0, 0, 0])
    assert generator_to_spinor(independent_system(a)) == a


def test_fallback_for_hyperplane_generators():
    a = SpinorCoords(2, [0, 0, 0, 5])
    recovered = generator_to_spinor(independent_system(a))
    assert recovered.values == frac([0, 0, 0, 1])  # primitive representative
    b = SpinorCoords(3, [0, 0, 0, 0, 0, 0, 0, -2])
    recovered3 = generator_to_spinor(independent_system(b))
    assert recovered3.values == frac([0, 0, 0, 0, 0, 0, 0, 1])


def test_generator_to_spinor_uniqueness_is_projective():
    rng = random.Random(77)
    a = random_relation_spinor(2, rng)
    scaled = SpinorCoords(2, [3 * v for v in a.values])
    g = independent_system(scaled)
    recovered = generator_to_spinor(g)
    assert recovered == scaled  # scale is carried by the stored equations


def test_generator_to_spinor_rejects_non_generators():
    from spinorlab import PlaneGenerator

    bogus = PlaneGenerator(
        n=1,
        row_masks=(0, 1),
        equations=((Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0))),
        basis=((Fraction(0), Fraction(0), Fraction(1)),),
    )
    with pytest.raises(ValueError):
        generator_to_spinor(bogus)


def test_isotropy_messages_diagonal_first():
    # e_1 - e_2 and e_1 + e_2 each lie on the quadric of S(1,1) but not in one
    # plane: B = -2; the point e_0 is off the quadric, and is reported first
    g = independent_system(SpinorCoords(1, [1, 0]))
    pair = ((0, 1, 1), (0, 1, -1))
    with pytest.raises(ValueError, match="^generator span is not totally isotropic$"):
        generator_to_spinor(replace(g, basis=pair))
    for basis in (((1, 0, 0),), pair + ((1, 0, 0),), ((0, 1, 1), (Fraction(1, 3), 0, 0))):
        with pytest.raises(ValueError, match="^generator basis leaves the absolute quadric$"):
            generator_to_spinor(replace(g, basis=basis))
    with pytest.raises(ValueError, match="^generator basis points need 3 coordinates$"):
        generator_to_spinor(replace(g, basis=((0, 1, 1, 0, 0),)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_isotropy_pass_agrees_with_the_quadratic_forms(n):
    """The integer Gram pass against Q of each point and each pairwise sum, on
    generators, their rescaled and mixed bases, and bases with a point moved
    on or off the quadric."""
    rng = random.Random(950 + n)

    def outcome(check, g):
        try:
            check(g)
        except ValueError as error:
            return str(error)
        return None

    for _ in range(12):
        g = independent_system(random_relation_spinor(n, rng))
        basis = [list(point) for point in g.basis]
        scales = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in basis]
        candidates = [basis, [[scale * c for c in p] for scale, p in zip(scales, basis)]]
        if n > 1:
            mixed = [list(p) for p in basis]
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            mixed[0] = [a + c * b for a, b in zip(mixed[0], mixed[1])]
            candidates.append(mixed)
        moved = [list(p) for p in basis]
        moved[rng.randrange(n)] = random_absolute_point(n, rng)
        candidates.append(moved)
        nudged = [list(p) for p in basis]
        nudged[rng.randrange(n)][rng.randrange(2 * n + 1)] += Fraction(1, rng.randint(1, 5))
        candidates.append(nudged)
        for candidate in candidates:
            changed = replace(g, basis=tuple(tuple(p) for p in candidate))
            assert outcome(_validate_generator_geometry, changed) == outcome(dense.validate_generator_geometry, changed)


def cayley_plane(n, rng):
    """Basis of the plane x^0 = 0, x^{2i} = sum_k O_ik x^{2k-1}, with O the
    Cayley transform (I + S)^-1 (I - S) of a random rational skew S, its first
    row negated so that det O = -1."""
    skew = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            skew[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            skew[j][i] = -skew[i][j]
    plus = [[Fraction(i == j) + skew[i][j] for j in range(n)] for i in range(n)]
    columns = [linalg.solve_unique(plus, [Fraction(i == k) - skew[i][k] for i in range(n)]) for k in range(n)]
    basis = []
    for k, column in enumerate(columns):
        x = [Fraction(0)] * (2 * n + 1)
        x[2 * k + 1] = Fraction(1)
        for i, value in enumerate(column):
            x[2 * i + 2] = -value if i == 0 else value
        basis.append(tuple(x))
    return basis


def stacked_kernel(basis):
    """Joint kernel of the dense Xi(x) over the points: the oracle."""
    stacked = []
    for point in basis:
        stacked.extend(build_xi(list(point)).rows())
    return linalg.null_space(stacked)


def test_no_third_representative():
    # the joint kernel of Xi(x) over a generator's points is one-dimensional:
    # a generator pins its spinor ray with no room for a third representative,
    # and Chevalley's product finds that ray, for nonzero and zero scalars
    rng = random.Random(31)
    for n in range(1, 6):
        for _ in range(4):
            a = random_relation_spinor(n, rng)
            g = independent_system(a)
            kernel = stacked_kernel(g.basis)
            assert len(kernel) == 1
            assert primitive(kernel[0]) == primitive(a.values)
            assert primitive(generator_to_spinor(g).values) == primitive(kernel[0])
        for _ in range(4):
            basis = cayley_plane(n, rng)
            assert all(quadratic_form(point) == 0 for point in basis)
            kernel = stacked_kernel(basis)
            assert len(kernel) == 1 and kernel[0][0] == 0
            g = replace(independent_system(SpinorCoords(n, kernel[0])), basis=tuple(basis))
            assert primitive(generator_to_spinor(g).values) == primitive(kernel[0])


def dense_zero_scalar_spinor(n, rng):
    """Image under e_1 of a dense relation spinor with a^1 = 0: e_1 maps
    generators to generators and sends a^1 to the scalar coordinate."""
    skew = {(i, j): Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    vector = [0] + [rng.randint(-3, 3) for _ in range(n - 1)]
    b = SpinorCoords.from_low_grade(n, Fraction(rng.randint(1, 3), rng.randint(1, 2)), vector, skew)
    shift, flips, sign = generator_images(n)[0]
    values = [Fraction(0)] * (1 << n)
    for j, v in enumerate(b.values):
        values[j ^ shift] = -v if ((flips & j).bit_count() & 1) != (sign < 0) else v
    return SpinorCoords(n, values)


def test_generator_to_spinor_at_max_rank_within_budget():
    rng = random.Random(880)
    spinors = [dense_zero_scalar_spinor(MAX_RANK, rng) for _ in range(3)]
    generators = [independent_system(a) for a in spinors]
    for a, g in zip(spinors, generators):
        assert a.scalar_coord() == 0 and sum(1 for v in a.values if v) > 200
        assert g.row_masks != (0,) + tuple(1 << i for i in range(MAX_RANK))
    started = time.perf_counter()
    recovered = [generator_to_spinor(g) for g in generators]
    assert time.perf_counter() - started < 2.0
    assert [r.values for r in recovered] == [primitive(a.values) for a in spinors]


def test_generator_to_spinor_rejects_partial_and_mismatched_planes():
    rng = random.Random(890)
    for n in (2, 3):
        for a in (random_relation_spinor(n, rng), dense_zero_scalar_spinor(n, rng)):
            g = independent_system(a)
            for basis in (g.basis[1:], g.basis[:-1] + g.basis[:1]):
                with pytest.raises(ValueError, match="unique spinor ray"):
                    generator_to_spinor(replace(g, basis=basis))
            other = independent_system(random_relation_spinor(n, rng))
            with pytest.raises(ValueError, match="plane differs"):
                generator_to_spinor(replace(other, basis=g.basis))


def test_generator_to_spinor_rejects_malformed_equations():
    # rows short of a coefficient, on the zero-scalar and the canonical branch;
    # no rows at all cut out more than the plane
    for a in (SpinorCoords(2, [0, 0, 0, 5]), SpinorCoords(2, [1, 0, 0, 0])):
        g = independent_system(a)
        for equations in (tuple(row[:-1] for row in g.equations), g.equations[:1] + (g.equations[1][:-1],)):
            with pytest.raises(ValueError, match="^generator equations need 5 coefficients$"):
                generator_to_spinor(replace(g, equations=equations))
        with pytest.raises(ValueError, match="plane differs"):
            generator_to_spinor(replace(g, equations=()))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_to_spinor_rejects_a_dropped_equation(n):
    # n of the n+1 equations still vanish on the plane, but have rank n
    rng = random.Random(1000 + n)
    for a in (random_relation_spinor(n, rng), dense_zero_scalar_spinor(n, rng)):
        g = independent_system(a)
        for k in range(n + 1):
            dropped = replace(g, equations=g.equations[:k] + g.equations[k + 1 :])
            with pytest.raises(ValueError, match="^inconsistent system: plane differs from the spinor's generator$"):
                generator_to_spinor(dropped)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_equation_check_agrees_with_the_rederived_system(n):
    """The product-and-rank check against the re-derived system compared by
    row space, on perturbed, dropped, repeated and mixed equations of
    generators with nonzero and zero scalar coordinates; none of them keeps
    the canonical rows, so both take the check."""
    rng = random.Random(1040 + n)

    def outcome(route, g):
        try:
            return route(g).values
        except ValueError as error:
            return str(error)

    seen = set()
    for _ in range(6):
        for a in (random_relation_spinor(n, rng), dense_zero_scalar_spinor(n, rng)):
            g = independent_system(a)
            rows = [list(row) for row in g.equations]
            k, i = rng.randrange(n + 1), rng.randrange(2 * n + 1)
            perturbed = [row[:] for row in rows]
            perturbed[k][i] += Fraction(rng.choice([-1, 1]), rng.randint(1, 3))
            mixed = [row[:] for row in rows]
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            mixed[k] = [u + c * v for u, v in zip(mixed[k], mixed[(k + 1) % (n + 1)])]
            variants = [perturbed, rows[:k] + rows[k + 1 :], rows + [rows[k]], mixed]
            if not a.scalar_coord():
                variants.append(rows)
            for equations in variants:
                changed = replace(g, equations=tuple(map(tuple, equations)))
                expected = outcome(dense.system_generator_to_spinor, changed)
                assert outcome(generator_to_spinor, changed) == expected
                seen.add(isinstance(expected, str))
    assert seen == {False, True}


def test_round_trip_checks_the_product_against_the_plane(monkeypatch):
    # a product that does not kill the plane is a broken convention, named by
    # its first point, on the canonical and on the zero-scalar branch
    for a, product in ((SpinorCoords(2, [1, 0, 0, 0]), {0: 1, 3: 1}), (SpinorCoords(2, [0, 0, 0, 5]), {0: 1})):
        g = independent_system(a)
        dense_product = [product.get(mask, 0) for mask in range(4)]
        point = next(p for p in g.basis if not annihilates(list(p), SpinorCoords(2, dense_product)))
        monkeypatch.setattr(spinorlab.geometry, "_pure_spinor", lambda n, points: dict(product))
        with pytest.raises(InvariantViolation, match=re.escape(f"generator point ({', '.join(map(str, point))})")):
            generator_to_spinor(g)


def test_kernel_dimension_violation_names_both_dimensions(monkeypatch):
    echelon_kernel = spinorlab.geometry._echelon_kernel
    monkeypatch.setattr(spinorlab.geometry, "_echelon_kernel", lambda n, c: echelon_kernel(n, c)[:1])
    with pytest.raises(InvariantViolation, match=re.escape("kernel dimension 1 differs from 2^(n-1) = 2")):
        kernel_spinors([0, 1, 1, 0, 0])


def test_generator_dimension_violation_names_both_dimensions(monkeypatch):
    null_space = linalg.null_space
    monkeypatch.setattr(linalg, "null_space", lambda rows: null_space(rows)[:-1])
    with pytest.raises(InvariantViolation, match=re.escape("generator solution space has dimension 1, not n = 2")):
        independent_system(SpinorCoords(2, [1, 0, 0, 0]))


def test_primitive_vector():
    assert primitive(frac([Fraction(1, 2), Fraction(-3, 2)])) == frac([1, -3])
    assert primitive(frac([-2, 4])) == frac([1, -2])
    assert primitive(frac([0, Fraction(5, 3)])) == frac([0, 1])


# -- normalization -----------------------------------------------------------------


def test_normalize_cases():
    unit = SpinorCoords(2, [1, 0, 0, 0])
    result = normalize(unit)
    assert result.exact and result.scale_sq == 1 and result.spinor == unit

    pyth = SpinorCoords(2, [3, 4, 0, 0])
    result = normalize(pyth)
    assert result.exact and result.scale_sq == 25
    assert result.spinor.values == frac([Fraction(3, 5), Fraction(4, 5), 0, 0])

    irrational = SpinorCoords(2, [1, 1, 0, 0])
    result = normalize(irrational)
    assert not result.exact and result.scale_sq == 2
    assert result.spinor == irrational

    with pytest.raises(ValueError):
        normalize(SpinorCoords(2, [0, 0, 0, 0]))


# -- motions -----------------------------------------------------------------------


def test_motion_identity_fixes_points():
    s = SpinElement(Multivector.scalar(neutral_signature(2), 1))
    x = frac([1, 2, 3, 4, 5])
    assert motion_on_points(s, x) == x
    a = SpinorCoords(2, [1, 2, 3, 4])
    assert motion_on_spinors(s, a) == a


def test_motion_rejects_non_spin():
    s = SpinElement(Multivector.scalar(neutral_signature(2), 2))
    with pytest.raises(ValueError):
        motion_on_points(s, [1, 0, 0, 0, 0])
    t = SpinElement(Multivector.scalar(Signature(2, 2), 1))  # plain ordering
    with pytest.raises(ValueError):
        motion_on_points(t, [1, 0, 0, 0, 0])


@pytest.mark.parametrize("n", [2, 3])
def test_motion_preserves_form_and_matches_vector_rotation(n):
    sig = neutral_signature(n)
    rng = random.Random(60 + n)
    for seed in range(6):
        s = random_spin_element(sig, seed, k=2, norm_plus=True)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(2 * n + 1)]
        y = motion_on_points(s, x)
        assert quadratic_form(y) == quadratic_form(x)
        # the point motion is conjugation around the fixed first coordinate
        assert y[0] == x[0]
        rotated = apply_rotation(s, Multivector.vector(sig, x[1:]))
        assert y[1:] == rotated.vector_coords()


def dense_point_motion(s, x):
    """rep(s) Xi(x) rep(reverse(s)), read back as a point and checked to be
    of point-matrix form: the conjugation by dense matrices that
    motion_on_points replaced, kept as its oracle (norm +1 elements only)."""
    n = s.signature.p
    rep = rep_multivector(s.value, n)
    rep_inv = rep_multivector(s.value.reverse(), n)
    conjugated = mat_mul(mat_mul(rep, build_xi(x).rows()), rep_inv)
    y = extract_point_coords(n, conjugated)
    assert mat_eq(build_xi(y).rows(), conjugated)
    return y


def extract_point_coords(n, matrix):
    sign_n = -1 if n % 2 else 1
    y = [sign_n * matrix[0][0]]
    half = Fraction(1, 2)
    for level in range(1, n + 1):
        h = 1 << (level - 1)
        sgn = -1 if (n - level) % 2 else 1
        c_plus = matrix[0][h]
        c_minus = matrix[h][0]
        y.append(sgn * (c_plus - c_minus) * half)
        y.append(sgn * (c_plus + c_minus) * half)
    return y


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_motion_on_points_matches_dense_conjugation(n):
    sig = neutral_signature(n)
    rng = random.Random(600 + n)
    for k in (1, 2, 3):
        s = random_spin_element(sig, 40 * n + k, k, norm_plus=True)
        generic = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2 * n + 1)]
        sparse = [Fraction(rng.choice((0, 0, rng.randint(-3, 3)))) for _ in range(2 * n + 1)]
        axis = [Fraction(0)] * (2 * n + 1)
        axis[rng.randrange(2 * n + 1)] = Fraction(1)
        for x in (random_absolute_point(n, rng), generic, sparse, axis, [0, 1, 1] + [0] * (2 * n - 2)):
            assert motion_on_points(s, x) == dense_point_motion(s, x)


def test_motion_on_points_at_max_rank_within_budget():
    sig = neutral_signature(MAX_RANK)
    rng = random.Random(888)
    elements = [random_spin_element(sig, seed, k=1, norm_plus=True) for seed in range(3)]
    points = [random_absolute_point(MAX_RANK, rng) for _ in elements]
    started = time.perf_counter()
    moved = [motion_on_points(s, x) for s, x in zip(elements, points)]
    assert time.perf_counter() - started < 2.0
    for s, x, y in zip(elements, points, moved):
        assert quadratic_form(y) == 0 and y[0] == x[0]
        assert y[1:] == apply_rotation(s, Multivector.vector(sig, x[1:])).vector_coords()


def test_kernel_basis_at_max_rank_moved_by_an_element_at_the_k_bound_within_budget():
    """The kernel verdict of a seeded motion at MAX_RANK and the largest --k
    maps the whole kernel basis on one signed-permutation sum, most of the
    motion's 15 s budget.  The element (22819 terms) and the basis are built
    outside the timed region; the mapping took 4.4-7.1 s on a 2-vCPU VM."""
    sig = neutral_signature(MAX_RANK)
    element = random_spin_element(sig, 0, spinorlab.cli.MAX_SEED_PAIRS, norm_plus=True)
    x = random_absolute_point(MAX_RANK, random.Random(0))
    basis = kernel_spinors(x)
    started = time.perf_counter()
    mapped = spinor_images(element.value, basis)
    assert time.perf_counter() - started < 15.0
    assert len(element.value) == 22819
    assert all(any(a.values) for a in mapped) and annihilates(motion_on_points(element, x), *mapped)


def test_motion_on_spinors_at_max_rank_within_budget():
    """Three spinor motions at MAX_RANK in under 0.25 s, with the elements and
    the dense spinors built outside the timed region.  On a 2-vCPU VM the
    three took 0.39-0.49 s by the dense image rep(s) and a ``Fraction``
    product, and take 0.02-0.04 s by the integer signed-permutation sum."""
    sig = neutral_signature(MAX_RANK)
    rng = random.Random(889)
    elements = [random_spin_element(sig, seed, k=1, norm_plus=True) for seed in range(3)]
    spinors = [
        SpinorCoords(MAX_RANK, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(1 << MAX_RANK)])
        for _ in elements
    ]
    started = time.perf_counter()
    moved = [motion_on_spinors(s, a) for s, a in zip(elements, spinors)]
    assert time.perf_counter() - started < 0.25
    for s, a, b in zip(elements, spinors, moved):
        assert b.values == mat_vec(rep_multivector(s.value, MAX_RANK), a.values)


#: Rationals with mixed denominators up to 10^6, and zero.
rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)) | st.just(Fraction(0))


def bits(values):
    """Exact (type, numerator, denominator) records of a list of rationals."""
    return [(type(v), v.numerator, v.denominator) for v in values]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_spinor_image_is_bit_equal_to_the_dense_image(data):
    """rep(m) a by the signed-permutation sum, against the dense image times a
    ``Fraction`` vector: elements of every grade, zero coordinates and the
    zero spinor, at n = 1..6, three spinors mapped in one call."""
    n = data.draw(st.integers(1, 6))
    masks = st.integers(0, (1 << (2 * n)) - 1)
    m = Multivector(neutral_signature(n), data.draw(st.dictionaries(masks, rationals, max_size=12)))
    size = 1 << n
    spinors = [SpinorCoords(n, data.draw(st.lists(rationals, min_size=size, max_size=size))) for _ in range(2)]
    spinors.insert(1, SpinorCoords(n, [0] * size))
    for a, image in zip(spinors, spinor_images(m, spinors)):
        assert bits(image.values) == bits(mat_vec(rep_multivector(m, n), a.values))


@pytest.mark.parametrize(
    "sig", [Signature(2, 2), Signature(3, 1, INTERLEAVED), Signature(1, 1, INTERLEAVED), Signature(3, 3, INTERLEAVED)]
)
def test_spinor_image_rejects_what_the_dense_image_rejects(sig):
    m = Multivector(sig, {0: 1, 3: Fraction(1, 2)})
    a = SpinorCoords(2, [1, 2, 0, 3])
    with pytest.raises(ValueError) as dense_error:
        rep_multivector(m, 2)
    with pytest.raises(ValueError, match=re.escape(str(dense_error.value))):
        spinor_images(m, [a])


def assert_form_is_the_clearing(a):
    """The spinor's integer form is linalg._cleared of its values, bit for
    bit: zeros dropped, in mask order, reduced, over a positive scale."""
    numerators, scale = linalg._cleared(a.values)
    expected = [(mask, int, v) for mask, v in enumerate(numerators) if v]
    assert [(mask, type(v), v) for mask, v in a._numerators.items()] == expected
    assert (type(a._scale), a._scale) == (int, scale)


def pythagorean_spinor(n, rng):
    """A nonzero spinor whose square-sum is a rational square: with u
    integers and u1 != 0, (u1^2 - u2^2 - ..., 2 u1 u2, 2 u1 u3, ...) has norm
    u1^2 + u2^2 + ..., scaled by a rational and placed at random masks."""
    u = [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(rng.randrange(1 << n))]
    entries = [u[0] ** 2 - sum(v * v for v in u[1:])] + [2 * u[0] * v for v in u[1:]]
    r = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**6))
    masks = rng.sample(range(1 << n), len(entries))
    values = [Fraction(0)] * (1 << n)
    for mask, entry in zip(masks, entries):
        values[mask] = r * entry
    return SpinorCoords(n, values)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_spinor_producer_keeps_the_clearing_of_its_values(data):
    n = data.draw(st.integers(1, 5))
    size = 1 << n
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    a = SpinorCoords(n, data.draw(st.lists(rationals, min_size=size, max_size=size)))
    relation = random_relation_spinor(n, rng)
    zero_scalar = dense_zero_scalar_spinor(n, rng)
    x = draw_absolute_point(data, n)
    s = random_spin_element(neutral_signature(n), data.draw(st.integers(0, 2**16)), 1, norm_plus=True)
    produced = {
        "constructor": [a, SpinorCoords(n, [0] * size), relation, zero_scalar],
        "halved": [SpinorCoords(n, [v / 2 for v in a.values])],
        "from_json": [SpinorCoords.from_json(n, a.to_json())],
        "kernel": kernel_spinors(x) if any(x) else [],
        "images": spinor_images(s.value, [a, relation]),
        "motion": [motion_on_spinors(s, relation)],
        "canonical": [generator_to_spinor(independent_system(relation))],
        "fallback": [generator_to_spinor(independent_system(zero_scalar))],
        "normalize": [normalize(pythagorean_spinor(n, rng)).spinor, normalize(a).spinor if any(a.values) else a],
    }
    assert produced["canonical"] == [relation]
    assert primitive(produced["fallback"][0].values) == produced["fallback"][0].values
    assert normalize(produced["normalize"][0]).exact
    spinors = [spinor for group in produced.values() for spinor in group]
    for spinor in spinors:
        assert_form_is_the_clearing(spinor)
    # equality sees the reduced form exactly as the values
    values = [spinor.values for spinor in spinors]
    for (left, left_values), (right, right_values) in itertools.combinations(zip(spinors, values), 2):
        assert (left == right) == (left_values == right_values)
    assert SpinorCoords(n, a.values) == a and produced["from_json"][0] == a


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_generator_system_is_bit_equal_to_the_fraction_rows(data):
    """The system read off the integer columns E_i N, at ranks 1..5, for pure
    spinors with nonzero and with zero scalar coordinates: the kept masks
    are those a greedy rank scan of the ``Fraction`` rows keeps, the
    equations are those rows bit for bit, and the basis is their null space."""
    n = data.draw(st.integers(1, 5))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    zero_scalar = data.draw(st.booleans())
    a = dense_zero_scalar_spinor(n, rng) if zero_scalar else random_relation_spinor(n, rng)
    assert (a.scalar_coord() == 0) == zero_scalar
    g = independent_system(a)
    rows = generator_rows(a)
    kept = []
    for r, row in enumerate(rows):
        if linalg.rank([rows[k] for k in kept] + [row]) > len(kept):
            kept.append(r)
    assert list(g.row_masks) == kept
    assert [bits(row) for row in g.equations] == [bits(rows[r]) for r in kept]
    assert [bits(vec) for vec in g.basis] == [bits(vec) for vec in linalg.null_space([rows[r] for r in kept])]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_from_low_grade_is_bit_equal_to_the_renamed_fraction_completion(data):
    """The spinor completed from (a, a^i, a^{ij}) holds, at each mask, the
    ``Fraction`` completion of the rank n+1 table whose last column holds
    the a^i, read at the renamed mask, bit for bit."""
    n = data.draw(st.integers(1, 6))
    scalar = data.draw(rationals.filter(bool))
    vector = data.draw(st.lists(rationals, min_size=n, max_size=n))
    skew = {pair: data.draw(rationals) for pair in itertools.combinations(range(1, n + 1), 2)}
    table = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for (i, j), v in skew.items():
        table[i - 1][j - 1], table[j - 1][i - 1] = v, -v
    for i, v in enumerate(vector):
        table[i][n], table[n][i] = v, -v
    completed = dense.completed_coords(scalar, table)
    renamed = [completed[mask | (mask.bit_count() & 1) << n] for mask in range(1 << n)]
    assert bits(SpinorCoords.from_low_grade(n, scalar, vector, skew).values) == bits(renamed)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cli_kernel_verdict_agrees_with_the_dense_oracle(n):
    rng = random.Random(500 + n)
    sig = neutral_signature(n)
    for seed in range(3):
        x = random_absolute_point(n, rng)
        argv = ["motion", "--n", str(n), "--seed", str(seed), "--k", str(seed % 2 + 1), "--x=" + ",".join(map(str, x))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = spinorlab.cli.main(argv)
        report = json.loads(out.getvalue())
        s = SpinElement(Multivector.from_text(sig, report["element"]))
        y = [Fraction(v) for v in report["y"]]
        assert y == motion_on_points(s, x)
        expected = dense_kernel_equivariance(s, x, y)
        assert report["verdicts"]["kernel_equivariance"] is expected
        assert code == (0 if expected else 2)


@pytest.mark.parametrize("n", [2, 3])
def test_motion_kernel_equivariance(n):
    rng = random.Random(80 + n)
    sig = neutral_signature(n)
    for seed in range(5):
        s = random_spin_element(sig, seed, k=2, norm_plus=True)
        x = random_absolute_point(n, rng)
        y = motion_on_points(s, x)
        assert quadratic_form(y) == 0
        assert dense_kernel_equivariance(s, x, y)


def test_motion_maps_generators_to_generators():
    n = 2
    sig = neutral_signature(n)
    rng = random.Random(123)
    for seed in range(4):
        s = random_spin_element(sig, seed, k=1, norm_plus=True)
        a = random_relation_spinor(n, rng)
        g = independent_system(a)
        moved_spinor = motion_on_spinors(s, a)
        moved_generator = independent_system(moved_spinor)
        assert moved_generator.projective_dimension == g.projective_dimension
        # the moved generator, {x : Xi(x) a' = 0}, is the pointwise image of the original
        for point in g.basis:
            image = motion_on_points(s, list(point))
            assert generator_rows_annihilate(image, moved_spinor)


@pytest.mark.parametrize("n", [2, 3])
def test_equivariance_square_commutes(n):
    # moving the spinor and moving the plane give the same solution set,
    # and pulling the moved plane back to a spinor recovers the moved ray
    sig = neutral_signature(n)
    rng = random.Random(321 + n)
    for seed in range(4):
        s = random_spin_element(sig, seed, k=1, norm_plus=True)
        a = random_relation_spinor(n, rng)
        g = independent_system(a)
        moved_spinor = motion_on_spinors(s, a)
        moved_generator = independent_system(moved_spinor)
        image_points = [motion_on_points(s, list(p)) for p in g.basis]
        assert dense.same_row_space(
            image_points, [list(p) for p in moved_generator.basis]
        )
        recovered = generator_to_spinor(moved_generator)
        assert primitive(recovered.values) == primitive(moved_spinor.values)


def test_generator_json_shape():
    g = independent_system(SpinorCoords(2, [1, 0, 0, 0]))
    payload = g.to_json()
    assert payload["n"] == 2
    assert payload["equations"][0] == [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)]
    assert len(payload["basis"]) == 2
