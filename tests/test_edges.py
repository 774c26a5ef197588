"""Edge cases, larger ranks, and batch-order independence."""

import random
import re
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from spinorlab import (
    Multivector,
    Signature,
    SpinorCoords,
    XiMatrix,
    build_xi,
    build_xi_symbolic,
    generator_to_spinor,
    independent_system,
    kernel_spinors,
    pfaffian,
    point_element,
    quaternion_split,
    reconstruct_from_low_grade,
    unit_pair_for,
    xi_square_check,
)


def test_xi_large_ranks_evaluated():
    rng = random.Random(1)
    for n in (6, 7, 8):
        x = [Fraction(rng.randint(-5, 5)) for _ in range(2 * n + 1)]
        value = xi_square_check(x)
        assert value == sum(
            (Fraction(v) * v if i % 2 == 0 else -Fraction(v) * v) for i, v in enumerate(x)
        )


def test_xi_symbolic_large_rank_matches_evaluation():
    n = 7
    symbolic = build_xi_symbolic(n)
    rng = random.Random(2)
    x = [Fraction(rng.randint(-3, 3)) for _ in range(2 * n + 1)]
    assert symbolic.evaluate(x).entries == build_xi(x).entries


def test_xi_rank_bounds():
    with pytest.raises(ValueError):
        build_xi_symbolic(0)
    with pytest.raises(ValueError):
        build_xi_symbolic(9)
    with pytest.raises(ValueError):
        build_xi([1, 0])  # even coordinate count
    # rank 9 exceeds MAX_RANK at every entry point taking coordinates
    x = [0, 1, 1] + [0] * 16  # an absolute point of S(9,9)
    with pytest.raises(ValueError):
        build_xi(x)
    with pytest.raises(ValueError):
        kernel_spinors(x)
    with pytest.raises(ValueError):
        point_element(9, x)
    with pytest.raises(ValueError):
        XiMatrix(9, (), symbolic=True).evaluate(x)


def test_roundtrip_rank_four():
    rng = random.Random(44)
    for _ in range(10):
        scalar = Fraction(rng.randint(1, 3))
        vector = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        skew = {(i, j): Fraction(rng.randint(-2, 2)) for i in range(1, 5) for j in range(i + 1, 5)}
        a = SpinorCoords.from_low_grade(4, scalar, vector, skew)
        g = independent_system(a)
        assert g.projective_dimension == 3
        assert generator_to_spinor(g) == a


def test_unit_pair_explicit_m_in_odd_algebra():
    sig = Signature(2, 1)
    pair = unit_pair_for(sig, m=0)
    assert pair.kind == "pseudo"  # e1, e2 both square to +1
    m = Multivector(sig, {0: 1, 0b001: 2, 0b010: 3, 0b011: 4})
    a0, a1, a2, a3 = quaternion_split(m, pair)
    phi = Multivector.blade(sig, pair.phi)
    psi = Multivector.blade(sig, pair.psi)
    assert a0 + a1 * phi + a2 * psi + a3 * (phi * psi) == m


def test_reconstruct_accepts_full_skew_matrix():
    sig = Signature(4, 0)
    table = [[Fraction(0)] * 4 for _ in range(4)]
    table[0][1], table[1][0] = Fraction(1), Fraction(-1)
    table[2][3], table[3][2] = Fraction(2), Fraction(-2)
    element = reconstruct_from_low_grade(1, table, sig)
    assert element.coord((1, 2, 3, 4)) == 2
    lopsided = [[Fraction(0)] * 4 for _ in range(4)]
    lopsided[0][1] = Fraction(1)  # not skew
    with pytest.raises(ValueError):
        reconstruct_from_low_grade(1, lopsided, sig)
    with pytest.raises(ValueError):
        SpinorCoords.from_low_grade(4, 1, [0] * 4, lopsided)


@pytest.mark.parametrize("pair", [(0, 2), (1, 5), (3, 3)], ids=["below_one", "above_n", "repeated"])
def test_bad_grade2_index_pair_is_named(pair):
    message = re.escape(f"bad grade-2 index pair ({pair[0]},{pair[1]})")
    with pytest.raises(ValueError, match=message):
        reconstruct_from_low_grade(1, {(1, 2): 1, pair: 1}, Signature(4, 0))
    with pytest.raises(ValueError, match=message):
        SpinorCoords.from_low_grade(4, 1, [0] * 4, {pair: 1})


def test_skew_table_shape_and_symmetry_are_checked_at_the_boundary():
    square = [[Fraction(0)] * 3 for _ in range(3)]
    ragged = [[Fraction(0)] * 4 for _ in range(3)] + [[Fraction(0)] * 3]
    diagonal = [[Fraction(i == j == 2) for j in range(4)] for i in range(4)]
    for build in (
        lambda table: reconstruct_from_low_grade(1, table, Signature(4, 0)),
        lambda table: SpinorCoords.from_low_grade(4, 1, [0] * 4, table),
    ):
        for table in (square, ragged):
            with pytest.raises(ValueError, match="skew table must be 4x4"):
                build(table)
        with pytest.raises(ValueError, match="grade-2 table is not skew-symmetric"):
            build(diagonal)


def test_single_index_count_and_pfaffian_parity_are_checked():
    with pytest.raises(ValueError, match="expected 4 single-index coordinates"):
        SpinorCoords.from_low_grade(4, 1, [0] * 3, {})
    skew = [[Fraction(j - i) for j in range(4)] for i in range(4)]
    with pytest.raises(ValueError, match="Pfaffian needs an even number of indices"):
        pfaffian(skew, [0, 1, 2])


def test_a_reversed_pair_key_gives_the_negated_coordinate():
    v = Fraction(3, 7)
    element = reconstruct_from_low_grade(1, {(2, 1): v, (3, 4): 2}, Signature(4, 0))
    assert element.coord((1, 2)) == -v and element.coord((3, 4)) == 2
    assert element.coord((1, 2, 3, 4)) == -2 * v
    spinor = SpinorCoords.from_low_grade(2, 1, [0, 0], {(2, 1): v})
    assert spinor.values == [1, 0, 0, -v]
    spinor = SpinorCoords.from_low_grade(3, 1, [1, 0, 0], {(3, 2): v})
    # the renamed pairs {i, 4} hold a^i, so a^{123} = Pf over {1, 2, 3, 4} = a^{12} a^3 - a^{13} a^2 + a^{23} a^1
    assert spinor.values[0b110] == -v and spinor.values[0b111] == -v


def test_spinor_from_json_missing_keys_default_to_zero():
    spinor = SpinorCoords.from_json(2, {"a": "1"})
    assert spinor.values == [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]


def test_kernel_batch_is_order_independent():
    rng = random.Random(3)
    points = []
    while len(points) < 12:
        x0 = Fraction(rng.randint(-3, 3))
        s1, s2 = Fraction(rng.randint(1, 3)), Fraction(rng.randint(-3, 3))
        d2 = Fraction(rng.randint(-3, 3))
        d1 = (-x0 * x0 - s2 * d2) / s1
        x = [x0, (s1 - d1) / 2, (s1 + d1) / 2, (s2 - d2) / 2, (s2 + d2) / 2]
        if any(x):
            points.append(x)
    sequential = [[vec.values for vec in kernel_spinors(x)] for x in points]
    with ThreadPoolExecutor(max_workers=4) as pool:
        shuffled = list(range(len(points)))
        rng.shuffle(shuffled)
        futures = {i: pool.submit(kernel_spinors, points[i]) for i in shuffled}
        parallel = [[vec.values for vec in futures[i].result()] for i in range(len(points))]
    assert parallel == sequential
