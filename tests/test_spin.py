"""Spin membership, norms, Pfaffian relations, reconstruction, rotations."""

import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinorlab.spin
from spinorlab import (
    INTERLEAVED,
    Multivector,
    Signature,
    SpinElement,
    apply_rotation,
    check_relations,
    is_lipschitz,
    is_spin,
    is_spin_plus,
    pfaffian,
    random_spin_element,
    reconstruct_from_low_grade,
    spin_from_vectors,
    spin_norm,
)
from spinorlab.blades import MAX_DIM, _sign_mask, blade_product
from spinorlab.errors import InvariantViolation
from spinorlab.linalg import _cleared
from spinorlab.spin import _chart, _masks_of_size, _obeys_relations, _pair_coords, _rotate, completed_coords, pfaffians
from spinorlab.spin import _residuals, random_unit_vector

import dense
from dense import det, skew_table, vector_norm

CL20 = Signature(2, 0)
CL11 = Signature(1, 1)


def antisymmetrized_pair_product(skew, indices):
    """Brute-force (2k-1)!! a^[i1 i2 ... a^ i2k-1 i2k] over all permutations."""
    size = len(indices)
    k = size // 2
    double_factorial = 1
    for odd in range(3, 2 * k, 2):
        double_factorial *= odd
    total = Fraction(0)
    for perm in permutations(range(size)):
        sign = _perm_sign(perm)
        product = Fraction(1)
        for pair in range(k):
            i = indices[perm[2 * pair]]
            j = indices[perm[2 * pair + 1]]
            product *= skew[i][j]
        total += sign * product
    import math

    return Fraction(double_factorial) * total / math.factorial(size)


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        node = start
        while not seen[node]:
            seen[node] = True
            node = perm[node]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _random_skew(rng, size, max_denominator=3):
    skew = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            v = Fraction(rng.randint(-4, 4), rng.randint(1, max_denominator))
            skew[i][j] = v
            skew[j][i] = -v
    return skew


def test_pfaffian_matches_antisymmetrization_oracle():
    rng = random.Random(11)
    for size in (4, 6):
        skew = _random_skew(rng, size)
        idx = list(range(size))
        assert pfaffian(skew, idx) == antisymmetrized_pair_product(skew, idx)


def test_pfaffian_four_by_four_closed_form():
    a = [[Fraction(0)] * 4 for _ in range(4)]
    vals = {(0, 1): 2, (0, 2): 3, (0, 3): 5, (1, 2): 7, (1, 3): 11, (2, 3): 13}
    for (i, j), v in vals.items():
        a[i][j] = Fraction(v)
        a[j][i] = Fraction(-v)
    assert pfaffian(a) == Fraction(2 * 13 - 3 * 11 + 5 * 7)


def test_pfaffian_table_squares_to_determinants():
    """Pf(A_I)^2 = det(A_I) on every even subset; odd subsets read 0."""
    skew = _random_skew(random.Random(17), 8)
    pfs = pfaffians(skew)
    assert len(pfs) == 1 << 8 and pfs[0] == 1
    for mask, pf in enumerate(pfs):
        idx = [i for i in range(8) if mask >> i & 1]
        if len(idx) % 2:
            assert pf == 0
            continue
        assert pf == pfaffian(skew, idx)
        assert pf**2 == det([[skew[i][j] for j in idx] for i in idx])


def test_pfaffian_converts_float_and_string_entries():
    # entries are read as Fraction(entry) at the boundary, as reconstruction does
    assert pfaffian([[0, 0.5], [-0.5, 0]]) == Fraction(1, 2)
    assert pfaffians([["0", "1/3"], ["-1/3", "0"]]) == [1, 0, 0, Fraction(1, 3)]
    table = [["0", "2", "1/2", "0"], ["-2", "0", "3", "1"], ["-1/2", "-3", "0", "5"], ["0", "-1", "-5", "0"]]
    assert pfaffian(table) == Fraction(2 * 5 - Fraction(1, 2) * 1)
    with pytest.raises(ValueError, match="Invalid literal"):
        pfaffian([["0", "x"], ["-x", "0"]])
    with pytest.raises(ValueError, match="Invalid literal"):
        pfaffians([["0", "1/2", "two"], ["-1/2", "0", "0"], ["-2", "0", "0"]])


def test_pfaffian_rejects_tables_beyond_max_dim():
    with pytest.raises(ValueError, match="at most"):
        pfaffian([[Fraction(0)] * (MAX_DIM + 2)] * (MAX_DIM + 2))


def test_reconstruction_completes_at_max_dim():
    """At MAX_DIM a dense completion squares to det(A) and passes its relations."""
    skew = _random_skew(random.Random(19), MAX_DIM, max_denominator=1)
    element = reconstruct_from_low_grade(1, skew, Signature(8, 8))
    top = element.value.coefficient((1 << MAX_DIM) - 1)
    assert top != 0
    assert top**2 == det(skew)
    report = check_relations(element)
    assert report.relations_ok
    assert report.spin == (report.norm in (1, -1))


def test_spin_norm_examples():
    assert spin_norm(SpinElement(Multivector.scalar(CL20, 1))) == 1
    rotation = SpinElement(Multivector(CL20, {0: Fraction(3, 5), 0b11: Fraction(4, 5)}))
    assert spin_norm(rotation) == 1
    boost = SpinElement(Multivector(CL11, {0: Fraction(5, 4), 0b11: Fraction(3, 4)}))
    assert spin_norm(boost) == 1  # sigma(1)*sigma(2) = -1 flips the bivector square


def test_spin_norm_matches_full_product():
    """Seeded spin, dense and perturbed elements at dims 2..8 against the full
    product s * reverse(s), which is formed only here, as the oracle."""
    for dim in range(2, 9):
        plain = Signature(dim - dim // 2, dim // 2)
        for sig in (plain, Signature(dim // 2, dim - dim // 2, INTERLEAVED)):
            skew = _random_skew(random.Random(dim), dim)
            elements = [random_spin_element(sig, dim + k, k) for k in (1, 2)]
            elements.append(reconstruct_from_low_grade(Fraction(2, 3), skew, sig))
            bump = Multivector.blade(sig, 0b11, Fraction(1, 3))
            elements += [SpinElement(s.value + bump) for s in elements]
            for s in elements:
                assert spin_norm(s) == (s.value * s.value.reverse()).scalar_part()


def test_spin_norm_failure_carries_both_routes(monkeypatch):
    s = SpinElement(Multivector(CL20, {0: Fraction(3, 5), 0b11: Fraction(4, 5)}))

    def flipped(b1, negative):
        # the sign mask of e12 loses its bit 0, so e12 e12 reads +1
        return _sign_mask(b1, negative) ^ (1 if b1 == 0b11 else 0)

    monkeypatch.setattr("spinorlab.spin._sign_mask", flipped)
    for check in (spin_norm, is_spin):
        with pytest.raises(InvariantViolation) as caught:
            check(s)
        assert "coordinate sum 1" in str(caught.value)
        assert "scalar(s * reverse(s)) -7/25" in str(caught.value)


def test_spin_norm_rejects_odd():
    with pytest.raises(ValueError):
        SpinElement(Multivector.generator(CL20, 1))


def test_is_lipschitz():
    assert is_lipschitz(Multivector.generator(CL20, 1))
    assert is_lipschitz(Multivector(CL20, {0: 1, 0b11: 1}))
    mixed = Multivector(Signature(3, 0), {0: 2, 0b001: 1})
    assert not is_lipschitz(mixed)
    with pytest.raises(ValueError):
        is_lipschitz(Multivector(CL20, {0: 1, 0b01: 1}))  # (1+e1) is singular


def _reverse_oracle(s):
    """The defining test, formed only here: s * reverse(s) is a nonzero scalar
    and every s e_i reverse(s) is pure grade 1."""
    rev = s.reverse()
    norm = s * rev
    if norm.is_zero() or not norm.is_grade(0):
        return False
    sig = s.signature
    return all((s * Multivector.generator(sig, i) * rev).is_grade(1) for i in range(1, sig.dim + 1))


def _ternary_elements(sig, parity):
    masks = [m for m in range(1 << sig.dim) if m.bit_count() % 2 == parity]
    for coeffs in product((-1, 0, 1), repeat=len(masks)):
        if any(coeffs):
            yield Multivector(sig, dict(zip(masks, coeffs)))


def test_lipschitz_matches_conjugation_on_every_small_element():
    """Every even element of Cl(2,2) and every odd one of Cl(3,0) and Cl(2,1)
    with coefficients in {-1, 0, 1}, against conjugation by reverse(s).  The
    odd ones need the blade chart change, and may raise only when singular.
    An even element with a nonzero scalar has its verdict seeded by
    check_relations, which must agree with a fresh element's."""
    for sig in (Signature(2, 2), Signature(2, 2, INTERLEAVED)):
        verdicts = []
        for s in _ternary_elements(sig, 0):
            expected = _reverse_oracle(s)
            verdicts.append(SpinElement(s).lipschitz() == expected)
            if s.scalar_part():
                seeded = SpinElement(s)
                check_relations(seeded)
                assert seeded.lipschitz() == expected
        assert len(verdicts) == 3**8 - 1 and all(verdicts)
    for sig in (Signature(3, 0), Signature(2, 1)):
        for s in _ternary_elements(sig, 1):
            try:
                assert is_lipschitz(s) == _reverse_oracle(s)
            except ValueError:
                assert (s * s.reverse()).is_zero()  # raises only when singular


def test_zero_scalar_residuals_do_not_decide_the_verdict():
    """With a zero scalar the relations of s itself are necessary, not
    sufficient: e15 + e1234 obeys them but its chart does not."""
    s = Multivector(Signature(5, 0), {0b10001: 1, 0b01111: 1})
    element = SpinElement(s)
    assert check_relations(element).relations_ok
    assert not element.lipschitz() and not is_lipschitz(s) and not _reverse_oracle(s)


def test_mixed_parity_passes_only_through_the_centre():
    """In odd dimension the volume element w is central, so (x + y w) g with g
    in the group conjugates like g; in even dimension no mixed element passes."""

    def conjugation(s):
        try:
            inv = s.inverse()
        except ValueError:
            return None
        sig = s.signature
        return all((s * Multivector.generator(sig, i) * inv).is_grade(1) for i in range(1, sig.dim + 1))

    def verdict(s):
        try:
            return is_lipschitz(s)
        except ValueError:
            return None

    seen = set()
    for sig in (Signature(3, 0), Signature(2, 1), Signature(3, 2), Signature(2, 2)):
        omega = Multivector.blade(sig, (1 << sig.dim) - 1)
        one = Multivector.scalar(sig, 1)
        e1, e2 = Multivector.generator(sig, 1), Multivector.generator(sig, 2)
        factors = (one + omega, one * 2 - omega, one + omega * 3, one + e1, one + e1 + omega)
        for seed in range(2):
            g = random_spin_element(sig, seed, 1).value
            for factor in factors:
                for s in (factor * g, factor * g * e2):
                    if len({mask.bit_count() % 2 for mask in s.masks()}) < 2:
                        continue
                    expected = conjugation(s)
                    assert verdict(s) == expected
                    seen.add((sig.dim % 2, expected))
    assert {(1, True), (1, False), (1, None), (0, False)} <= seen


def test_lipschitz_on_dense_elements_at_dim_12():
    """A dense completion (1996 terms) passes and a perturbed one fails, with no
    dense product: conjugation needed tens of seconds at dim 8 already."""
    skew = _random_skew(random.Random(12), 12, max_denominator=1)
    sig = Signature(6, 6)
    element = reconstruct_from_low_grade(1, skew, sig)
    start = time.perf_counter()
    assert element.lipschitz()
    assert not SpinElement(element.value + Multivector.blade(sig, 0b11, Fraction(1, 3))).lipschitz()
    assert time.perf_counter() - start < 5.0


def _signatures(dims):
    """A plain and an interleaved signature of each dimension, both kinds of
    generator present from dimension 2."""
    for dim in dims:
        yield Signature(dim - dim // 2, dim // 2)
        yield Signature(dim // 2, dim - dim // 2, INTERLEAVED)


def _relations_hold(t):
    """The oracle: every Pfaffian residual of t is zero, in ``Fraction``s."""
    return all(value == 0 for _, value in dense.relation_residuals(t.coefficient, t.signature.dim))


def _quadric_cases(sig, rng):
    """Products of 2k unit vectors, k = 1..3, and for each: its product with
    an even blade it lacks (a zero scalar), one coordinate perturbed, and one
    coordinate added at grade top + 2."""
    signs = [sign for sign, count in ((1, sig.p), (-1, sig.q)) if count]
    even = [mask for mask in range(1, 1 << sig.dim) if not mask.bit_count() & 1]
    for k in (1, 2, 3):
        s = spin_from_vectors([random_unit_vector(sig, rng, rng.choice(signs)) for _ in range(2 * k)]).value
        yield s
        missing = [mask for mask in even if not s.coefficient(mask)]
        if missing:
            yield s * Multivector.blade(sig, rng.choice(missing))
        yield s + Multivector.blade(sig, rng.choice(list(s.masks())), Fraction(1, 7))
        top = max(mask.bit_count() for mask in s.masks())
        above = [mask for mask in even if mask.bit_count() == top + 2]
        if above:
            yield s + Multivector.blade(sig, rng.choice(above), Fraction(2, 5))


@pytest.mark.parametrize("sig", list(_signatures(range(2, 9))), ids=str)
def test_quadric_verdict_equals_the_pfaffian_residuals(sig):
    """Chevalley's quadrics decide the relations of a chart exactly when all
    its Pfaffian residuals are zero: spin elements with k = 1..3, zero-scalar
    elements through their charts, and perturbed ones."""
    rng = random.Random(sig.dim * 10 + sig.p)
    seen = set()
    for t in _quadric_cases(sig, rng):
        chart = _chart(t)
        verdict = _obeys_relations(chart)
        assert verdict == _relations_hold(chart), t
        seen.add((bool(t.scalar_part()), verdict))
    assert (True, True) in seen and (sig.dim < 4 or (True, False) in seen)
    assert sig.dim < 4 or (False, True) in seen


def test_truncated_exponential_fails_only_at_size_six():
    """The grade <= 4 part t of a generic completion at d = 6 obeys every
    four-index relation and fails the six-index one, one size above t's top
    grade: the pass must run to top + 2."""
    sig = Signature(3, 3, INTERLEAVED)
    full = reconstruct_from_low_grade(Fraction(2, 3), _random_skew(random.Random(6), 6), sig).value
    assert full.coefficient(0b111111)
    truncated = Multivector(sig, {mask: c for mask, c in full.items() if mask.bit_count() <= 4})
    residuals = dense.relation_residuals(truncated.coefficient, 6)
    assert [len(subset) for subset, value in residuals if value] == [6]
    assert _obeys_relations(full) and not _obeys_relations(truncated)
    assert not SpinElement(truncated).lipschitz()


def test_quadric_verdict_is_empty_below_four_generators():
    # no even set of size >= 4 exists, so every chart passes
    for sig in (Signature(0, 0), Signature(1, 0), Signature(2, 1)):
        assert _obeys_relations(_chart(Multivector.scalar(sig, 3)))
    assert _obeys_relations(Multivector.zero(Signature(4, 0)))
    assert not _obeys_relations(Multivector(Signature(4, 0), {0: 1, 0b11: 1, 0b1100: 1}))


def test_sparse_verdict_at_max_dim_within_budget():
    """The verdict on a k = 1 element at MAX_DIM, cold: the quadrics stop at
    size 4, so no 2^16 Pfaffian table is built."""
    sig = Signature(MAX_DIM // 2, MAX_DIM // 2, INTERLEAVED)
    rng = random.Random(0)
    value = spin_from_vectors([random_unit_vector(sig, rng, sign) for sign in (1, -1)]).value
    _masks_of_size.cache_clear()
    start = time.perf_counter()
    element = SpinElement(value)
    assert element.lipschitz()
    elapsed = time.perf_counter() - start
    assert len(value) > 100
    assert elapsed < 0.1, elapsed


def test_is_spin_cases():
    one = Multivector.scalar(CL20, 1)
    assert is_spin(one) and is_spin_plus(one)
    e12 = Multivector.blade(CL20, 0b11)
    assert is_spin(e12) and is_spin_plus(e12)
    doubled = Multivector.scalar(CL20, 2)
    assert not is_spin(doubled)
    odd = Multivector.generator(CL20, 1)
    assert not is_spin(odd)


def test_fresh_spin_verdict_reads_the_norm_once(monkeypatch):
    calls = []

    def counted(s):
        calls.append(s)
        return spin_norm(s)

    monkeypatch.setattr("spinorlab.spin.spin_norm", counted)
    sig = Signature(4, 0)
    cases = [
        ({0: Fraction(3, 5), 0b11: Fraction(4, 5)}, True),
        ({0b11: Fraction(1)}, True),
        ({0: Fraction(3, 5), 0b1111: Fraction(4, 5)}, False),  # N = 1, a relation fails
        ({0: Fraction(2)}, False),
    ]
    for terms, verdict in cases:
        element = SpinElement(Multivector(sig, terms))
        calls.clear()
        assert is_spin(element) is verdict
        assert len(calls) == 1
        assert element.lipschitz() == is_lipschitz(element.value)


def test_norm_multiplicativity():
    sig = Signature(2, 2)
    for seed in range(6):
        s = random_spin_element(sig, seed, k=2)
        t = random_spin_element(sig, seed + 100, k=1)
        st = SpinElement(s.value * t.value)
        assert spin_norm(st) == spin_norm(s) * spin_norm(t)


def test_named_four_index_relation():
    # scalar 1, a^12 = 1, a^34 = 2 forces a^1234 = 2:
    # a * a^1234 = a^12 a^34 - a^13 a^24 + a^14 a^23
    sig = Signature(4, 0)
    element = reconstruct_from_low_grade(1, {(1, 2): 1, (3, 4): 2}, sig)
    assert element.coord((1, 2, 3, 4)) == 2
    report = check_relations(element)
    assert report.relations_ok

    perturbed = SpinElement(element.value + Multivector.blade(sig, 0b1111, 1))
    bad = check_relations(perturbed)
    assert not bad.relations_ok
    assert dict(bad.residuals)[(1, 2, 3, 4)] == 1
    assert not bad.spin


def test_reconstruct_trivial():
    sig = Signature(4, 0)
    s = reconstruct_from_low_grade(1, {}, sig)
    assert s.value == Multivector.scalar(sig, 1)
    with pytest.raises(ValueError):
        reconstruct_from_low_grade(0, {}, sig)


def test_reconstruct_six_index_coordinate():
    # with unit scalar the grade-6 coordinate is the 6x6 Pfaffian
    sig = Signature(6, 0)
    rng = random.Random(5)
    skew = {}
    table = [[Fraction(0)] * 6 for _ in range(6)]
    for i in range(1, 7):
        for j in range(i + 1, 7):
            v = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            skew[(i, j)] = v
            table[i - 1][j - 1] = v
            table[j - 1][i - 1] = -v
    element = reconstruct_from_low_grade(1, skew, sig)
    expected = antisymmetrized_pair_product(table, list(range(6)))
    assert element.coord((1, 2, 3, 4, 5, 6)) == expected
    assert check_relations(element).relations_ok


def test_relations_hold_for_products_of_unit_vectors():
    for sig in (Signature(4, 0), Signature(2, 2), Signature(2, 2, INTERLEAVED)):
        for seed in range(10):
            s = random_spin_element(sig, seed, k=(seed % 3) + 1)
            assert is_spin(s)
            report = check_relations(s)
            assert report.relations_ok
            assert report.spin


def test_reconstruct_roundtrip_on_spin_elements():
    sig = Signature(2, 2)
    done = 0
    seed = 0
    while done < 8:
        seed += 1
        s = random_spin_element(sig, seed, k=2)
        if s.scalar_coord() == 0:
            continue
        rebuilt = reconstruct_from_low_grade(s.scalar_coord(), skew_table(s), sig)
        assert rebuilt.value == s.value
        done += 1


def test_spin_from_vectors_square_of_generator():
    e1 = Multivector.generator(CL20, 1)
    s = spin_from_vectors([e1, e1])
    assert s.value == Multivector.scalar(CL20, 1)  # sigma(1) = +1
    neg = Multivector.generator(Signature(0, 2), 1)
    assert spin_from_vectors([neg, neg]).value == Multivector.scalar(Signature(0, 2), -1)


def test_unit_vector_pair_product_has_unit_norm():
    v = Multivector.vector(CL20, [Fraction(3, 5), Fraction(4, 5)])
    s = spin_from_vectors([v, Multivector.generator(CL20, 1)])
    assert spin_norm(s) == 1
    assert is_spin(s)


def test_random_unit_vector_norms():
    rng = random.Random(0)
    sig = Signature(2, 2)
    for _ in range(20):
        v = random_unit_vector(sig, rng, 1)
        assert vector_norm(v) == 1
        w = random_unit_vector(sig, rng, -1)
        assert vector_norm(w) == -1


@pytest.mark.parametrize(
    "sig",
    [
        Signature(3, 1),
        Signature(2, 2, INTERLEAVED),
        Signature(4, 0),
        Signature(0, 3),
        Signature(3, 3, INTERLEAVED),
        Signature(2, 4),
    ],
    ids=str,
)
def test_seeded_draws_match_the_fraction_routes(sig):
    """The integer reflection and chain against the ``Fraction`` ones they
    replaced, item for item and in order, on one shared stream of draws."""
    rng, oracle_rng = random.Random(sig.dim), random.Random(sig.dim)
    for sign in sorted(set(sig.sigmas())):
        for _ in range(25):
            drawn = random_unit_vector(sig, rng, sign)
            assert list(drawn.items()) == list(dense.reflected_unit_vector(sig, oracle_rng, sign).items())
            assert vector_norm(drawn) == sign
    for k in (1, 2, 3):
        for norm_plus in (False, True):
            for seed in range(5):
                drawn = random_spin_element(sig, seed, k, norm_plus).value
                assert list(drawn.items()) == list(dense.seeded_spin_element(sig, seed, k, norm_plus).items())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_spin_from_vectors_equals_multivector_products(data):
    sig = data.draw(st.sampled_from([Signature(2, 1), Signature(2, 2, INTERLEAVED), Signature(0, 3), Signature(4, 1)]))
    coords = st.lists(st.one_of(st.just(Fraction(0)), rationals), min_size=sig.dim, max_size=sig.dim)
    pool = [Multivector.vector(sig, data.draw(coords)) for _ in range(3)]
    # repeated factors make whole blades cancel partway along the chain
    vectors = [pool[i] for i in data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3).map(lambda ix: ix * 2))]
    expected = Multivector.scalar(sig, 1)
    for v in vectors:
        expected = expected * v
    assert list(spin_from_vectors(vectors).value.items()) == list(expected.items())


def test_spin_from_vectors_rejects_bad_factors():
    e1 = Multivector.generator(CL20, 1)
    with pytest.raises(ValueError, match="need at least one vector"):
        spin_from_vectors([])
    with pytest.raises(ValueError, match="need an even number of vectors"):
        spin_from_vectors([e1, e1, e1])
    for other in (Multivector.blade(CL20, 0b11), Multivector.scalar(CL20, 2), e1 + Multivector.scalar(CL20, 1)):
        with pytest.raises(ValueError, match="factors must be pure vectors"):
            spin_from_vectors([e1, other])
    with pytest.raises(ValueError, match=r"signature mismatch: Signature\(p=2, q=0.* vs Signature\(p=1, q=1"):
        spin_from_vectors([e1, Multivector.generator(CL11, 1)])


def test_random_spin_element_is_deterministic():
    sig = Signature(4, 4, INTERLEAVED)
    a = random_spin_element(sig, 31337, k=2)
    b = random_spin_element(sig, 31337, k=2)
    assert a.value == b.value
    assert is_spin(a)
    assert check_relations(a).relations_ok


def test_apply_rotation_examples():
    one = SpinElement(Multivector.scalar(CL20, 1))
    x = Multivector.vector(CL20, [Fraction(2), Fraction(-3)])
    assert apply_rotation(one, x) == x
    assert apply_rotation(one, Multivector.zero(CL20)).is_zero()

    s = SpinElement(Multivector(CL20, {0: Fraction(3, 5), 0b11: Fraction(4, 5)}))
    rotated = apply_rotation(s, Multivector.generator(CL20, 1))
    assert rotated == Multivector.vector(CL20, [Fraction(-7, 25), Fraction(-24, 25)])
    assert vector_norm(rotated) == 1


def test_apply_rotation_preserves_form():
    sig = Signature(3, 1)
    rng = random.Random(17)
    for seed in range(5):
        s = random_spin_element(sig, seed, k=2)
        x = Multivector.vector(sig, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)])
        y = apply_rotation(s, x)
        assert (y * y).scalar_part() == (x * x).scalar_part()


@pytest.mark.parametrize(
    "sig",
    [Signature(3, 0), Signature(2, 1), Signature(1, 3), Signature(0, 4), Signature(3, 3, INTERLEAVED), Signature(5, 3)],
    ids=str,
)
def test_apply_rotation_matches_full_conjugation(sig):
    """The grade-1 read-off against the whole triple product s x reverse(s) / N,
    formed only here, on products of unit vectors of both norms."""
    rng = random.Random(sig.p * 10 + sig.q)
    available = [sign for sign, count in ((1, sig.p), (-1, sig.q)) if count]
    patterns = [(1, -1), (1, 1), (-1, -1), (1, -1, -1, -1), (1, 1, 1, -1, 1, 1)]
    norms = set()
    for pattern in patterns:
        if not set(pattern) <= set(available):
            continue
        s = spin_from_vectors([random_unit_vector(sig, rng, sign) for sign in pattern])
        norm = spin_norm(s)
        norms.add(norm)
        for _ in range(3):
            x = Multivector.vector(sig, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(sig.dim)])
            assert apply_rotation(s, x) == s.value * x * (s.value.reverse() / norm)
    assert norms == ({1, -1} if len(available) == 2 else {1})


def test_rotation_checks_the_conjugate_is_a_vector():
    # N(s) = 1, but the four-index relation fails: reverse(s) is no inverse
    # and the grade-1 read-off y misses s x = y s
    sig = Signature(4, 0)
    s = Multivector(sig, {0: Fraction(3, 5), 0b1111: Fraction(4, 5)})
    assert spin_norm(SpinElement(s)) == 1
    with pytest.raises(InvariantViolation, match="left the vector space"):
        _rotate(s, Multivector.generator(sig, 1), 1)


@pytest.mark.parametrize("sig", list(_signatures(range(2, 9))), ids=str)
def test_integer_rotation_equals_the_multivector_route(sig):
    """The integer read-off and checks against the two-product route it
    replaced, item for item, on elements of norm +1 and -1."""
    rng = random.Random(sig.dim * 10 + sig.q)
    signs = [sign for sign, count in ((1, sig.p), (-1, sig.q)) if count]
    norms = set()
    for pattern in [(1, 1), (-1, -1), (1, -1), (1, -1, 1, 1)]:
        if not set(pattern) <= set(signs):
            continue
        s = spin_from_vectors([random_unit_vector(sig, rng, sign) for sign in pattern])
        norm = spin_norm(s)
        norms.add(norm)
        for _ in range(3):
            coords = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(sig.dim)]
            x = Multivector.vector(sig, coords)
            y = _rotate(s.value, x, norm)
            assert list(y.items()) == list(dense.rotate(s.value, x, norm).items())
            assert all(type(c) is Fraction for _, c in y.items())
    assert norms == {1, -1}


def test_rotation_names_the_blade_where_y_s_differs():
    # N(s) = 1, but a norm of 2 halves y, so y s = s x / 2 at every blade
    s = Multivector(CL20, {0: Fraction(3, 5), 0b11: Fraction(4, 5)})
    with pytest.raises(InvariantViolation) as caught:
        _rotate(s, Multivector.generator(CL20, 1), 2)
    assert str(caught.value) == "conjugation left the vector space: at the blade e1 y s = 3/10 but s x = 3/5"


def test_rotation_checks_the_form_against_the_signature(monkeypatch):
    # the products read the signature through its negative mask; a broken
    # sigmas table reads the form of the boosted e1 as Euclidean
    s = Multivector(CL11, {0: Fraction(5, 4), 0b11: Fraction(3, 4)})
    x = Multivector.generator(CL11, 1)
    y = _rotate(s, x, 1)
    assert y == Multivector.vector(CL11, [Fraction(17, 8), Fraction(-15, 8)])
    monkeypatch.setattr(Signature, "sigmas", lambda self: (1,) * self.dim)
    with pytest.raises(InvariantViolation) as caught:
        _rotate(s, x, 1)
    assert str(caught.value) == "conjugation changed the quadratic form: (y,y) = 257/32, (x,x) = 1"


def test_rotation_divides_by_a_rational_norm():
    # s = 1/2 has N(s) = 1/4 and conjugates every vector to itself
    sig = Signature(2, 1)
    x = Multivector.vector(sig, [Fraction(3), Fraction(-1, 2), Fraction(5, 7)])
    assert _rotate(Multivector.scalar(sig, Fraction(1, 2)), x, Fraction(1, 4)) == x


def test_spin_element_value_cannot_be_reassigned():
    s = SpinElement(Multivector.scalar(CL20, 1))
    assert is_spin(s)
    with pytest.raises(AttributeError):
        s.value = Multivector.scalar(CL20, 2)
    assert s.value == Multivector.scalar(CL20, 1) and is_spin(s)


def test_shared_element_verdicts_agree_across_threads():
    sig = Signature(3, 2)
    elements = [random_spin_element(sig, seed, 2) for seed in range(4)]
    fresh = [SpinElement(e.value) for e in elements]  # nothing kept yet
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(apply_rotation, s, Multivector.generator(sig, 1)) for s in fresh * 8]
            rotated = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    expected = [apply_rotation(e, Multivector.generator(sig, 1)) for e in elements] * 8
    assert rotated == expected
    assert all(is_spin(s) and s.lipschitz() for s in fresh)


def test_a_failed_spin_predicate_names_its_evidence(monkeypatch):
    # the draw reads the form through sigmas and the product through the
    # negative mask; a broken sigmas table draws vectors that are not unit
    monkeypatch.setattr(Signature, "sigmas", lambda self: (1, -1))
    with pytest.raises(InvariantViolation) as caught:
        random_spin_element(CL20, 0, 1)
    assert str(caught.value) == (
        "product of unit vectors failed the spin predicate in Cl(2,0) plain, k = 1: "
        "N(s) = 17/8, Lipschitz True"
    )


def test_a_failed_norm_balancing_names_its_evidence(monkeypatch):
    # the spin norm read with the opposite sign passes the spin predicate
    # but turns the balanced product's N(s) = 1 into -1
    spin_norm = spinorlab.spin.spin_norm
    monkeypatch.setattr(spinorlab.spin, "spin_norm", lambda s: -spin_norm(s))
    with pytest.raises(InvariantViolation) as caught:
        random_spin_element(Signature(2, 1, INTERLEAVED), 3, 2, norm_plus=True)
    assert str(caught.value) == "norm balancing failed in Cl(2,1) interleaved, k = 2: N(s) = -1, not 1"


def test_apply_rotation_rejects_bad_input():
    s = SpinElement(Multivector.scalar(CL20, 2))
    with pytest.raises(ValueError):
        apply_rotation(s, Multivector.generator(CL20, 1))
    good = SpinElement(Multivector.scalar(CL20, 1))
    with pytest.raises(ValueError):
        apply_rotation(good, Multivector.scalar(CL20, 1))


def test_relation_report_json():
    sig = Signature(4, 0)
    s = reconstruct_from_low_grade(1, {(1, 2): 1}, sig)
    payload = check_relations(s).to_json()
    assert payload["norm"] == Fraction(2)
    assert payload["spin"] is False
    assert payload["residuals"][0]["indices"] == [1, 2, 3, 4]
    assert payload["residuals"][0]["value"] == Fraction(0)


# -- the integer routes against the Fraction oracles ---------------------------


def bits(values):
    """Exact (type, numerator, denominator) records of a list of rationals."""
    return [(type(v), v.numerator, v.denominator) for v in values]


#: Rationals with mixed denominators up to 10^6.
rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@st.composite
def skew_tables(draw, max_dim=8):
    n = draw(st.integers(0, max_dim))
    table = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(rationals | st.just(Fraction(0)))
            table[i][j], table[j][i] = v, -v
    return table


@st.composite
def even_elements(draw):
    """A completion that passes the relations, with a few coordinates
    perturbed or zeroed, in a signature of dims 0..8 of either ordering."""
    table = draw(skew_tables())
    dim = len(table)
    p = draw(st.integers(0, dim))
    sig = Signature(p, dim - p, draw(st.sampled_from(["plain", INTERLEAVED])))
    coords = dense.completed_coords(draw(rationals.filter(bool)), table)
    even = [mask for mask in range(1 << dim) if not mask.bit_count() & 1]
    changes = draw(st.dictionaries(st.sampled_from(even), rationals | st.just(Fraction(0)), max_size=3))
    terms = dict(enumerate(coords))
    terms.update(changes)
    return SpinElement(Multivector(sig, terms))


@settings(max_examples=120, deadline=None)
@given(skew_tables(), rationals.filter(bool))
def test_pfaffian_table_and_completion_are_bit_equal_to_the_fraction_oracle(table, scalar):
    assert bits(pfaffians(table)) == bits(dense.pfaffians(table))
    pairs = _pair_coords(table, len(table))
    assert bits(completed_coords(scalar, pairs, len(table))) == bits(dense.completed_coords(scalar, table))


@settings(max_examples=120, deadline=None)
@given(even_elements())
def test_residuals_and_norm_are_bit_equal_to_the_fraction_oracle(s):
    coord, dim = s.value.coefficient, s.signature.dim
    residuals = _residuals(*s.value._cleared_terms(), dim)
    expected = dense.relation_residuals(coord, dim)
    assert [subset for subset, _ in residuals] == [subset for subset, _ in expected]
    assert bits(value for _, value in residuals) == bits(value for _, value in expected)
    total, diagonal = dense.spin_norm(s)
    assert bits([spin_norm(s)]) == bits([total]) == bits([diagonal])


@settings(max_examples=120, deadline=None)
@given(even_elements())
def test_quadric_verdict_is_the_residual_verdict_on_mixed_denominators(s):
    chart = _chart(s.value)
    assert _obeys_relations(chart) == _relations_hold(chart)


@settings(max_examples=60, deadline=None)
@given(skew_tables())
def test_pfaffian_squares_to_determinant_on_mixed_denominators(table):
    """Pf^2 = det, the independent oracle, on the full table and its leading minors."""
    pfs = pfaffians(table)
    for size in range(0, len(table) + 1, 2):
        minor = [row[:size] for row in table[:size]]
        assert pfs[(1 << size) - 1] ** 2 == det(minor)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_vector_norm_is_bit_equal_to_the_square(data):
    dim = data.draw(st.integers(1, 8))
    p = data.draw(st.integers(0, dim))
    sig = Signature(p, dim - p, data.draw(st.sampled_from(["plain", INTERLEAVED])))
    x = Multivector.vector(sig, data.draw(st.lists(rationals, min_size=dim, max_size=dim)))
    assert bits([vector_norm(x)]) == bits([dense.product(x, x).scalar_part()])


@st.composite
def signatures(draw, min_dim=0):
    """Dims min_dim..8, plain or interleaved, definite or indefinite."""
    dim = draw(st.integers(min_dim, 8))
    p = draw(st.integers(0, dim))
    return Signature(p, dim - p, draw(st.sampled_from(["plain", INTERLEAVED])))


@st.composite
def multivectors(draw, sig, max_terms=5):
    masks = st.integers(0, (1 << sig.dim) - 1)
    return Multivector(sig, draw(st.dictionaries(masks, rationals, max_size=max_terms)))


def assert_form_is_the_clearing(m):
    """The element's integer form is linalg._cleared of its Fraction terms,
    bit for bit and in term order: reduced, over a positive scale."""
    numerators, scale = _cleared([c for _, c in m.items()])
    expected = [(mask, int, v) for mask, v in zip(m.masks(), numerators)]
    pairs, kept_scale = m._cleared_terms()
    assert [(mask, type(v), v) for mask, v in pairs] == expected
    assert (type(kept_scale), kept_scale) == (int, scale)


def fraction_sum(*parts):
    """The Fraction terms of a sum of term lists, in first-reached order, zeros dropped."""
    out = {}
    for terms in parts:
        for mask, c in terms:
            out[mask] = out.get(mask, 0) + c
    return [(mask, c) for mask, c in out.items() if c]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_producer_keeps_the_clearing_of_its_terms(data):
    sig = data.draw(signatures())
    a, b = data.draw(multivectors(sig)), data.draw(multivectors(sig))
    r = data.draw((rationals | st.integers(-6, 6)).filter(bool))
    k = data.draw(st.integers(0, sig.dim))
    ta, tb = list(a.items()), list(b.items())

    def reversion_sign(mask):
        return (-1) ** (mask.bit_count() * (mask.bit_count() - 1) // 2)

    # each operation against its Fraction terms, in term order
    expected = {
        "text": (Multivector.from_text(sig, a.to_text()), sorted(ta, key=lambda t: (t[0].bit_count(), t[0]))),
        "json": (Multivector.from_json_terms(sig, a.to_json_terms()), sorted(ta)),
        "neg": (-a, [(mask, -c) for mask, c in ta]),
        "reverse": (a.reverse(), [(mask, c * reversion_sign(mask)) for mask, c in ta]),
        "grade": (a.grade_projection(k), [(mask, c) for mask, c in ta if mask.bit_count() == k]),
        "sum": (a + b, fraction_sum(ta, tb)),
        "difference": (a - b, fraction_sum(ta, [(mask, -c) for mask, c in tb])),
        "scaled": (a * r, [(mask, c * r) for mask, c in ta]),
        "divided": (a / r, [(mask, c / r) for mask, c in ta]),
    }
    for name, (m, terms) in expected.items():
        assert list(m.items()) == terms, name
        assert_form_is_the_clearing(m)
    for m in (a, b, a * b, r * a):
        assert_form_is_the_clearing(m)
    # equality and hashing see the reduced form exactly as the Fraction terms
    for m, _ in expected.values():
        for other in (a, b, a + b):
            assert (m == other) == (dict(m.items()) == dict(other.items()))
            assert m != other or hash(m) == hash(other)
    for m in ((a + b) - b, a * r / r, -(-a), a.reverse().reverse()):
        assert m == a and hash(m) == hash(a)
    table = [[Fraction(0)] * sig.dim for _ in range(sig.dim)]
    for i in range(sig.dim):
        for j in range(i + 1, sig.dim):
            v = data.draw(rationals | st.just(Fraction(0)))
            table[i][j], table[j][i] = v, -v
    completed = reconstruct_from_low_grade(data.draw(rationals.filter(bool)), table, sig)
    assert_form_is_the_clearing(completed.value)
    if not sig.dim:
        return
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    signs = [sign for sign, count in ((1, sig.p), (-1, sig.q)) if count]
    vectors = [random_unit_vector(sig, rng, data.draw(st.sampled_from(signs))) for _ in range(2)]
    for v in vectors:
        assert_form_is_the_clearing(v)
    free = [data.draw(st.lists(rationals, min_size=sig.dim, max_size=sig.dim)) for _ in range(2)]
    chain = spin_from_vectors(vectors + [Multivector.vector(sig, coords) for coords in free])
    assert_form_is_the_clearing(chain.value)
    s = random_spin_element(sig, data.draw(st.integers(0, 2**16)), 1)
    x = Multivector.vector(sig, free[0])
    assert_form_is_the_clearing(_rotate(s.value, x, s.norm()))
