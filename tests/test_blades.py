"""Core blade arithmetic, checked against an independent brute-force oracle."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import (
    INTERLEAVED,
    Multivector,
    Signature,
    blade_grade,
    blade_indices,
    blade_product,
    mask_from_indices,
    volume_element,
    volume_square,
)
from spinorlab.blades import MAX_DIM, _numerator_product

import dense
from dense import grades


def oracle_blade_product(b1, b2, sig):
    """Reference product: concatenate index tuples, bubble-sort, contract."""
    seq = list(blade_indices(b1)) + list(blade_indices(b2))
    sign = 1
    for left in range(len(seq)):
        for pos in range(len(seq) - 1 - left):
            if seq[pos] > seq[pos + 1]:
                seq[pos], seq[pos + 1] = seq[pos + 1], seq[pos]
                sign = -sign
    reduced = []
    pos = 0
    while pos < len(seq):
        if pos + 1 < len(seq) and seq[pos] == seq[pos + 1]:
            sign *= sig.sigma(seq[pos])
            pos += 2
        else:
            reduced.append(seq[pos])
            pos += 1
    return sign, mask_from_indices(reduced)


CL11 = Signature(1, 1)
CL20 = Signature(2, 0)
CL33 = Signature(3, 3, INTERLEAVED)


def test_sigma_plain_and_interleaved():
    assert Signature(4, 3).sigmas() == (1, 1, 1, 1, -1, -1, -1)
    assert Signature(4, 3, INTERLEAVED).sigmas() == (1, -1, 1, -1, 1, -1, 1)
    assert Signature(3, 3, INTERLEAVED).sigmas() == (1, -1, 1, -1, 1, -1)
    assert Signature(0, 2).sigmas() == (-1, -1)


def test_generator_square_examples():
    assert blade_product(0b01, 0b01, CL11) == (1, 0)
    assert blade_product(0b01, 0b10, CL11) == (1, 0b11)
    assert blade_product(0b10, 0b01, CL11) == (-1, 0b11)


def test_pseudoquaternion_units_square_to_one():
    # phi = e12345 and psi = e12346 both square to +1 in plain (3,3);
    # in the interleaved ordering phi still does
    plain = Signature(3, 3)
    phi = mask_from_indices((1, 2, 3, 4, 5))
    psi = mask_from_indices((1, 2, 3, 4, 6))
    assert blade_product(phi, phi, plain) == (1, 0)
    assert blade_product(psi, psi, plain) == (1, 0)
    assert blade_product(phi, phi, CL33) == (1, 0)
    # their product is a two-blade on indices 5,6; fix the sign by the oracle
    assert blade_product(phi, psi, plain) == oracle_blade_product(phi, psi, plain)
    assert blade_product(phi, psi, plain)[1] == mask_from_indices((5, 6))


@pytest.mark.parametrize("p,q", [(2, 0), (1, 1), (0, 2), (3, 1), (2, 2), (3, 3)])
def test_blade_product_matches_oracle(p, q):
    sig = Signature(p, q)
    for b1 in range(1 << sig.dim):
        for b2 in range(1 << sig.dim):
            assert blade_product(b1, b2, sig) == oracle_blade_product(b1, b2, sig)


@pytest.mark.parametrize("p,q", [(2, 1), (0, 3), (2, 2)])
def test_product_table_is_signed_permutation(p, q):
    sig = Signature(p, q)
    size = 1 << sig.dim
    for b1 in range(size):
        results = [blade_product(b1, b2, sig)[1] for b2 in range(size)]
        assert sorted(results) == list(range(size))
        results = [blade_product(b2, b1, sig)[1] for b2 in range(size)]
        assert sorted(results) == list(range(size))


def test_anticommutation_relation():
    for sig in (Signature(2, 2), Signature(3, 0), Signature(2, 2, INTERLEAVED)):
        for i in range(1, sig.dim + 1):
            for j in range(1, sig.dim + 1):
                ei = Multivector.generator(sig, i)
                ej = Multivector.generator(sig, j)
                anti = ei * ej + ej * ei
                expected = Multivector.scalar(sig, 2 * sig.sigma(i)) if i == j else Multivector.zero(sig)
                assert anti == expected


def random_multivector(sig, rng, density=0.5):
    terms = {}
    for mask in range(1 << sig.dim):
        if rng.random() < density:
            terms[mask] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Multivector(sig, terms)


@pytest.mark.parametrize("p,q", [(3, 0), (2, 2), (1, 3), (3, 3)])
def test_associativity_random(p, q):
    sig = Signature(p, q)
    rng = random.Random(1234 + 10 * p + q)
    for _ in range(8):
        a = random_multivector(sig, rng)
        b = random_multivector(sig, rng)
        c = random_multivector(sig, rng)
        assert (a * b) * c == a * (b * c)


sparse_terms = st.dictionaries(
    st.integers(min_value=0, max_value=15),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    max_size=5,
)


@settings(max_examples=80, deadline=None)
@given(sparse_terms, sparse_terms, sparse_terms)
def test_associativity_property(ta, tb, tc):
    sig = Signature(2, 2)
    a, b, c = (Multivector(sig, t) for t in (ta, tb, tc))
    assert (a * b) * c == a * (b * c)


@settings(max_examples=80, deadline=None)
@given(sparse_terms, sparse_terms)
def test_reversion_antiautomorphism_property(ta, tb):
    sig = Signature(1, 3)
    a, b = Multivector(sig, ta), Multivector(sig, tb)
    assert (a * b).reverse() == b.reverse() * a.reverse()


def test_distributivity_and_unit():
    sig = Signature(2, 1)
    rng = random.Random(7)
    one = Multivector.scalar(sig, 1)
    for _ in range(10):
        a = random_multivector(sig, rng)
        b = random_multivector(sig, rng)
        c = random_multivector(sig, rng)
        assert a * (b + c) == a * b + a * c
        assert one * a == a
        assert a * one == a


def test_spec_product_example():
    sig = CL20
    e1 = Multivector.generator(sig, 1)
    e2 = Multivector.generator(sig, 2)
    result = (e1 + e2) * (e1 - e2)
    assert result == Multivector.blade(sig, 0b11, -2)


def test_reversion_signs():
    sig = Signature(3, 0)
    assert Multivector.generator(sig, 1).reverse() == Multivector.generator(sig, 1)
    e12 = Multivector.blade(sig, 0b011)
    assert e12.reverse() == -e12
    e123 = Multivector.blade(sig, 0b111)
    assert e123.reverse() == -e123


@pytest.mark.parametrize("p,q", [(2, 1), (2, 2)])
def test_reversion_antiautomorphism(p, q):
    sig = Signature(p, q)
    rng = random.Random(99)
    for _ in range(12):
        a = random_multivector(sig, rng)
        b = random_multivector(sig, rng)
        assert (a * b).reverse() == b.reverse() * a.reverse()


def test_grade_projection():
    sig = Signature(2, 0)
    m = Multivector(sig, {0: 1, 0b11: 1})
    assert m.grade_projection(0) == Multivector.scalar(sig, 1)
    assert m.grade_projection(2) == Multivector.blade(sig, 0b11)
    assert m.grade_projection(1).is_zero()
    total = Multivector.zero(sig)
    for k in range(sig.dim + 1):
        total = total + m.grade_projection(k)
    assert total == m
    with pytest.raises(ValueError):
        m.grade_projection(3)


def test_conjugation_of_vector_is_vector():
    sig = Signature(2, 0)
    s = Multivector(sig, {0: Fraction(3, 5), 0b11: Fraction(4, 5)})
    x = Multivector.generator(sig, 1)
    result = s * x * s.reverse()
    assert grades(result) == {1}


def test_volume_element_squares():
    assert volume_square(Signature(2, 0)) == -1
    assert volume_square(Signature(1, 1)) == 1
    assert volume_square(Signature(4, 3)) == 1
    assert volume_element(Signature(2, 1)) == 0b111


def test_inverse_roundtrip_and_singular():
    sig = Signature(2, 0)
    s = Multivector(sig, {0: 1, 0b11: 1})
    inv = s.inverse()
    assert s * inv == Multivector.scalar(sig, 1)
    assert inv * s == Multivector.scalar(sig, 1)
    singular = Multivector(sig, {0: 1, 0b01: 1})  # (1+e1)(1-e1) = 0
    with pytest.raises(ValueError):
        singular.inverse()


def test_inverse_general_path():
    # mixed-parity element that is invertible but s*rev(s) is not scalar
    sig = Signature(3, 0)
    s = Multivector(sig, {0: 2, 0b001: 1, 0b110: 3})
    assert len(s * s.reverse()) > 1
    inv = s.inverse()
    assert s * inv == Multivector.scalar(sig, 1)


def test_signature_mismatch_raises():
    a = Multivector.scalar(Signature(2, 0), 1)
    b = Multivector.scalar(Signature(1, 1), 1)
    with pytest.raises(ValueError):
        _ = a * b
    with pytest.raises(ValueError):
        _ = a + b


# -- text and JSON round trips -------------------------------------------------


def test_text_format_example():
    sig = Signature(4, 0)
    m = Multivector(sig, {0: 1, 0b0011: -2, 0b1101: Fraction(1, 3)})
    assert m.to_text() == "1 - 2*e12 + 1/3*e134"
    assert Multivector.from_text(sig, m.to_text()) == m


def test_text_parse_variants():
    sig = Signature(3, 0)
    assert Multivector.from_text(sig, "0").is_zero()
    assert Multivector.from_text(sig, "e12") == Multivector.blade(sig, 0b011)
    assert Multivector.from_text(sig, "-e3") == Multivector.blade(sig, 0b100, -1)
    assert Multivector.from_text(sig, "2 + 2") == Multivector.scalar(sig, 4)
    with pytest.raises(ValueError):
        Multivector.from_text(sig, "e21")
    with pytest.raises(ValueError):
        Multivector.from_text(sig, "e9")
    with pytest.raises(ValueError):
        Multivector.from_text(sig, "banana")


def test_text_roundtrip_large_indices():
    sig = Signature(12, 0)
    m = Multivector(sig, {mask_from_indices((1, 11)): Fraction(-7, 2), 0: 5})
    text = m.to_text()
    assert "e(1,11)" in text
    assert Multivector.from_text(sig, text) == m


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=63),
        st.fractions(min_value=-50, max_value=50, max_denominator=30),
        max_size=10,
    )
)
def test_text_roundtrip_property(terms):
    sig = Signature(3, 3)
    m = Multivector(sig, terms)
    assert Multivector.from_text(sig, m.to_text()) == m


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=255),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        max_size=12,
    )
)
def test_json_roundtrip_property(terms):
    sig = Signature(4, 4, INTERLEAVED)
    m = Multivector(sig, terms)
    assert Multivector.from_json_terms(sig, m.to_json_terms()) == m


def test_blade_grade_and_indices():
    assert blade_grade(0) == 0
    assert blade_grade(0b1011) == 3
    assert blade_indices(0b1011) == (1, 2, 4)
    assert mask_from_indices((1, 2, 4)) == 0b1011
    with pytest.raises(ValueError):
        mask_from_indices((1, 1))


def test_blade_indices_on_every_mask_up_to_max_dim():
    for mask in range(1 << MAX_DIM):
        indices = blade_indices(mask)
        assert indices == tuple(i + 1 for i in range(MAX_DIM) if mask >> i & 1)
        assert mask_from_indices(indices) == mask


# -- the integer product against the Fraction oracle ---------------------------


def bits(m):
    """Stored terms as exact (mask, type, numerator, denominator) records."""
    return sorted((mask, type(c), c.numerator, c.denominator) for mask, c in m.items())


def assert_stored_terms_are_nonzero_fractions(m):
    assert all(type(c) is Fraction and c != 0 for _, c in m.items())


#: Rationals with mixed denominators up to 10^6.
rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@st.composite
def signatures(draw, min_dim=0, max_dim=8):
    dim = draw(st.integers(min_dim, max_dim))
    p = draw(st.integers(0, dim))
    return Signature(p, dim - p, draw(st.sampled_from(["plain", INTERLEAVED])))


@st.composite
def multivectors(draw, sig, max_terms=12):
    masks = st.integers(0, (1 << sig.dim) - 1)
    return Multivector(sig, draw(st.dictionaries(masks, rationals, max_size=max_terms)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_is_bit_equal_to_the_fraction_oracle(data):
    """Dims 0..8, both orderings, mixed denominators: the integer product and
    the rational scaling store exactly the oracle's terms."""
    sig = data.draw(signatures())
    a, b = data.draw(multivectors(sig)), data.draw(multivectors(sig))
    product = a * b
    assert bits(product) == bits(dense.product(a, b))
    assert_stored_terms_are_nonzero_fractions(product)
    r = data.draw(rationals | st.integers(-9, 9))
    scaled = a * r
    assert bits(scaled) == bits(Multivector(sig, {m: c * r for m, c in a.items()}))
    assert bits(r * a) == bits(scaled)
    assert_stored_terms_are_nonzero_fractions(scaled)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_products_that_cancel_store_no_terms(data):
    """A null vector n = e_i + e_j with e_i^2 = 1 and e_j^2 = -1 squares to 0,
    so (m n) n cancels term by term; scaling by 0 stores nothing either, and
    neither do the terms that cancel in a sum or difference."""
    sig = data.draw(signatures(min_dim=2).filter(lambda s: s.p and s.q))
    m = data.draw(multivectors(sig))
    sigmas = sig.sigmas()
    i, j = sigmas.index(1), sigmas.index(-1)
    null = Multivector(sig, {1 << i: 1, 1 << j: 1})
    for zero in ((m * null) * null, null * null, m * 0, m * Fraction(0), 0 * m, m - m, m + -m):
        assert zero.is_zero() and len(zero) == 0 and zero == Multivector.zero(sig)
    assert bits(dense.product(m * null, null)) == []
    partial = (m + null) - m
    assert partial == null and len(partial) == 2
    assert_stored_terms_are_nonzero_fractions(partial)


@pytest.mark.parametrize("sig", [CL20, CL11, Signature(0, 2), Signature(2, 2, INTERLEAVED)], ids=str)
def test_bivector_square_is_a_stored_scalar(sig):
    e12 = Multivector.blade(sig, 0b11)
    square = e12 * e12
    assert bits(square) == bits(dense.product(e12, e12))
    assert square == Multivector.scalar(sig, -sig.sigma(1) * sig.sigma(2))
    assert_stored_terms_are_nonzero_fractions(square)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_blade_product_matches_oracle_up_to_max_dim(data):
    """The parity form of the sign against the bubble-sort oracle, at every
    dimension up to MAX_DIM, so a larger MAX_DIM cannot outgrow it unseen."""
    sig = data.draw(signatures(min_dim=MAX_DIM - 4, max_dim=MAX_DIM))
    masks = st.integers(0, (1 << sig.dim) - 1)
    b1, b2 = data.draw(masks), data.draw(masks)
    assert blade_product(b1, b2, sig) == oracle_blade_product(b1, b2, sig)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_numerator_product_equals_a_blade_product_double_loop(data):
    """The product loop's hoisted sign against ``blade_product`` term pair by
    term pair, at dims up to MAX_DIM, plain and interleaved: the same
    integers in the same first-reached order, cancelled blades kept as 0."""
    sig = data.draw(signatures(max_dim=MAX_DIM))
    masks = st.integers(0, (1 << sig.dim) - 1)
    terms = st.lists(st.tuples(masks, st.integers(-10**6, 10**6)), max_size=10)
    left, right = data.draw(terms), data.draw(terms)
    expected = {}
    for m1, a in left:
        for m2, b in right:
            sign, mask = blade_product(m1, m2, sig)
            expected[mask] = expected.get(mask, 0) + sign * a * b
    assert list(_numerator_product(left, right, sig).items()) == list(expected.items())


def test_dense_product_at_dim_10_within_budget():
    """Two dense even elements of Cl(5,5), 512 terms each: 262144 term pairs.

    Budget 1.0 s.  On a 2-vCPU VM with Python 3.11.7 the product took
    1.6-1.9 s with one ``Fraction`` product and sum per term pair, 0.8-0.9 s
    on integer numerators, and 0.20-0.21 s once the blade sign was also
    counted by parities.  The result is bit-equal to the ``Fraction``
    oracle, checked outside the timed region.
    """
    sig = Signature(5, 5)
    rng = random.Random(10)

    def dense_even():
        return Multivector(
            sig,
            {m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
             for m in range(1 << 10) if not m.bit_count() & 1},
        )

    a, b = dense_even(), dense_even()
    start = time.perf_counter()
    product = a * b
    elapsed = time.perf_counter() - start
    assert bits(product) == bits(dense.product(a, b))
    assert elapsed < 1.0
