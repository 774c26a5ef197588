"""Classification atlas: period-8 table, even subalgebra, unit pairs, factorization."""

import random
import time
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import and_

import pytest

import spinorlab.atlas
import spinorlab.blades
from spinorlab import (
    INTERLEAVED,
    AlgebraClass,
    InvariantViolation,
    Multivector,
    Signature,
    center_structure,
    classify,
    descriptor,
    even_subalgebra_signature,
    karoubi_factorization,
    quaternion_split,
    tensor_class,
    unit_pair_for,
    volume_square,
)
from spinorlab.atlas import (
    _check_pair_invariants,
    even_subalgebra_generator_images,
    factorization_class,
    verify_even_subalgebra_map,
)
from spinorlab.blades import MAX_DIM, blade_grade, blade_product

from dense import even_map_by_products, grades

# (p, q) -> (ring, size, multiplicity), from the classical period-8 table
KNOWN_CLASSES = {
    (0, 0): ("R", 1, 1),
    (1, 0): ("R", 1, 2),
    (0, 1): ("C", 1, 1),
    (2, 0): ("R", 2, 1),
    (1, 1): ("R", 2, 1),
    (0, 2): ("H", 1, 1),
    (3, 0): ("C", 2, 1),
    (0, 3): ("H", 1, 2),
    (3, 1): ("R", 4, 1),
    (1, 3): ("H", 2, 1),
    (2, 2): ("R", 4, 1),
    (0, 4): ("H", 2, 1),
    (4, 0): ("H", 2, 1),
    (5, 0): ("H", 2, 2),
    (0, 5): ("C", 4, 1),
    (4, 3): ("R", 8, 2),
    (3, 3): ("R", 8, 1),
    (4, 4): ("R", 16, 1),
}


@pytest.mark.parametrize("pq,expected", sorted(KNOWN_CLASSES.items()))
def test_classify_known_table(pq, expected):
    cls = classify(Signature(*pq))
    assert (cls.ring, cls.size, cls.multiplicity) == expected


def test_dimension_identity_up_to_eight():
    for p in range(9):
        for q in range(9 - p):
            cls = classify(Signature(p, q))
            assert cls.real_dimension == 1 << (p + q)


def test_classify_smallest_complex_case():
    # Cl(0,1) is two-dimensional with volume square -1: the complex numbers
    sig = Signature(0, 1)
    assert volume_square(sig) == -1
    assert classify(sig) == AlgebraClass("C", 1, 1, 0, 1)


def test_even_subalgebra_rule():
    assert even_subalgebra_signature(Signature(4, 4)) == Signature(4, 3)
    assert even_subalgebra_signature(Signature(1, 1)) == Signature(1, 0)
    assert even_subalgebra_signature(Signature(3, 1)) == Signature(1, 2)
    assert even_subalgebra_signature(Signature(1, 3)) == Signature(3, 0)
    assert even_subalgebra_signature(Signature(5, 0)) == Signature(0, 4)
    assert even_subalgebra_signature(Signature(0, 5)) == Signature(0, 4)
    with pytest.raises(ValueError):
        even_subalgebra_signature(Signature(0, 0))


def test_even_subalgebra_chain_for_neutral_four():
    even = even_subalgebra_signature(Signature(4, 4))
    cls = classify(even)
    assert (cls.ring, cls.size, cls.multiplicity) == ("R", 8, 2)


@pytest.mark.parametrize("p", range(9))
def test_even_map_verified(p):
    for q in range(9 - p):
        if p + q < 1:
            continue
        sig = Signature(p, q)
        assert verify_even_subalgebra_map(sig)
        assert even_map_by_products(sig, even_subalgebra_generator_images(sig))


def independent(masks):
    """Whether the 2^len subset products of the blades are distinct blades."""
    products = [0]
    for mask in masks:
        products += [m ^ mask for m in products]
    return len(set(products)) == len(products)


def tampered_image_lists(sig):
    """(label, images, still valid).  For each image of the even map: a sign
    flip, a duplicate of the next image, a doubled image, a two-term image,
    the odd generator that all images share, a blade of the wrong square, and
    blades of the right square that commute with another image or that
    anticommute with all of them but are a product of them.  For each pair of
    images with different squares: the two swapped."""
    images = even_subalgebra_generator_images(sig)
    target = even_subalgebra_signature(sig)
    masks = [next(image.masks()) for image in images]
    anchor = reduce(and_, masks)
    even_masks = [m for m in range(1 << sig.dim) if blade_grade(m) % 2 == 0]
    for k, image in enumerate(images):
        others = masks[:k] + masks[k + 1 :]
        square = target.sigma(k + 1)
        wrong = next(m for m in even_masks if blade_product(m, m, sig)[0] != square)
        cases = [
            ("negated", -image, True),
            ("duplicate", images[(k + 1) % len(images)], False),
            ("doubled", image * 2, False),
            ("two_terms", image + Multivector.scalar(sig, 1), False),
            ("odd", Multivector.blade(sig, anchor), False),
            ("wrong_square", Multivector.blade(sig, wrong), False),
        ]
        found = {}
        for m in even_masks:
            if blade_product(m, m, sig)[0] == square:
                commutes = any(blade_product(m, o, sig)[0] == blade_product(o, m, sig)[0] for o in others)
                label = "commuting" if commutes else "dependent"
                if commutes == independent(others + [m]):
                    found.setdefault(label, Multivector.blade(sig, m))
        cases += [(label, blade, False) for label, blade in found.items()]
        for label, changed, valid in cases:
            yield f"{label}@{k}", images[:k] + [changed] + images[k + 1 :], valid
    for k, l in combinations(range(len(images)), 2):
        if target.sigma(k + 1) != target.sigma(l + 1):
            swapped = list(images)
            swapped[k], swapped[l] = images[l], images[k]
            yield f"swapped@{k},{l}", swapped, False


@pytest.mark.parametrize("p, q", [(3, 0), (0, 3), (2, 2), (1, 3), (4, 3), (0, 5), (3, 5)])
def test_even_map_verdicts_on_tampered_images_match_the_product_route(monkeypatch, p, q):
    # swaps need target squares of both signs: (2, 2), (4, 3), (3, 5); a
    # dependent blade that passes the relations needs three images: (2, 2)
    sig = Signature(p, q)
    for label, images, valid in tampered_image_lists(sig):
        monkeypatch.setattr(spinorlab.atlas, "even_subalgebra_generator_images", lambda _sig: images)
        assert verify_even_subalgebra_map(sig) is valid, label
        assert even_map_by_products(sig, images) is valid, label


def test_even_map_at_max_dim_within_budget():
    """All 17 signatures with p+q = MAX_DIM.  Multiplying the images as
    multivectors took 44.9 and 46.8 s for them; reading them as blades takes
    0.07-0.08 s (two and five runs, Python 3.11.7 on a 2-vCPU VM)."""
    started = time.perf_counter()
    verdicts = [verify_even_subalgebra_map(Signature(p, MAX_DIM - p)) for p in range(MAX_DIM + 1)]
    assert time.perf_counter() - started < 1.0
    assert all(verdicts)


def test_even_map_images_live_in_even_part():
    sig = Signature(3, 2)
    for image in even_subalgebra_generator_images(sig):
        assert image.is_even()
        assert grades(image) <= {2}


def test_center_structure():
    assert center_structure(Signature(4, 3)) == "double"
    assert center_structure(Signature(0, 1)) == "complex"
    assert center_structure(Signature(1, 1)) == "trivial"
    assert center_structure(Signature(3, 0)) == "complex"
    assert center_structure(Signature(1, 0)) == "double"


def test_unit_pair_kinds():
    pseudo = unit_pair_for(Signature(3, 3))
    assert pseudo.kind == "pseudo"
    assert pseudo.model_algebra() == Signature(2, 0)
    quat = unit_pair_for(Signature(0, 2))
    assert quat.kind == "quaternionic"
    assert quat.model_algebra() == Signature(0, 2)
    anti = unit_pair_for(Signature(1, 1))
    assert anti.kind == "anti"
    assert anti.model_algebra() == Signature(1, 1)
    # the maximal pair of the interleaved neutral algebra is the anti kind
    assert unit_pair_for(Signature(3, 3, INTERLEAVED)).kind == "anti"
    with pytest.raises(ValueError):
        unit_pair_for(Signature(1, 0))
    with pytest.raises(ValueError):
        unit_pair_for(Signature(3, 3), m=3)


def test_quaternion_split_simple_cases():
    sig = Signature(3, 3)
    pair = unit_pair_for(sig)
    phi = Multivector.blade(sig, pair.phi)
    zero = Multivector.zero(sig)
    a0, a1, a2, a3 = quaternion_split(phi, pair)
    assert (a0, a1, a2, a3) == (zero, Multivector.scalar(sig, 1), zero, zero)

    e1 = Multivector.generator(sig, 1)
    psi = Multivector.blade(sig, pair.psi)
    m = e1 * phi * psi
    a0, a1, a2, a3 = quaternion_split(m, pair)
    assert (a0, a1, a2) == (zero, zero, zero)
    assert a3 == e1


def test_quaternion_split_roundtrip_random():
    sig = Signature(3, 3)
    pair = unit_pair_for(sig)
    phi = Multivector.blade(sig, pair.phi)
    psi = Multivector.blade(sig, pair.psi)
    rng = random.Random(2024)
    for _ in range(10):
        terms = {
            mask: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for mask in rng.sample(range(1 << sig.dim), 12)
        }
        m = Multivector(sig, terms)
        a0, a1, a2, a3 = quaternion_split(m, pair)
        assert a0 + a1 * phi + a2 * psi + a3 * (phi * psi) == m


def test_broken_conventions_raise_invariant_violation(monkeypatch):
    sig = Signature(3, 3)
    pair = unit_pair_for(sig)  # inner generators e1..e4; phi = e12345, psi = e12346
    with pytest.raises(InvariantViolation) as info:
        _check_pair_invariants(replace(pair, phi=pair.phi ^ 0b10))
    assert str(info.value) == (
        "unit pair fails to commute with inner generators: e1345 e1 has sign -1, e1 e1345 has sign 1"
    )
    with pytest.raises(InvariantViolation) as info:
        _check_pair_invariants(replace(pair, psi=pair.phi))
    assert str(info.value) == "unit pair fails to anticommute: phi psi = 1, psi phi = 1"
    # a split whose components leave the inner subalgebra
    wide = Signature(4, 4)
    small = unit_pair_for(wide, m=1)  # inner generators e1, e2; units on 3, 4
    stray = Multivector.generator(wide, 5)
    monkeypatch.setattr(Multivector, "inverse", lambda self: stray)
    with pytest.raises(InvariantViolation) as info:
        quaternion_split(Multivector.blade(wide, small.phi), small)
    assert str(info.value) == "split component escaped the inner subalgebra: A1 has e1235"
    monkeypatch.undo()
    # a target signature of the wrong size
    monkeypatch.setattr(spinorlab.atlas, "even_subalgebra_signature", lambda s: s)
    with pytest.raises(InvariantViolation, match="even-map images"):
        even_subalgebra_generator_images(sig)
    # a period table whose entry misses the real dimension
    monkeypatch.setitem(spinorlab.atlas._MOD8_TABLE, 0, ("C", 1, 0))
    with pytest.raises(InvariantViolation) as info:
        classify(Signature(2, 2))
    assert str(info.value) == "dimension identity broken for Cl(2,2): real dimension 32, not 2^4 = 16"
    # products of equal blades that leave a blade behind
    monkeypatch.setattr(spinorlab.atlas, "blade_product", lambda a, b, s: (1, 1))
    with pytest.raises(InvariantViolation) as info:
        unit_pair_for(sig)
    assert str(info.value) == "a unit of the pair does not square to a scalar: e12345 leaves e1"
    monkeypatch.setattr(spinorlab.blades, "blade_product", lambda a, b, s: (1, 1))
    with pytest.raises(InvariantViolation) as info:
        volume_square(sig)
    assert str(info.value) == "the volume element of Cl(3,3) does not square to a scalar: e123456 leaves e1 with sign 1"


def test_quaternion_split_rejects_outside_blades():
    sig = Signature(4, 4)
    pair = unit_pair_for(sig, m=1)  # inner generators e1, e2; units on 3, 4
    stray = Multivector.generator(sig, 5)
    with pytest.raises(ValueError):
        quaternion_split(stray, pair)


def test_karoubi_factorization_cases():
    assert karoubi_factorization(Signature(3, 3)) == [
        Signature(2, 0),
        Signature(2, 0),
        Signature(1, 1),
    ]
    assert karoubi_factorization(Signature(1, 1)) == [Signature(1, 1)]
    two = karoubi_factorization(Signature(2, 2))
    assert len(two) == 2
    cls = factorization_class(Signature(2, 2))
    assert (cls.ring, cls.size, cls.multiplicity) == ("R", 4, 1)
    with pytest.raises(ValueError):
        karoubi_factorization(Signature(2, 1))


def test_karoubi_matches_classify_everywhere():
    for p in range(9):
        for q in range(9 - p):
            if (p + q) % 2 or p + q == 0:
                continue
            via_factors = factorization_class(Signature(p, q))
            direct = classify(Signature(p, q))
            assert (via_factors.ring, via_factors.size, via_factors.multiplicity) == (
                direct.ring,
                direct.size,
                direct.multiplicity,
            )


def test_tensor_class_table():
    r2 = AlgebraClass("R", 2, 1)
    h = AlgebraClass("H", 1, 1)
    c = AlgebraClass("C", 1, 1)
    assert tensor_class(r2, h) == AlgebraClass("H", 2, 1)
    assert tensor_class(h, h) == AlgebraClass("R", 4, 1)
    assert tensor_class(c, h) == AlgebraClass("C", 2, 1)
    assert tensor_class(c, c) == AlgebraClass("C", 1, 2)


def test_descriptor_shape():
    d = descriptor(Signature(4, 4))
    assert d["ring"] == "R" and d["size"] == 16 and d["multiplicity"] == 1
    assert d["even_sub"] == {"p": 4, "q": 3}
    assert d["factorization"] == [[2, 0], [2, 0], [2, 0], [2, 0]]
    odd = descriptor(Signature(1, 0))
    assert odd["factorization"] is None
    assert odd["even_sub"] == {"p": 0, "q": 0}
