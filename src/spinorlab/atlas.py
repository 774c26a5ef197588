"""Structure atlas of the real Clifford algebras Cl(p,q).

Everything an algebra "is", up to isomorphism: the matrix-algebra
descriptor from the period-8 table, the even-subalgebra signature with an
explicit verifying generator map, the center (volume-element) structure,
the commuting unit pairs phi/psi used to bolt two extra generators onto an
algebra, and the factorization into two-generator algebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .blades import (
    Multivector,
    Signature,
    _blade_token,
    blade_grade,
    blade_indices,
    blade_product,
    mask_from_indices,
    volume_square,
)
from .errors import InvariantViolation

_RING_DIMENSION = {"R": 1, "C": 2, "H": 4}

# Matrix-algebra shape of Cl(p,q) by (p - q) mod 8.  Entries are
# (ring, multiplicity, size exponent offset): size = 2**((dim - offset)/2),
# doubled rings ("multiplicity 2") split off one factor of 2.
_MOD8_TABLE = {
    0: ("R", 1, 0),
    1: ("R", 2, 1),
    2: ("R", 1, 0),
    3: ("C", 1, 1),
    4: ("H", 1, 2),
    5: ("H", 2, 3),
    6: ("H", 1, 2),
    7: ("C", 1, 1),
}


@dataclass(frozen=True)
class AlgebraClass:
    """Isomorphism type: multiplicity copies of size x size matrices over ring."""

    ring: str
    size: int
    multiplicity: int
    p: Optional[int] = None
    q: Optional[int] = None

    @property
    def real_dimension(self) -> int:
        return self.multiplicity * self.size * self.size * _RING_DIMENSION[self.ring]

    def label(self) -> str:
        prefix = "2*" if self.multiplicity == 2 else ""
        return f"{prefix}{self.ring}({self.size})"


def classify(sig: Signature) -> AlgebraClass:
    """Matrix-algebra descriptor of Cl(p,q) from the period-8 table."""
    dim = sig.dim
    ring, multiplicity, offset = _MOD8_TABLE[(sig.p - sig.q) % 8]
    size = 1 << ((dim - offset) // 2)
    result = AlgebraClass(ring=ring, size=size, multiplicity=multiplicity, p=sig.p, q=sig.q)
    if result.real_dimension != 1 << dim:
        found = f"real dimension {result.real_dimension}, not 2^{dim} = {1 << dim}"
        raise InvariantViolation(f"dimension identity broken for Cl({sig.p},{sig.q}): {found}")
    return result


def even_subalgebra_signature(sig: Signature) -> Signature:
    """Signature (p', q') with Cl(p', q') isomorphic to the even part of Cl(p,q).

    The split: algebras of general type (p != q, both positive) and type
    (p, 0) land on (q, p-1); types (0, q) and p = q land on (p, q-1).
    """
    if sig.dim < 1:
        raise ValueError("even subalgebra needs at least one generator")
    p, q = sig.p, sig.q
    if q == 0 or (p != q and p >= 1):
        return Signature(q, p - 1)
    return Signature(p, q - 1)


def even_subalgebra_generator_images(sig: Signature) -> list[Multivector]:
    """Images in Cl(p,q) of the claimed even-subalgebra generators.

    Each target generator maps to a product e_i * e_k of original
    generators, with e_k a fixed generator whose square matches the case
    split of :func:`even_subalgebra_signature`.  The images live in the
    even part and satisfy the target generator relations; together with
    their products they span the whole even part.
    """
    target = even_subalgebra_signature(sig)
    sigmas = sig.sigmas()
    positives = [i + 1 for i, s in enumerate(sigmas) if s > 0]
    negatives = [i + 1 for i, s in enumerate(sigmas) if s < 0]
    p, q = sig.p, sig.q
    if q == 0 or (p != q and p >= 1):
        anchor = positives[-1]
        # squares -sigma(i)*sigma(anchor): negatives first (-> +1), then
        # the remaining positives (-> -1), matching Cl(q, p-1)
        ordered = negatives + [i for i in positives if i != anchor]
    else:
        anchor = negatives[-1]
        ordered = positives + [i for i in negatives if i != anchor]
    if len(ordered) != target.dim:
        raise InvariantViolation(f"{len(ordered)} even-map images for a target of dimension {target.dim}")
    images = []
    for i in ordered:
        sign, mask = blade_product(1 << (i - 1), 1 << (anchor - 1), sig)
        images.append(Multivector.blade(sig, mask, sign))
    return images


def verify_even_subalgebra_map(sig: Signature) -> bool:
    """Check the generator map behind :func:`even_subalgebra_signature`.

    Each image must be a single blade +-e_M.  Verifies the target Clifford
    relations f_i f_j + f_j f_i = 2 sigma'(i) delta_ij exactly on the blades,
    and that products of the images hit 2^(p+q-1) distinct even blades, i.e.
    the induced map is onto the even part.
    """
    target = even_subalgebra_signature(sig)
    blades = []
    for image in even_subalgebra_generator_images(sig):
        if len(image) != 1:
            return False
        ((mask, coeff),) = image.items()
        if coeff not in (1, -1) or blade_grade(mask) % 2:
            return False
        blades.append(mask)
    # the coefficients are +-1, so they drop out of every relation
    for a, mask_a in enumerate(blades):
        if blade_product(mask_a, mask_a, sig)[0] != target.sigma(a + 1):
            return False
        for mask_b in blades[:a]:
            if blade_product(mask_a, mask_b, sig)[0] == blade_product(mask_b, mask_a, sig)[0]:
                return False
    masks = [0]
    for mask in blades:
        masks += [m ^ mask for m in masks]
    return len(set(masks)) == 1 << (sig.dim - 1)


def center_structure(sig: Signature) -> str:
    """'trivial' for even p+q; else 'complex' or 'double' by the volume square."""
    if sig.dim % 2 == 0:
        return "trivial"
    return "complex" if volume_square(sig) < 0 else "double"


_PAIR_KIND_ALGEBRA = {
    "quaternionic": Signature(0, 2),
    "anti": Signature(1, 1),
    "pseudo": Signature(2, 0),
}


@dataclass(frozen=True)
class QuaternionUnitPair:
    """Blades e_{1..2m,2m+1} and e_{1..2m,2m+2} commuting with e_1..e_{2m}.

    kind is 'quaternionic' (both squares -1), 'anti' (opposite squares) or
    'pseudo' (both +1); the spanned four-element basis is then isomorphic
    to Cl(0,2), Cl(1,1) or Cl(2,0) respectively.
    """

    signature: Signature
    m: int
    phi: int
    psi: int
    kind: str
    phi_square: int
    psi_square: int

    def model_algebra(self) -> Signature:
        return _PAIR_KIND_ALGEBRA[self.kind]


def unit_pair_for(sig: Signature, m: int | None = None) -> QuaternionUnitPair:
    """The commuting unit pair for 2m "inner" generators; m defaults to maximal."""
    if sig.dim < 2:
        raise ValueError(f"no unit pair exists in Cl({sig.p},{sig.q})")
    if m is None:
        m = (sig.dim - 2) // 2
    if m < 0 or 2 * m + 2 > sig.dim:
        raise ValueError(f"unit pair needs 2m+2 <= {sig.dim}, got m={m}")
    inner = mask_from_indices(range(1, 2 * m + 1))
    phi = inner | (1 << (2 * m))
    psi = inner | (1 << (2 * m + 1))
    phi_sq, phi_rest = blade_product(phi, phi, sig)
    psi_sq, psi_rest = blade_product(psi, psi, sig)
    if phi_rest or psi_rest:
        unit, rest = (phi, phi_rest) if phi_rest else (psi, psi_rest)
        found = f"{_blade_token(unit)} leaves {_blade_token(rest)}"
        raise InvariantViolation(f"a unit of the pair does not square to a scalar: {found}")
    if phi_sq < 0 and psi_sq < 0:
        kind = "quaternionic"
    elif phi_sq > 0 and psi_sq > 0:
        kind = "pseudo"
    else:
        kind = "anti"
    pair = QuaternionUnitPair(sig, m, phi, psi, kind, phi_sq, psi_sq)
    _check_pair_invariants(pair)
    return pair


def _check_pair_invariants(pair: QuaternionUnitPair) -> None:
    sig = pair.signature
    for unit in (pair.phi, pair.psi):
        for i in range(1, 2 * pair.m + 1):
            gen = 1 << (i - 1)
            s1, m1 = blade_product(unit, gen, sig)
            s2, m2 = blade_product(gen, unit, sig)
            if m1 != m2 or s1 != s2:
                u, g = _blade_token(unit), _blade_token(gen)
                evidence = f"{u} {g} has sign {s1}, {g} {u} has sign {s2}"
                raise InvariantViolation(f"unit pair fails to commute with inner generators: {evidence}")
    s1, m1 = blade_product(pair.phi, pair.psi, sig)
    s2, m2 = blade_product(pair.psi, pair.phi, sig)
    if m1 != m2 or s1 != -s2:
        products = [Multivector.blade(sig, m, s).to_text() for s, m in ((s1, m1), (s2, m2))]
        raise InvariantViolation(f"unit pair fails to anticommute: phi psi = {products[0]}, psi phi = {products[1]}")


def quaternion_split(
    m: Multivector, pair: QuaternionUnitPair
) -> tuple[Multivector, Multivector, Multivector, Multivector]:
    """Unique decomposition m = A0 + A1*phi + A2*psi + A3*phi*psi.

    A0..A3 use only the inner generators e_1..e_{2m}; a blade reaching
    beyond index 2m+2 cannot be decomposed over the pair and raises.
    """
    sig = m.signature
    if sig != pair.signature:
        raise ValueError("signature mismatch between element and unit pair")
    inner_limit = mask_from_indices(range(1, 2 * pair.m + 1)) if pair.m else 0
    phi_bit = 1 << (2 * pair.m)
    psi_bit = 1 << (2 * pair.m + 1)
    allowed = inner_limit | phi_bit | psi_bit
    buckets: dict[tuple[bool, bool], dict[int, Fraction]] = {
        (False, False): {}, (True, False): {}, (False, True): {}, (True, True): {},
    }
    for mask, coeff in m.items():
        if mask & ~allowed:
            raise ValueError(f"blade {blade_indices(mask)} lies outside the pair's subalgebra")
        buckets[(bool(mask & phi_bit), bool(mask & psi_bit))][mask] = coeff
    phi_mv = Multivector.blade(sig, pair.phi)
    psi_mv = Multivector.blade(sig, pair.psi)
    phi_psi = phi_mv * psi_mv
    a0 = Multivector(sig, buckets[(False, False)])
    a1 = Multivector(sig, buckets[(True, False)]) * phi_mv.inverse()
    a2 = Multivector(sig, buckets[(False, True)]) * psi_mv.inverse()
    a3 = Multivector(sig, buckets[(True, True)]) * phi_psi.inverse()
    for k, part in enumerate((a1, a2, a3), 1):
        for mask in part.masks():
            if mask & ~inner_limit:
                raise InvariantViolation(f"split component escaped the inner subalgebra: A{k} has {_blade_token(mask)}")
    return a0, a1, a2, a3


def karoubi_factorization(sig: Signature) -> list[Signature]:
    """Factor Cl(p,q), p+q even, into two-generator algebras.

    Repeatedly peels a Cl(2,0) / Cl(1,1) / Cl(0,2) factor off the front;
    when the peeled factor has volume square -1 the remaining quadratic
    form flips sign ((a,b) -> (b,a)).  Signatures with an odd number of
    generators are outside the rule's domain.
    """
    if sig.dim % 2:
        raise ValueError(f"factorization needs an even generator count, got {sig.dim}")
    factors: list[Signature] = []
    p, q = sig.p, sig.q
    while p + q:
        if p >= 2:
            factors.append(Signature(2, 0))
            p, q = q, p - 2  # negative factor: flip remaining form
        elif p == 1:
            factors.append(Signature(1, 1))
            p, q = 0, q - 1  # positive factor: no flip
        else:
            factors.append(Signature(0, 2))
            p, q = q - 2, 0  # negative factor: flip remaining form
    return factors


def tensor_class(a: AlgebraClass, b: AlgebraClass) -> AlgebraClass:
    """Isomorphism type of the real tensor product of two matrix algebras."""
    pair = tuple(sorted((a.ring, b.ring)))
    if "R" in pair:
        ring = pair[0] if pair[1] == "R" else pair[1]
        size_boost, mult_boost = 1, 1
    elif pair == ("C", "C"):
        ring, size_boost, mult_boost = "C", 1, 2
    elif pair == ("C", "H"):
        ring, size_boost, mult_boost = "C", 2, 1
    else:  # H (x) H
        ring, size_boost, mult_boost = "R", 4, 1
    return AlgebraClass(
        ring=ring,
        size=a.size * b.size * size_boost,
        multiplicity=a.multiplicity * b.multiplicity * mult_boost,
    )


def factorization_class(sig: Signature) -> AlgebraClass:
    """Compose the factor classes; must agree with classify(sig)."""
    factors = karoubi_factorization(sig)
    result = AlgebraClass(ring="R", size=1, multiplicity=1)
    for factor in factors:
        result = tensor_class(result, classify(factor))
    return result


def descriptor(sig: Signature) -> dict:
    """JSON-ready structure summary of Cl(p,q)."""
    cls = classify(sig)
    out = {
        "p": sig.p,
        "q": sig.q,
        "ring": cls.ring,
        "size": cls.size,
        "multiplicity": cls.multiplicity,
        "center": center_structure(sig) if sig.dim >= 1 else "trivial",
    }
    if sig.dim >= 1:
        even = even_subalgebra_signature(sig)
        out["even_sub"] = {"p": even.p, "q": even.q}
    else:
        out["even_sub"] = None
    if sig.dim % 2 == 0:
        out["factorization"] = [[f.p, f.q] for f in karoubi_factorization(sig)]
    else:
        out["factorization"] = None
    return out
