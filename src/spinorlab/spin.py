"""Spin group membership, norms, and the Pfaffian coordinate relations.

An even invertible element s whose conjugation x -> s x s^-1 preserves the
grade-1 space is a (special) Lipschitz element; those with spin norm +-1
form the spin group, norm +1 the reduced spin group.  Membership is
decided by the Pfaffian relations below plus N(s) != 0, after a blade moves
s to a nonzero scalar (:func:`is_lipschitz`), so an even or odd s is never
inverted.  The spin norm is the scalar of s * reverse(s), which equals the
signed coordinate sum sum sigma(i1)...sigma(i2k) * (a^{i1..i2k})^2; both
routes are computed and compared, which pins the sign convention once and
for all.

Coordinates of spin elements obey Pfaffian relations: for every even index
set I of size 2k >= 4,

    a^(k-1) * a^I = Pf(A restricted to I),

with A the skew matrix of grade-2 coordinates.  When the scalar a is
nonzero these determine every higher coordinate from the n(n-1)/2 grade-2
ones, as one integer form (:func:`_completed_form`), from which
:func:`reconstruct_from_low_grade` builds its element and the geometry
module its spinor, read at the renamed masks; on the geometry side the
a = 0 case comes from Chevalley's product instead.  The grade-2
coordinates are held by blade mask only, a^{ij} at the mask of {i, j}: a
map of index pairs or a caller's skew table is checked and read once, at
the boundary (:func:`_pair_coords`; :func:`pfaffians` and :func:`pfaffian`
read the upper triangle), and no n x n table is built.  Every Pfaffian is read from one
integer list over index masks: the pairs are cleared into it once
(:func:`_by_mask`, which also lays out the coordinates of the residuals
and of the quadrics), and each larger even set is filled in by size
(:func:`_fill_pfaffians`).  The residuals fill a copy of their own
integer coordinates, whose pairs are already those of A.
With a != 0 the relations are equivalent to quadrics of degree 2 (C.
Chevalley, *The Algebraic Theory of Spinors*, 1954),

    a * a^I = sum_j +-a^{i1 j} * a^{I - {i1, j}},

i1 the lowest index of I; above the top grade of an element both sides
vanish, so a verdict checks these up to size top + 2 and stops at the first
that fails (:func:`_obeys_relations`), with no Pfaffian list.  The report
(:func:`check_relations`) fills the list and keeps every residual.

Each element is verified once.  A :class:`SpinElement` is immutable and
keeps two values, each decided in one place: N(s), read once through
:func:`spin_norm`, and its Lipschitz verdict, N(s) != 0 and the quadrics
of its chart.  The chart (:func:`_chart`) and the quadric pass are the one
chart-and-relations decision: the Lipschitz verdicts and the purity of a
spinor in the geometry module both read them.  With a nonzero scalar an
element is its own chart, so :func:`check_relations` seeds the verdict from
its own residuals.  :func:`spin_norm` is the one computation of N(s); both of
its routes read the element's own terms, since only a blade times itself
reaches the scalar blade.  A verified element has s^-1 = reverse(s) / N(s),
so no action inverts it.  A rotation reads only the grade-1 coefficients of
(s x) reverse(s) / N off the integer product of s and x, and checks
s x = y s and (y,y) = (x,x) in integers; the point motions of the geometry
module are these rotations.

Every element is held as its reduced integer form, numerators over the
lcm of its denominators (``Multivector._cleared_terms``).  The producers
that compute in integers build their element from that form: the seeded
unit vectors, the product of a chain of vectors, the completion of
:func:`_completed_form`, the rotation and the Clifford product.
The spin norm, the quadrics, the residuals of :func:`check_relations` and
the rotation read it, so no element is cleared after it is built.  The
residuals, the quadrics, the two norm routes and the rotation's checks are
compared as integers; a ``Fraction`` is formed only for a value that is
returned or reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping, Sequence, Union

from .blades import _ZERO, MAX_DIM, Multivector, Rational, Signature, _blade_token, _negative_mask, _numerator_product
from .blades import _sign_mask, blade_indices, mask_from_indices
from .errors import InvariantViolation
from .linalg import _cleared


class SpinElement:
    """Even multivector together with coordinate access a^{i1..i2k}.

    Immutable: ``value`` cannot be reassigned, so N(s) and the Lipschitz
    verdict, the two things it keeps, never go stale.  Threads racing on
    first use only repeat the same computation.
    """

    __slots__ = ("_value", "_norm", "_lipschitz")

    def __init__(self, value: Multivector):
        if not value.is_even():
            raise ValueError("spin elements must be even")
        self._value = value
        self._norm: Fraction | None = None
        self._lipschitz: bool | None = None

    @property
    def value(self) -> Multivector:
        return self._value

    def norm(self) -> Fraction:
        """N(s), read once through :func:`spin_norm`; kept."""
        if self._norm is None:
            self._norm = spin_norm(self)
        return self._norm

    def lipschitz(self) -> bool:
        """N(s) != 0 and the chart of s obeys the quadrics; kept.

        This is :func:`is_lipschitz` with False where it raises on a
        singular s.
        """
        if self._lipschitz is None:
            self._lipschitz = self.norm() != 0 and _obeys_relations(_chart(self._value))
        return self._lipschitz

    @property
    def signature(self) -> Signature:
        return self.value.signature

    def coord(self, indices: Sequence[int]) -> Fraction:
        return self.value.coefficient(mask_from_indices(indices))

    def coords(self) -> dict[tuple[int, ...], Fraction]:
        return {blade_indices(mask): coeff for mask, coeff in self.value.items()}

    def scalar_coord(self) -> Fraction:
        return self.value.scalar_part()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpinElement):
            return NotImplemented
        return self.value == other.value

    def __repr__(self) -> str:
        return f"SpinElement({self.value.to_text()})"


def pfaffians(table: Sequence[Sequence[Rational]]) -> list[Fraction]:
    """Pf(A_I) for every index set I of the skew table A, indexed by blade mask.

    The table is read once, from its upper triangle (:func:`_upper_pairs`),
    and the Pfaffians are the integer fill of :func:`_completion`: Pf(A_I) is
    Pf(D A)_I over D^(|I|/2), one ``Fraction`` per nonzero set.  Odd sets get
    0 and the empty set 1.  The list has 2^d entries, so d is capped at
    MAX_DIM.
    """
    pfs, scale, _, _ = _completion(1, _upper_pairs(table, range(len(table))), len(table))
    powers = [scale**k for k in range(len(table) // 2 + 1)]
    return [Fraction(pf, powers[mask.bit_count() // 2]) if pf else _ZERO for mask, pf in enumerate(pfs)]


def _upper_pairs(table: Sequence[Sequence[Rational]], idx: Sequence[int]) -> dict[int, Fraction]:
    """The pairs {a, b}, a < b, of the rows and columns idx of a table, by
    blade mask, each read once from table[idx[a]][idx[b]]: kept when it is a
    ``Fraction``, converted by ``Fraction`` otherwise."""
    pairs = {}
    for (a, i), (b, j) in combinations(enumerate(idx), 2):
        v = table[i][j]
        pairs[1 << a | 1 << b] = v if type(v) is Fraction else Fraction(v)
    return pairs


def _by_mask(terms: Iterable[tuple[int, int]], n: int) -> list[int]:
    """(mask, numerator) pairs as a list of 2^n by blade mask, 0 off the pairs."""
    out = [0] * (1 << n)
    for mask, v in terms:
        out[mask] = v
    return out


def _fill_pfaffians(pfs: list[int], n: int) -> list[int]:
    """Fill Pf of every even set of size >= 4 into a by-mask list of n
    indices that holds the pairs, in place; the list is returned.

    One pass by size: each set is expanded along its lowest index
    (:func:`_expansion`), reading the smaller sets already in the list.
    """
    for size in range(4, n + 1, 2):
        for mask in _masks_of_size(n, size):
            pfs[mask] = _expansion(mask, pfs, pfs)
    return pfs


def _expansion(mask: int, pairs: Sequence[int], values: Sequence[int]) -> int:
    """sum_j +-pairs[{i1, j}] * values[I - {i1, j}] over the j of I = mask
    after its lowest index i1, the signs alternating from +: the one
    expansion of a Pfaffian along a row, read by mask."""
    low = mask & -mask
    rest = mask ^ low
    total = 0
    negate = False
    bits = rest
    while bits:
        bit = bits & -bits
        bits ^= bit
        entry = pairs[low | bit]
        if entry:
            sub = values[rest ^ bit]
            if sub:
                total += -entry * sub if negate else entry * sub
        negate = not negate
    return total


@lru_cache(maxsize=None)
def _masks_of_size(n: int, size: int) -> tuple[int, ...]:
    """The masks of the size-element subsets of n generators, in the
    lexicographic order of :func:`_residuals`."""
    return tuple(sum(1 << i for i in subset) for subset in combinations(range(n), size))


@lru_cache(maxsize=None)
def _index_sets(n: int, size: int) -> tuple[tuple[int, ...], ...]:
    """The 1-based index tuples of :func:`_masks_of_size`, in its order."""
    return tuple(map(blade_indices, _masks_of_size(n, size)))


def pfaffian(skew: Sequence[Sequence[Rational]], indices: Sequence[int] | None = None) -> Fraction:
    """Pfaffian of a skew matrix restricted to the given 0-based indices,
    read once from the upper triangle of the restriction.  It is the last
    entry of the integer fill of :func:`_completion`, Pf(D A), over
    D^(k/2), with one ``Fraction`` formed."""
    idx = list(range(len(skew))) if indices is None else list(indices)
    if len(idx) % 2:
        raise ValueError("Pfaffian needs an even number of indices")
    pfs, scale, _, _ = _completion(1, _upper_pairs(skew, idx), len(idx))
    return Fraction(pfs[-1], scale ** (len(idx) // 2))


def spin_norm(s: SpinElement) -> Fraction:
    """Signed coordinate sum, cross-checked against scalar(s * reverse(s)).

    Only a blade times itself reaches the scalar blade, so the scalar is the
    sum of c^2 times each blade's reversion sign times the sign of its square.
    The square's sign is read as in :func:`blades.blade_product`, from the
    negative mask looked up once and each blade's :func:`blades._sign_mask`.
    Both sums run over the integer numerators N = D c, D the lcm of the
    coefficients' denominators, and are compared as integers over D^2.
    """
    sig = s.signature
    negative = _negative_mask(sig.p, sig.q, sig.ordering)
    terms, scale = s.value._cleared_terms()
    total = diagonal = 0
    for mask, v in terms:
        square = v * v
        total += -square if (mask & negative).bit_count() & 1 else square
        grade = mask.bit_count()
        flips = (_sign_mask(mask, negative) & mask).bit_count() + grade * (grade - 1) // 2
        diagonal += -square if flips & 1 else square
    if diagonal != total:
        raise InvariantViolation(
            "spin norm routes disagree, sign convention broken: "
            f"coordinate sum {Fraction(total, scale * scale)}, "
            f"scalar(s * reverse(s)) {Fraction(diagonal, scale * scale)}"
        )
    return Fraction(total, scale * scale)


def _chart(s: Multivector) -> Multivector:
    """s e_M for the lowest blade e_M of a homogeneous s; s itself when its
    scalar is nonzero, or when s is zero.

    The chart has a nonzero scalar, and s is Lipschitz (or a pure spinor)
    exactly when its chart is: right multiplication by a blade maps the
    relation variety into itself in every signature.
    """
    low = min(s.masks(), default=0)
    return s * Multivector.blade(s.signature, low) if low else s


def _obeys_relations(t: Multivector) -> bool:
    """Whether a chart t (a nonzero scalar, or zero) obeys the Pfaffian
    relations, decided by Chevalley's quadrics size by size.

    Let N be the even coordinates of t cleared to integers and a = N_0 != 0.
    Expanding Pf along the lowest index i1 of I (:func:`_expansion`, as the
    Pfaffian fill does),

        Pf(N_A)_I = sum_j +-N_{i1 j} Pf(N_A)_{I - {i1, j}},

    so the relations a^(k-1) N_I = Pf(N_A)_I for every even I of size
    2k >= 4 hold exactly when the quadrics

        a N_I = sum_j +-N_{i1 j} N_{I - {i1, j}}

    do.  By induction on k: a pair has Pf = N_{ij}, so at k = 2 the two are
    one equation; if the relations hold below size 2k, the right side times
    a^(k-2) is sum_j +-N_{i1 j} Pf(N_A)_{I - {i1, j}} = Pf(N_A)_I, and the left
    side times a^(k-2) is a^(k-1) N_I; conversely, the smaller relations
    turn the relation at I, divided by a^(k-2) != 0, into the quadric.
    Every term has degree 2, so the scale of N cancels.  Above the top grade
    of t every N_I is zero, so beyond size top + 2 both sides vanish and the
    pass stops there; it returns False at the first quadric that fails.  The sets of each size come from
    a per-rank list (:func:`_masks_of_size`), which was as fast as Gosper's
    next-subset step inline and faster than it as a generator.
    """
    terms = t._cleared_terms()[0]
    n = t.signature.dim
    numerators = _by_mask(terms, n)
    a = numerators[0]
    top = max([mask.bit_count() for mask, _ in terms], default=0)
    for size in range(4, min(top + 2, n) + 1, 2):
        for mask in _masks_of_size(n, size):
            if a * numerators[mask] != _expansion(mask, numerators, numerators):
                return False
    return True


def is_lipschitz(s: Multivector) -> bool:
    """True when s e_i s^-1 is pure grade 1 for every generator.

    A homogeneous s is decided without inverting or conjugating.  It is
    Lipschitz exactly when its chart t = s e_M is (:func:`_chart`); t is
    even with a nonzero scalar a, so it is Lipschitz exactly when its
    coordinates obey the Pfaffian relations, t = a exp_wedge(A / a), and
    N(t) != 0.  A mixed s passes only in odd dimension, where the volume
    element w is central, and then exactly as (x + y w) s_0 with s_0 its
    even part in the group: its odd part times w is a multiple of s_0.

    Raises ValueError when s is singular and obeys the relations, or is
    singular of mixed parity.  A singular homogeneous s that fails the
    relations is not Lipschitz, and gives False.
    """
    sig = s.signature
    if len({mask.bit_count() & 1 for mask in s.masks()}) == 1:
        t = SpinElement(_chart(s))
        if not _obeys_relations(t.value):
            return False
        if t.norm() == 0:
            raise ValueError("multivector is not invertible")
        return True
    s.inverse()  # raises for zero or singular input
    even = Multivector(sig, {m: c for m, c in s.items() if not m.bit_count() & 1})
    turned = (s - even) * Multivector.blade(sig, (1 << sig.dim) - 1)
    first = next(even.masks())
    ratio = turned.coefficient(first) / even.coefficient(first)
    return sig.dim % 2 == 1 and turned == even * ratio and is_lipschitz(even)


def is_spin(s: Union[SpinElement, Multivector]) -> bool:
    """Even, Lipschitz, and of spin norm +1 or -1; False on any failure."""
    return _verified_norm(s) is not None


def is_spin_plus(s: Union[SpinElement, Multivector]) -> bool:
    """Spin, and of spin norm +1."""
    return _verified_norm(s) == 1


def _verified_norm(s: Union[SpinElement, Multivector]) -> Fraction | None:
    """The spin norm N(s) of a spin element, None for anything else; reads
    the values the element keeps."""
    if not isinstance(s, SpinElement):
        if not s.is_even():
            return None
        s = SpinElement(s)
    norm = s.norm()
    return norm if norm in (1, -1) and s.lipschitz() else None


@dataclass(frozen=True)
class RelationReport:
    """Exact residuals of every coordinate relation plus the norm verdicts."""

    norm: Fraction
    residuals: tuple[tuple[tuple[int, ...], Fraction], ...]
    spin: bool
    spin_plus: bool

    @property
    def relations_ok(self) -> bool:
        return all(value == 0 for _, value in self.residuals)

    def to_json(self) -> dict:
        """Norm, residuals and verdicts; the numeric leaves are exact rationals."""
        return {
            "norm": self.norm,
            "residuals": [
                {"indices": list(indices), "value": value} for indices, value in self.residuals
            ],
            "spin": self.spin,
            "spin_plus": self.spin_plus,
        }


def _residuals(
    terms: Iterable[tuple[int, int]], scale: int, n: int
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Residual a^(k-1) * a^I - Pf(A_I) for every even index set I, |I| >= 4,
    of an even rank-n element in its integer form N, (mask, numerator) pairs
    over the scale D; A is the skew matrix of its grade-2 coordinates.  Sets
    come by size, then in lexicographic order.

    The residual of I, |I| = 2k, is (N_0^(k-1) N_I - Pf(N_A)_I) / D^k.  The
    pairs of N are those of N_A, so a copy of N filled by size holds
    Pf(N_A); the index tuples come from the per-rank cache of the sets.
    """
    numerators = _by_mask(terms, n)
    pfs = _fill_pfaffians(numerators.copy(), n)
    out = []
    for size in range(4, n + 1, 2):
        power, den = numerators[0] ** (size // 2 - 1), scale ** (size // 2)
        for indices, mask in zip(_index_sets(n, size), _masks_of_size(n, size)):
            v = power * numerators[mask] - pfs[mask]
            out.append((indices, Fraction(v, den) if v else _ZERO))
    return out


def check_relations(s: SpinElement) -> RelationReport:
    """Evaluate every coordinate relation instance and the norm condition.

    The residuals read the element's integer form.  With a nonzero
    scalar the element is its own chart, so these residuals settle its
    Lipschitz verdict, which is kept.
    """
    residuals = tuple(_residuals(*s.value._cleared_terms(), s.signature.dim))
    norm = s.norm()
    ok = all(value == 0 for _, value in residuals)
    if s.scalar_coord():
        s._lipschitz = ok and norm != 0
    return RelationReport(
        norm=norm,
        residuals=residuals,
        spin=ok and norm in (1, -1),
        spin_plus=ok and norm == 1,
    )


def _completion(scalar: Rational, pairs: Mapping[int, Rational], n: int) -> tuple[list[int], int, int, int]:
    """Pf(D A) of every index set by blade mask, with Pf of the empty set 1;
    D, the lcm of the pairs' denominators; and p, q with a = p/q.

    The pairs are cleared once, to D A, and Pf(D A) is filled in by size.
    """
    a = Fraction(scalar)
    if a == 0:
        raise ValueError("completion needs a nonzero scalar coordinate")
    if n > MAX_DIM:
        raise ValueError(f"Pfaffian tables take at most {MAX_DIM} indices, got {n}")
    values, scale = _cleared(pairs.values())
    pfs = _by_mask(zip(pairs, values), n)
    pfs[0] = 1
    return _fill_pfaffians(pfs, n), scale, a.numerator, a.denominator


def reconstruct_from_low_grade(
    scalar: Rational,
    skew: Union[Mapping[tuple[int, int], Rational], Sequence[Sequence[Rational]]],
    sig: Signature,
) -> SpinElement:
    """Even element with the given scalar and grade-2 coordinates, all higher
    coordinates filled in by the Pfaffian relations.

    The scalar must be nonzero; the division a^I = Pf(A_I) / a^(k-1) is
    meaningless otherwise.  The element is built from the integer form of
    :func:`_completed_form`.
    """
    numerators, scale = _completed_form(scalar, _pair_coords(skew, sig.dim), sig.dim)
    return SpinElement(Multivector._from_numerators(sig, enumerate(numerators), scale))


def _completed_form(scalar: Rational, pairs: Mapping[int, Rational], n: int) -> tuple[list[int], int]:
    """The coordinates a^I = Pf(A_I) / a^(k-1) of every index set I of n
    indices as one integer form: their numerators by blade mask, and the
    scale they share, from the pairs a^{ij} of A by mask.

    Pf of the empty set is 1, so the scalar comes back as a, each pair as
    itself, and odd sets as 0.  The scalar must be nonzero.  With Pf(D A)
    from :func:`_completion`, a = p/q and m = max(n // 2, 1), the numerator
    of a^I for |I| = 2k is Pf(D A)_I q^k (D p)^(m-k), over the scale
    q D^m p^(m-1).  The form is not reduced.
    """
    pfs, scale, p, q = _completion(scalar, pairs, n)
    m = max(n // 2, 1)
    factors = [q**k * (scale * p) ** (m - k) for k in range(n // 2 + 1)]
    return [pf * factors[mask.bit_count() // 2] for mask, pf in enumerate(pfs)], q * scale**m * p ** (m - 1)


def _pair_coords(
    skew: Union[Mapping[tuple[int, int], Rational], Sequence[Sequence[Rational]]], n: int
) -> dict[int, Fraction]:
    """The grade-2 coordinates a^{ij} by blade mask, checked and read once:
    from a map of 1-based index pairs, where a key (j, i) gives -a^{ij}, or
    from the upper triangle of an n x n skew table."""
    if isinstance(skew, Mapping):
        pairs = {}
        for (i, j), value in skew.items():
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise ValueError(f"bad grade-2 index pair ({i},{j})")
            pairs[1 << (i - 1) | 1 << (j - 1)] = Fraction(value) if i < j else -Fraction(value)
        return pairs
    if len(skew) != n or any(len(row) != n for row in skew):
        raise ValueError(f"skew table must be {n}x{n}")
    if any(Fraction(skew[i][j]) != -Fraction(skew[j][i]) for i in range(n) for j in range(i, n)):
        raise ValueError("grade-2 table is not skew-symmetric")
    return _upper_pairs(skew, range(n))


def spin_from_vectors(vectors: Sequence[Multivector]) -> SpinElement:
    """Product of an even number of grade-1 elements, taken left to right.

    Each factor's integer form is read, numerators over the lcm of its
    denominators.  The chain is multiplied in integers over the product of
    those lcms, dropping the blades that cancel at each step, and the
    product is built from that form.  The terms come in the order that the
    same chain of ``Multivector`` products gives.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    if len(vectors) % 2:
        raise ValueError("need an even number of vectors")
    first = vectors[0]
    terms = [(0, 1)]
    scale = 1
    for v in vectors:
        if not v.is_grade(1):
            raise ValueError("factors must be pure vectors")
        first._check_signature(v)
        right, d = v._cleared_terms()
        scale *= d
        terms = [(mask, c) for mask, c in _numerator_product(terms, right, first.signature).items() if c]
    return SpinElement(Multivector._from_numerators(first.signature, terms, scale))


def random_unit_vector(sig: Signature, rng: random.Random, norm_sign: int) -> Multivector:
    """Random rational vector with (v,v) = norm_sign, by exact reflection.

    Reflecting a basis vector e_b of the wanted norm across the hyperplane of
    a random integer vector u preserves the quadratic form exactly and stays
    rational: v = e_b - 2 B(e_b,u)/B(u,u) u.  The coordinates are held as
    integer numerators V = B(u,u) e_b - 2 sigma_b u_b u over B(u,u), and the
    vector is built from that form.  The norm needs no check: expanding,
    B(V,V) = sigma_b B(u,u)^2 - 4 sigma_b^2 u_b^2 B(u,u) + 4 sigma_b^2 u_b^2 B(u,u)
    = sigma_b B(u,u)^2 in integers, for any signs sigma_i, and sigma_b is
    norm_sign.
    """
    sigmas = sig.sigmas()
    try:
        base_index = next(i for i, s in enumerate(sigmas) if s == norm_sign)
    except StopIteration:
        raise ValueError(f"no generator of square {norm_sign} in Cl({sig.p},{sig.q})")
    while True:
        u = [rng.randint(-3, 3) for _ in range(sig.dim)]
        uu = sum(s * c * c for s, c in zip(sigmas, u))
        if uu:
            break
    twice_bu = 2 * sigmas[base_index] * u[base_index]
    numerators = [-twice_bu * c for c in u]
    numerators[base_index] += uu
    return Multivector._from_numerators(sig, [(1 << i, v) for i, v in enumerate(numerators)], uu)


def random_spin_element(sig: Signature, seed: int, k: int, norm_plus: bool = False) -> SpinElement:
    """Product of 2k random unit vectors; always passes is_spin.

    The RNG state is local to the call: equal seeds give equal elements.
    With norm_plus the (v,v) = -1 factors are kept even in number, which
    forces spin norm +1.  Each vector is an exact reflection drawn in
    integers (:func:`random_unit_vector`) and the chain is multiplied in
    integers (:func:`spin_from_vectors`); the product is then verified once,
    by its relations and both norm routes.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = random.Random(seed)
    signs = [s for s in (1, -1) if (s > 0 and sig.p) or (s < 0 and sig.q)]
    if not signs:
        raise ValueError("empty signature")
    chosen = [rng.choice(signs) for _ in range(2 * k)]
    if norm_plus and chosen.count(-1) % 2:
        # an odd count of negative factors implies both signs are available
        chosen[chosen.index(-1)] = 1
    vectors = [random_unit_vector(sig, rng, sign) for sign in chosen]
    element = spin_from_vectors(vectors)
    norm = _verified_norm(element)
    where = f"in Cl({sig.p},{sig.q}) {sig.ordering}, k = {k}"
    if norm is None:
        raise InvariantViolation(
            f"product of unit vectors failed the spin predicate {where}: "
            f"N(s) = {element.norm()}, Lipschitz {element.lipschitz()}"
        )
    if norm_plus and norm != 1:
        raise InvariantViolation(f"norm balancing failed {where}: N(s) = {norm}, not 1")
    return element


def apply_rotation(s: SpinElement, x: Multivector) -> Multivector:
    """Rotate a vector by a spin element: s x s^-1, with (x,x) kept exactly."""
    if x.signature != s.signature:
        raise ValueError("signature mismatch")
    if not x.is_grade(1):
        raise ValueError("rotation input must be a pure vector")
    norm = _verified_norm(s)
    if norm is None:
        raise ValueError("rotations need a spin element")
    return _rotate(s.value, x, norm)


def _rotate(s: Multivector, x: Multivector, norm: Rational) -> Multivector:
    """The vector y = s x s^-1 for a verified spin element of norm N(s) = norm.

    s and x are read in their integer forms, S over D_s and X over D_x.  Only the
    grade-1 coefficients of (s x) reverse(s) / N are read: the e_i coefficient
    Y_i pairs each term of SX = S X with the term of reverse(S), read off S
    by grade, whose blade differs from it in e_i alone, with the sign mask
    of each SX term formed once.  With N = p/q, y = q Y / (p D_s^2 D_x).  The
    exact identity s x = y s, decided in integers as q Y S = p D_s^2 SX, then
    shows that the conjugate has no other grade, and q^2 Q(Y) = p^2 D_s^4 Q(X)
    that it keeps the form.  y is built from the integer form q Y over
    p D_s^2 D_x.
    """
    sig = s.signature
    negative = _negative_mask(sig.p, sig.q, sig.ordering)
    left, s_scale = s._cleared_terms()
    right, x_scale = x._cleared_terms()
    sx = _numerator_product(left, right, sig)
    reverse = {mask: -v if mask.bit_count() & 2 else v for mask, v in left}
    bits = [1 << i for i in range(sig.dim)]
    coords = [0] * sig.dim
    for mask, a in sx.items():
        if a:
            flips = _sign_mask(mask, negative)
            negated = -a
            for i, bit in enumerate(bits):
                partner = mask ^ bit
                b = reverse.get(partner)
                if b:
                    coords[i] += (negated if (flips & partner).bit_count() & 1 else a) * b
    norm = Fraction(norm)
    p, q = norm.numerator, norm.denominator
    y_terms = [(bit, v) for bit, v in zip(bits, coords) if v]
    ys = _numerator_product(y_terms, left, sig)
    factor = p * s_scale * s_scale
    wrong = [mask for mask in sx.keys() | ys.keys() if q * ys.get(mask, 0) != factor * sx.get(mask, 0)]
    if wrong:
        mask = min(wrong)
        raise InvariantViolation(
            f"conjugation left the vector space: at the blade {_blade_token(mask)} "
            f"y s = {Fraction(q * ys.get(mask, 0), factor * s_scale * x_scale)} "
            f"but s x = {Fraction(sx.get(mask, 0), s_scale * x_scale)}"
        )
    sigmas = sig.sigmas()
    form_y = sum(sigmas[bit.bit_length() - 1] * v * v for bit, v in y_terms)
    form_x = sum(sigmas[bit.bit_length() - 1] * v * v for bit, v in right)
    scale = factor * x_scale
    if q * q * form_y != factor * factor * form_x:
        raise InvariantViolation(
            "conjugation changed the quadratic form: "
            f"(y,y) = {Fraction(q * q * form_y, scale * scale)}, (x,x) = {Fraction(form_x, x_scale * x_scale)}"
        )
    return Multivector._from_numerators(sig, [(bit, q * v) for bit, v in y_terms], scale)
