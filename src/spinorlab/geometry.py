"""Geometry of the neutral space S(n,n) and its absolute quadric.

Points carry homogeneous coordinates x^0..x^{2n}; the absolute is the
quadric Q(x) = 0 of the alternating form.  An absolute point's matrix
Xi(x) squares to zero, so it kills a 2^(n-1)-dimensional space of real
spinors, whose reduced-echelon basis is read off the block recursion
Xi = [[-Xi', alpha I], [beta I, Xi']] in integers, with no elimination.
Conversely a pure spinor a cuts the plane generator
{x : Xi(x) a = 0} out of the absolute: of its 2^n linear equations only n+1
are independent, and the solution set is a maximal isotropic subspace of
projective dimension n-1.  Purity is decided by the one chart-and-relations
test of the spin module: renaming odd-index coordinates a^{i1..ik} to
a^{i1..ik,n+1} makes a an even element of rank n+1, whose chart must obey
the Pfaffian relations, exactly as a spin element's does, and they are
decided by the same quadric pass.
The representing spinor is determined by the generator up to scale, and up
to sign once normalized: it is Chevalley's pure spinor, the product
Xi(w_1)...Xi(w_n) over a basis of the plane applied to a basis spinor.  Both
directions live here, with the motions: a spin element rotates (x^1..x^{2n})
in the algebra with x^0 fixed, and moves a spinor by its matrix image, the
same integer sum of signed permutations that applies Xi(x) to a spinor.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Iterable, Mapping, Sequence, Union

from . import linalg
from .blades import _ZERO, Multivector, Rational, Signature, blade_indices, mask_from_indices
from .errors import InvariantViolation
from .linalg import _cleared, _eliminate
from .matrices import (
    _as_fractions,
    _check_coords,
    _integer_columns,
    _point_rows,
    _signed_sum,
    blade_image,
    build_xi,  # noqa: F401  no caller here; the benchmark's tracer test wraps this by-name binding
    neutral_signature,
    point_blade_images,
    quadratic_form,
)
from .spin import SpinElement, _chart, _obeys_relations, _pair_coords, _residuals, _rotate, completed_coords
from .spin import is_spin_plus

Coords = Sequence[Rational]


class PointClass(enum.Enum):
    PROPER = "proper"
    IDEAL = "ideal"
    ABSOLUTE = "absolute"


def classify_point(x: Coords, curvature: int) -> PointClass:
    """Proper/ideal/absolute relative to the curvature sign.

    Positive form value means proper for curvature +1 and ideal for
    curvature -1; signs swap for negative form values; the quadric itself
    is absolute regardless of curvature.
    """
    if curvature not in (1, -1):
        raise ValueError("curvature must be +1 or -1")
    if all(Fraction(v) == 0 for v in x):
        raise ValueError("the zero vector does not represent a point")
    q = quadratic_form(x)
    if q == 0:
        return PointClass.ABSOLUTE
    if (q > 0) == (curvature > 0):
        return PointClass.PROPER
    return PointClass.IDEAL


class SpinorCoords:
    """The 2^n real spinor coordinates a, a^1, a^2, a^12, a^3, ...

    Index sets are subsets of {1..n} encoded as masks, listed in mask
    order.  Renaming odd-size sets S to S + {n+1} turns the list into the
    even coordinates of a rank-(n+1) algebra element; the coordinate
    relations of spin elements are checked through that renaming.  Values
    that are already ``Fraction`` are kept; others are converted.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: Sequence[Rational]):
        if len(values) != 1 << n:
            raise ValueError(f"rank {n} spinors have {1 << n} coordinates, got {len(values)}")
        self.n = n
        self.values = [v if isinstance(v, Fraction) else Fraction(v) for v in values]

    @classmethod
    def _from_values(cls, n: int, values: list[Fraction]) -> "SpinorCoords":
        """Wrap 2^n values that are ``Fraction``s by construction."""
        out = cls.__new__(cls)
        out.n = n
        out.values = values
        return out

    @classmethod
    def from_low_grade(
        cls,
        n: int,
        scalar: Rational,
        vector: Sequence[Rational],
        skew: Union[Mapping[tuple[int, int], Rational], Sequence[Sequence[Rational]]],
    ) -> "SpinorCoords":
        """Complete (a, a^i, a^{ij}) to a full relation-satisfying spinor.

        The completion is the Pfaffian one, applied after the renaming, so
        the scalar must be nonzero: each a^i is the renamed pair {i, n+1},
        at the mask of i with bit n set.
        """
        if len(vector) != n:
            raise ValueError(f"expected {n} single-index coordinates")
        pairs = _pair_coords(skew, n)
        pairs.update({1 << i | 1 << n: Fraction(v) for i, v in enumerate(vector)})
        completed = completed_coords(scalar, pairs, n + 1)
        return cls(n, [completed[_renamed(mask, n)] for mask in range(1 << n)])

    def coefficient(self, mask: int) -> Fraction:
        return self.values[mask]

    def scalar_coord(self) -> Fraction:
        return self.values[0]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def relation_residuals(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Residuals of the coordinate relations of the renamed element's
        chart, read off its integer form; all zero exactly on pure spinors."""
        return _residuals(*self._chart()._cleared_terms(), self.n + 1)

    def satisfies_relations(self) -> bool:
        """Whether the spinor is pure: the chart obeys the relations, decided
        by the Lipschitz verdict's quadrics (``spin._obeys_relations``)."""
        return _obeys_relations(self._chart())

    def _chart(self) -> Multivector:
        """``spin._chart`` of the renamed element, built in Cl(n+1, 0).

        Right multiplication by a blade maps the relation variety into itself
        in every signature, so the choice of signature does not change the
        verdict.  With a nonzero scalar the chart is the renamed element
        itself.
        """
        n = self.n
        numerators, scale = _cleared(self.values)
        terms = [(_renamed(mask, n), v) for mask, v in enumerate(numerators)]
        return _chart(Multivector._from_numerators(Signature(n + 1, 0), terms, scale))

    @staticmethod
    def coordinate_name(mask: int) -> str:
        return "a" + "".join(str(i) for i in blade_indices(mask))

    def to_json(self) -> dict[str, Fraction]:
        """Coordinates keyed by name; the leaves are exact rationals."""
        return {self.coordinate_name(mask): value for mask, value in enumerate(self.values)}

    @classmethod
    def from_json(cls, n: int, payload: Mapping[str, object]) -> "SpinorCoords":
        names = map(cls.coordinate_name, range(1 << n))
        return cls(n, [Fraction(str(payload.get(name, 0))) for name in names])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpinorCoords):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def __repr__(self) -> str:
        return f"SpinorCoords(n={self.n}, {[str(v) for v in self.values]})"


def _renamed(mask: int, n: int) -> int:
    """Mask of the renamed index set: odd sets S become S + {n+1}."""
    return mask | 1 << n if mask.bit_count() % 2 else mask


def kernel_spinors(x: Coords) -> list[SpinorCoords]:
    """Exact basis of the spinors killed by an absolute point's matrix.

    The basis is the reduced-echelon null-space basis of Xi(x): one vector
    per free column, in increasing mask order, with entry 1 at its own free
    column and 0 at the others.  It always has dimension 2^(n-1).  It is
    read off the block recursion Xi = [[-Xi', alpha I], [beta I, Xi']] in
    integers, with no elimination (:func:`_echelon_kernel`): for beta != 0
    from the columns of Xi', for alpha = beta = 0 as the rank n-1 basis
    twice, and for beta = 0 != alpha as each rank n-1 basis vector k, first
    as (k, 0) and then as (u, k) with Xi' u = alpha k (the unit vectors of
    the top half when Xi' = 0).  It forms one ``Fraction`` per distinct
    nonzero entry.
    """
    coords = _as_fractions(x)
    if not any(coords):
        raise ValueError("the zero vector does not represent a point")
    if quadratic_form(coords) != 0:
        raise ValueError("kernel spinors exist only for absolute points")
    n = (len(coords) - 1) // 2
    basis = _echelon_kernel(n, _cleared(_check_coords(n, coords))[0])
    if len(basis) != 1 << (n - 1):
        raise InvariantViolation(f"kernel dimension {len(basis)} differs from 2^(n-1) = {1 << (n - 1)}")
    size = 1 << n
    fractions: dict[tuple[int, int], Fraction] = {}
    out = []
    for _, numerators, denominator in basis:
        values = [_ZERO] * size
        for r, value in numerators.items():
            entry = fractions.get((value, denominator))
            if entry is None:
                entry = fractions[value, denominator] = Fraction(value, denominator)
            values[r] = entry
        out.append(SpinorCoords._from_values(n, values))
    return out


def _echelon_kernel(n: int, c: Sequence[int]) -> list[tuple[int, dict[int, int], int]]:
    """The reduced-echelon null-space basis of Xi(c) at a nonzero integer
    point c of the absolute, as (free column, numerators, denominator)
    triples with numerators[free] = denominator and zero numerators left out.

    With h = 2^(n-1), Xi' = Xi(c^0..c^{2n-2}) of rank n-1, alpha = c^{2n-1} +
    c^{2n} and beta = c^{2n} - c^{2n-1}, the block recursion reads
    Xi = [[-Xi', alpha I], [beta I, Xi']], and Q = Q' + alpha beta = 0:

    * beta != 0: the first h columns [-Xi'; beta I] are independent, so they
      are the pivots, and the vector at free column h+j is e_{h+j} plus
      -Xi' e_j / beta, read off the integer columns of Xi'.
    * alpha = beta = 0: Xi = diag(-Xi', Xi'), so the basis is the rank n-1
      basis twice, on the top half and on the bottom half.
    * beta = 0 != alpha and Xi' = 0: the kernel is the top half.
    * beta = 0 != alpha otherwise: the kernel is {(u, Xi' u / alpha)}, and
      Xi' has rank h/2 and its image is its kernel, so the free columns are
      F' and h + F' for the free columns F' of Xi'.  The vectors are (k, 0)
      for each rank n-1 basis vector k, then (u, k) with Xi' u = alpha k and
      u zero on F'.  As Xi' E_i + E_i Xi' = 2 g_i c^i I for the point image
      E_i, g_i = (-1)^i, u is g_i alpha E_i k / (2 c^i) less its entries on
      F' times the rank n-1 basis, for the first nonzero c^i.

    At n = 1, Xi' = [[c^0]], and beta = 0 forces c^0 = 0, so only the first
    and the third case arise.
    """
    h = 1 << (n - 1)
    alpha, beta = c[-2] + c[-1], c[-1] - c[-2]
    lower_point = c[:-2]
    if beta:
        return [
            (h + j, {**{r: -v for r, v in column.items()}, h + j: beta}, beta)
            for j, column in enumerate(_integer_columns(n - 1, lower_point))
        ]
    if not any(lower_point):
        return [(j, {j: 1}, 1) for j in range(h)]
    lower = _echelon_kernel(n - 1, lower_point)
    if not alpha:
        return lower + [(h + f, {h + r: v for r, v in k.items()}, d) for f, k, d in lower]
    i = next(i for i, v in enumerate(lower_point) if v)
    image, g = point_blade_images(n - 1)[i], -1 if i % 2 else 1
    by_free = {f: (k, d) for f, k, d in lower}
    bottom = []
    for f, k, d in lower:
        moved = _signed_sum([(image, 1)], k)  # d times E_i applied to k / d
        hits = [(p, value) for p, value in moved.items() if p in by_free]
        scale = math.lcm(*[by_free[p][1] for p, _ in hits])
        u = {r: scale * v for r, v in moved.items()}
        for p, value in hits:
            basis_vector, basis_scale = by_free[p]
            factor = value * (scale // basis_scale)
            for r, v in basis_vector.items():
                u[r] = u.get(r, 0) - factor * v
        vector = {r: g * alpha * v for r, v in u.items() if v}
        vector.update((h + r, 2 * lower_point[i] * scale * v) for r, v in k.items())
        denominator = 2 * lower_point[i] * d * scale
        common = math.gcd(denominator, *vector.values())
        bottom.append((h + f, {r: v // common for r, v in vector.items()}, denominator // common))
    return lower + bottom


@dataclass(frozen=True)
class PlaneGenerator:
    """A maximal plane generator of the absolute, as the solution set of
    n+1 independent rows of Xi(x) a = 0."""

    n: int
    row_masks: tuple[int, ...]
    equations: tuple[tuple[Fraction, ...], ...]
    basis: tuple[tuple[Fraction, ...], ...]

    @property
    def projective_dimension(self) -> int:
        return len(self.basis) - 1

    def to_json(self) -> dict:
        """Equations and basis as rows whose leaves are exact rationals."""
        return {
            "n": self.n,
            "equations": [list(row) for row in self.equations],
            "basis": [list(row) for row in self.basis],
        }


def generator_rows(a: SpinorCoords) -> list[list[Fraction]]:
    """All 2^n rows of Xi(x) a = 0 as linear forms in x^0..x^{2n}.

    Row r, column i holds the x^i coefficient, i.e. (M_i a)[r] for the
    blade images M_i of the point element.
    """
    return _point_rows(a.values)


def independent_system(a: SpinorCoords) -> PlaneGenerator:
    """Reduce the 2^n generator equations of a spinor to n+1 independent ones.

    Rows are scanned in coordinate-mask order and kept exactly when
    independent of those already kept; for spinors with nonzero scalar
    coordinate this keeps precisely the rows b, b^1, ..., b^n.  The
    spinor must be pure, its chart obeying the coordinate relations (the
    remaining rows are then consequences of the kept ones); other spinors
    are rejected with a ValueError, before any row is reduced.  With a zero
    scalar coordinate the relations are those of the chart, so the error says
    that the spinor is not pure and names the chart's blade.
    """
    if a.is_zero():
        raise ValueError("the zero spinor does not define a generator")
    if not a.satisfies_relations():
        bad = next(idx for idx, val in a.relation_residuals() if val != 0)
        if a.scalar_coord():
            raise ValueError(f"coordinate relations fail, first residual at {bad}")
        low = min(_renamed(mask, a.n) for mask, value in enumerate(a.values) if value)
        blade = "e" + "".join(map(str, blade_indices(low)))
        raise ValueError(
            f"spinor is not pure: its chart at the blade {blade} fails the coordinate relations, "
            f"first residual at {bad}"
        )
    n = a.n
    rows = generator_rows(a)
    # a row is kept exactly when it is a pivot column of the transposed system
    kept_masks = _eliminate(list(zip(*rows)), reduced=False)[1]
    if len(kept_masks) != n + 1:
        raise InvariantViolation(f"generator system has rank {len(kept_masks)}, not n+1 = {n + 1}")
    kept_rows = [rows[r] for r in kept_masks]
    basis = linalg.null_space(kept_rows)
    if len(basis) != n:
        raise InvariantViolation(f"generator solution space has dimension {len(basis)}, not n = {n}")
    return PlaneGenerator(
        n=n,
        row_masks=tuple(kept_masks),
        equations=tuple(tuple(row) for row in kept_rows),
        basis=tuple(tuple(vec) for vec in basis),
    )


@dataclass(frozen=True)
class ReductionReport:
    """Exact residuals of the row-reduction identities.

    pair_residuals: a*b^{ij} - (a^i b^j - a^j b^i + a^{ij} b) over 2-sets;
    triple_residuals: a*b^{ijk} - (a^{ij} b^k - a^{ik} b^j + a^{jk} b^i);
    condition_residuals: a*a^{ijk} - (a^i a^{jk} - a^j a^{ik} + a^k a^{ij}),
    the conditions under which the triple identities close.
    """

    pair_residuals: tuple[tuple[tuple[int, int], Fraction], ...]
    triple_residuals: tuple[tuple[tuple[int, int, int], Fraction], ...]
    condition_residuals: tuple[tuple[tuple[int, int, int], Fraction], ...]

    @property
    def pairs_ok(self) -> bool:
        return all(v == 0 for _, v in self.pair_residuals)

    @property
    def triples_ok(self) -> bool:
        return all(v == 0 for _, v in self.triple_residuals)

    @property
    def conditions_ok(self) -> bool:
        return all(v == 0 for _, v in self.condition_residuals)


def reduction_identities(a: SpinorCoords, b: Sequence[Rational]) -> ReductionReport:
    """Evaluate the reduction identities for b = Xi(x) a (any x)."""
    n = a.n
    if len(b) != 1 << n:
        raise ValueError("residual vector length differs from 2^n")
    bv = [Fraction(v) for v in b]

    def av(indices: Iterable[int]) -> Fraction:
        return a.values[mask_from_indices(indices)]

    def bvx(indices: Iterable[int]) -> Fraction:
        return bv[mask_from_indices(indices)]

    pair = []
    for i, j in combinations(range(1, n + 1), 2):
        res = av(()) * bvx((i, j)) - (av((i,)) * bvx((j,)) - av((j,)) * bvx((i,)) + av((i, j)) * bvx(()))
        pair.append(((i, j), res))
    triple = []
    condition = []
    for i, j, k in combinations(range(1, n + 1), 3):
        res = av(()) * bvx((i, j, k)) - (
            av((i, j)) * bvx((k,)) - av((i, k)) * bvx((j,)) + av((j, k)) * bvx((i,))
        )
        triple.append(((i, j, k), res))
        cond = av(()) * av((i, j, k)) - (
            av((i,)) * av((j, k)) - av((j,)) * av((i, k)) + av((k,)) * av((i, j))
        )
        condition.append(((i, j, k), cond))
    return ReductionReport(tuple(pair), tuple(triple), tuple(condition))


def _validate_generator_geometry(g: PlaneGenerator) -> None:
    """The basis points lie on the absolute and span a totally isotropic plane.

    One integer Gram pass of the alternating form B(u, v) = u^0 v^0 - u^1 v^1
    + ... over the basis rows, each cleared to integers: the diagonal first,
    then the pairs.  With every B(u, u) = 0, Q(u + v) = 2 B(u, v).
    """
    if not g.basis:
        raise ValueError("generator has an empty solution basis")
    if any(len(v) != 2 * g.n + 1 for v in g.basis):
        raise ValueError(f"generator basis points need {2 * g.n + 1} coordinates")
    if any(len(row) != 2 * g.n + 1 for row in g.equations):
        raise ValueError(f"generator equations need {2 * g.n + 1} coefficients")
    rows = [_cleared(v)[0] for v in g.basis]

    def form(u: list[int], v: list[int]) -> int:
        return sum(a * b for a, b in zip(u[::2], v[::2])) - sum(a * b for a, b in zip(u[1::2], v[1::2]))

    if any(form(v, v) for v in rows):
        raise ValueError("generator basis leaves the absolute quadric")
    if any(form(u, v) for u, v in combinations(rows, 2)):
        raise ValueError("generator span is not totally isotropic")


def generator_to_spinor(g: PlaneGenerator) -> SpinorCoords:
    """Representing spinor of a plane generator, unique up to scale.

    One route: the pure spinor is Chevalley's product Xi(w_1)...Xi(w_n) e_M
    over independent points w_i of the plane, for the first basis spinor e_M
    in mask order that it does not kill.  That every basis point kills it is
    checked once, on the product, since a scaled copy kills the same points.

    Its solution set {x : Xi(x) a = 0} is then exactly the plane: on it
    Xi(x)^2 = Q(x) I with Xi(x) a = 0 and a nonzero, so Q(x) = 0 there, and
    as a linear space the set is totally isotropic, of dimension at most n;
    it holds the n-dimensional plane.  So the spinor needs no second purity
    or rank decision, and the stored equations match its generator exactly
    when each vanishes on each basis point and they have rank n+1, both
    decided in integers.

    Two representatives: when the stored equations are the canonical rows
    b, b^1..b^n, the scalar coordinate is nonzero and the rows are lambda
    times the product's, the stored representative lambda * product is
    returned; otherwise (a zero scalar coordinate, or other rows) the
    primitive integer representative, after the equations are checked
    against the plane.
    """
    _validate_generator_geometry(g)
    n = g.n
    product = _pure_spinor(n, g.basis)
    spinor = SpinorCoords(n, product)
    _verify_spinor_matches(spinor, g)
    if g.row_masks == (0,) + tuple(1 << i for i in range(n)) and product[0] and len(g.equations) == n + 1:
        rows = generator_rows(spinor)
        scale = g.equations[0][0] / rows[0][0]
        if scale and [list(row) for row in g.equations] == [[scale * c for c in rows[r]] for r in g.row_masks]:
            return SpinorCoords(n, [scale * v for v in product])
    equations = [_cleared(row)[0] for row in g.equations]
    points = [_cleared(point)[0] for point in g.basis]
    if any(sum(map(mul, row, point)) for row in equations for point in points) or linalg.rank(equations) != n + 1:
        raise ValueError("inconsistent system: plane differs from the spinor's generator")
    return SpinorCoords(n, _primitive(product))


def _pure_spinor(n: int, basis: Sequence[Coords]) -> list[int]:
    """Xi(w_1)...Xi(w_n) e_M in integers, over independent points w_i spanning
    the basis, each scaled by the lcm of its denominators.

    The Xi(w_i) anticommute and square to zero on a totally isotropic plane,
    so every column of the product is killed by each of them; it is nonzero
    exactly when the plane has dimension n, which pins the spinor ray.
    """
    points, pivots = linalg.rref(basis)
    if len(pivots) == n:
        images = point_blade_images(n)
        factors = [list(zip(images, _cleared(point)[0])) for point in reversed(points[:n])]
        for mask in range(1 << n):
            vector = {mask: 1}
            for factor in factors:
                vector = _signed_sum(factor, vector)
            if vector:
                return [vector.get(r, 0) for r in range(1 << n)]
    raise ValueError("plane does not determine a unique spinor ray")


def spinor_images(m: Multivector, spinors: Sequence[SpinorCoords]) -> list[SpinorCoords]:
    """rep(m) a for each spinor a, with m in the interleaved (n,n) algebra of
    the spinors' rank n, bit-equal to the dense rep_multivector(m, n) times a.

    m is read in its integer form and all the spinors are cleared together
    once, so a whole kernel basis is mapped on one clearing; every image
    forms one ``Fraction`` per coordinate.
    """
    n = spinors[0].n
    if m.signature != neutral_signature(n):
        raise ValueError(f"element must live in the interleaved ({n},{n}) algebra")
    terms, m_scale = m._cleared_terms()
    images = [(blade_image(n, mask), c) for mask, c in terms]
    values, a_scale = _cleared([v for a in spinors for v in a.values])
    size, scale = 1 << n, m_scale * a_scale
    out = []
    for start in range(0, len(values), size):
        image = _signed_sum(images, {j: v for j, v in enumerate(values[start : start + size]) if v})
        out.append(SpinorCoords._from_values(n, [Fraction(image.get(r, 0), scale) for r in range(size)]))
    return out


def annihilates(x: Coords, *spinors: SpinorCoords) -> bool:
    """Whether Xi(x) a = 0 for every given spinor a, decided on integer
    multiples: x is cleared once and all the spinors together once."""
    size = 1 << (len(x) // 2)
    point = list(zip(point_blade_images(len(x) // 2), _cleared(x)[0]))
    values = _cleared([v for a in spinors for v in a.values])[0]
    return not any(
        _signed_sum(point, {j: c for j, c in enumerate(values[start : start + size]) if c})
        for start in range(0, len(values), size)
    )


def _verify_spinor_matches(a: SpinorCoords, g: PlaneGenerator) -> None:
    """Xi(w) a = 0 for every basis point w, on one clearing of a."""
    images = point_blade_images(g.n)
    vector = {j: c for j, c in enumerate(_cleared(a.values)[0]) if c}
    for point in g.basis:
        if _signed_sum(zip(images, _cleared(point)[0]), vector):
            raise InvariantViolation(
                f"spinor does not annihilate the generator point ({', '.join(map(str, point))})"
            )


def _primitive(vector: Sequence[Fraction]) -> list[Fraction]:
    """Clear denominators, divide by the gcd, make the first nonzero positive."""
    ints = _cleared(vector)[0]
    g = math.gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return [Fraction(v) for v in ints]


@dataclass(frozen=True)
class NormalizeResult:
    """Outcome of scaling a spinor to unit coordinate square-sum.

    scale_sq is the exact square-sum of the input; when it is the square
    of a rational the scaled spinor is returned and exact is True,
    otherwise the input is returned untouched (exact normalization would
    leave the rationals).
    """

    spinor: SpinorCoords
    scale_sq: Fraction
    exact: bool

    def to_json(self) -> dict:
        """The square-sum, the exactness flag and the spinor, with exact leaves."""
        return {"scale_sq": self.scale_sq, "exact": self.exact, "spinor": self.spinor.to_json()}


def normalize(a: SpinorCoords) -> NormalizeResult:
    total = sum(v * v for v in a.values)
    if total == 0:
        raise ValueError("cannot normalize the zero spinor")
    num_root = math.isqrt(total.numerator)
    den_root = math.isqrt(total.denominator)
    if num_root * num_root == total.numerator and den_root * den_root == total.denominator:
        root = Fraction(num_root, den_root)
        scaled = SpinorCoords(a.n, [v / root for v in a.values])
        return NormalizeResult(spinor=scaled, scale_sq=total, exact=True)
    return NormalizeResult(spinor=a, scale_sq=total, exact=False)


def motion_on_points(s: SpinElement, x: Coords) -> list[Fraction]:
    """Move a point: x^0 stays and (x^1..x^{2n}) turns as the vector s x s^-1.

    Requires a reduced spin element of the interleaved (n,n) algebra.  There
    E_i = e_i E_0, so the point element is x^0 E_0 + x E_0 with x the vector
    (x^1..x^{2n}), and the volume element E_0 commutes with every even s:
    conjugating the point rotates x (Lounesto, Clifford Algebras and Spinors,
    2001).  The rotation asserts s x = y s and the quadratic form exactly.
    """
    n = _motion_rank(s)
    coords = [Fraction(v) for v in x]
    if len(coords) != 2 * n + 1:
        raise ValueError(f"expected {2 * n + 1} coordinates, got {len(coords)}")
    turned = _rotate(s.value, Multivector.vector(s.signature, coords[1:]), 1)
    return [coords[0], *turned.vector_coords()]


def _motion_rank(s: SpinElement) -> int:
    sig = s.signature
    if sig != neutral_signature(sig.p):
        raise ValueError("motions live in the interleaved (n,n) algebra")
    if not is_spin_plus(s):
        raise ValueError("motions need a spin element of norm +1")
    return sig.p


def motion_on_spinors(s: SpinElement, a: SpinorCoords) -> SpinorCoords:
    """Act on a spinor by the matrix image of the spin element."""
    n = _motion_rank(s)
    if a.n != n:
        raise ValueError("spinor rank differs from the element's rank")
    return spinor_images(s.value, [a])[0]
