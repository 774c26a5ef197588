"""Dense products and plain ``Fraction`` routes, the test oracles for the
sparse and integer routes.

The library multiplies no dense matrices: its representation is built from
signed permutations, its motions act in the algebra, and it decides the
symbolic point-matrix square by the Clifford relations of its coefficient
matrices.  These plain products check all three against ordinary matrix
algebra.

Its Clifford product, Pfaffian table, relation residuals, completion and
spin norm run on integer numerators over a common denominator.  The
``Fraction``-per-step routes below are the ones they replaced, kept to
check them bit for bit.

The CLI decides Xi(x) a = 0 in integers through the blade images, and the
even-subalgebra map on blade masks and signs.  The ``Fraction`` dot product
with the generator rows and the ``Multivector``-product check are the routes
they replaced.

A spinor is moved by a signed-permutation sum in integers, and the motion's
kernel verdict maps the kernel at x and tests it against the point y.  The
dense image ``rep_multivector`` times a ``Fraction`` vector, and the kernel
at y compared by row space, are the routes they replaced.  ``det`` is the
plain ``Fraction`` elimination behind Pf^2 = det.

The evaluated point matrix is an integer sum, and the kernel at an absolute
point is read off the block recursion.  The ``Fraction`` accumulation of the
images E_i and the reduced-echelon null space of that matrix are the routes
they replaced.  Both now evaluate a per-rank table of integer forms read off
the triples; the integer sum of the images, column by column, is the route
that table replaced.

A signed permutation is three integers (a, b, s) in the library, and a blade
image a fold of its generators' triples.  The 2^n-long (perm, signs) tables
composed down the block recursion are the representation they replaced; they
pin every blade's triple, and the ``Fraction`` build of Xi(x) reads them.

A seeded spin element is drawn and multiplied in integer numerators, and a
generator's isotropy is one integer Gram pass.  The ``Fraction`` reflection,
the left-to-right ``Fraction`` product of its factors and the quadratic
forms of the basis points and their pairwise sums are the routes they
replaced; the first two pin the seeded elements item for item, in order.

The generator round trip checks a plane's stored equations by one integer
product with its basis and one rank.  Re-deriving the spinor's system and
comparing row spaces by three ranks is the route it replaced.  A spinor is
held as its reduced integer form, and the primitive representative is read
off the product's numerators.  ``primitive``, which clears a ``Fraction``
vector, divides by the gcd and makes the first nonzero positive, is the
route that read-off replaced.  A generator system is read in integers off
the columns E_i N of a spinor's numerators, each one signed-permutation
sum; ``generator_rows``, its ``Fraction`` rows read entry by entry off the
triples, is the route it replaced, and ``completed_coords``, the
``Fraction`` completion, is the one the integer form of a spinor completed
from its low grades replaced.

A rotation reads y off the integer product of the cleared s and x and
decides s x = y s and (y,y) = (x,x) in integers.  The read-off over two
``Multivector`` products, with one ``blade_product`` per term pair, is the
route it replaced (``rotate``).  The Lipschitz verdict is Chevalley's
quadrics; the relation residuals, all zero, are its oracle.

``vector_norm``, the form (x,x) summed over a vector's integer numerators,
has no caller in the library; the tests that pin it against the dense
square and use it on drawn and rotated vectors read it here.

The CLI renders a report by joining each container's text once, with keys
and strings escaped by ``json``'s C encoder.  ``render``, which hands the
report to ``json.dumps(indent=2, sort_keys=True)`` with a ``default`` leaf
converter and flattens CSV and pretty output through a generator chain, is
the route it replaced, kept to check it byte for byte.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, prod

from spinorlab import linalg
from spinorlab.atlas import even_subalgebra_signature
from spinorlab.blades import Multivector, blade_grade, blade_indices, blade_product, mask_from_indices
from spinorlab.errors import InvariantViolation
from spinorlab.geometry import SpinorCoords, _pure_spinor, independent_system, kernel_spinors
from spinorlab.matrices import point_blade_images, quadratic_form, rep_multivector
from spinorlab.poly import Poly


def identity(n):
    out = linalg.zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_mul(a, b):
    """Product with zero-skipping, for the sparse images and point matrices."""
    n, k = len(a), len(b)
    if any(len(row) != k for row in a):
        raise ValueError("inner dimensions do not match")
    m = len(b[0])
    out = linalg.zeros(n, m)
    for i in range(n):
        row_a = a[i]
        row_out = out[i]
        for t in range(k):
            c = row_a[t]
            if not c:
                continue
            row_b = b[t]
            for j in range(m):
                if row_b[j]:
                    row_out[j] += c * row_b[j]
    return out


def mat_eq(a, b):
    return len(a) == len(b) and all(list(ra) == list(rb) for ra, rb in zip(a, b))


def mat_vec(a, v):
    return [sum((c * v[j] for j, c in enumerate(row) if c), Fraction(0)) for row in a]


def det(rows):
    """Determinant by fraction-exact Gaussian elimination."""
    m = [list(map(Fraction, row)) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            result = -result
        result *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result


def table_compose(left, right):
    """Matrix product left @ right of two (perm, signs) tables, in which
    column j carries signs[j] in row perm[j]."""
    perm, signs = left
    return (
        tuple(perm[r] for r in right[0]),
        tuple(sign * signs[r] for r, sign in zip(*right)),
    )


@lru_cache(maxsize=None)
def table_generator_images(n):
    """Images of e_1..e_2n as 2^n-long tables, by the block recursion: e_i
    maps to rep(e_i) (+) rep(e_i) for i <= 2n-2, e_{2n-1} to [[0, V], [V, 0]]
    and e_{2n} to [[0, V], [-V, 0]], V the rank n-1 volume image."""
    if n == 0:
        return ()
    prev = table_generator_images(n - 1)
    h = 1 << (n - 1)
    gens = [(perm + tuple(h + r for r in perm), signs + signs) for perm, signs in prev]
    perm, signs = table_blade_image(n - 1, (1 << (2 * n - 2)) - 1)
    swap = tuple(h + r for r in perm) + perm
    gens.append((swap, signs + signs))
    gens.append((swap, tuple(-s for s in signs) + signs))
    return tuple(gens)


@lru_cache(maxsize=None)
def table_blade_image(n, mask):
    """Image of a basis blade as a table, the product of its generator tables."""
    out = (tuple(range(1 << n)), (1,) * (1 << n))
    for i in blade_indices(mask):
        out = table_compose(out, table_generator_images(n)[i - 1])
    return out


def scale_add_into(table, target, coeff):
    """target += coeff times the table's matrix."""
    for j, (row, sign) in enumerate(zip(*table)):
        target[row][j] += coeff if sign > 0 else -coeff


def fraction_build_xi(x):
    """Rows of Xi(x), accumulated in ``Fraction``s from the tables of the
    blade images E_i."""
    n = (len(x) - 1) // 2
    full = (1 << (2 * n)) - 1
    masks = [full] + [full ^ (1 << i) for i in range(2 * n)]
    out = linalg.zeros(1 << n, 1 << n)
    for mask, coeff in zip(masks, map(Fraction, x)):
        if coeff:
            scale_add_into(table_blade_image(n, mask), out, coeff)
    return out


def triple_sum_columns(n, ints):
    """The columns of sum_i c^i E_i for integers c^0..c^{2n}, summed image by
    image over the triples of the E_i, each as a map from row to entry; an
    entry is 0 where two images cancel."""
    columns = [{} for _ in range(1 << n)]
    for (a, b, s), c in zip(point_blade_images(n), ints):
        if c:
            c *= s
            for j, column in enumerate(columns):
                column[j ^ a] = column.get(j ^ a, 0) + (-c if (b & j).bit_count() & 1 else c)
    return columns


def null_space_kernel(x):
    """The kernel basis at an absolute point by elimination: the reduced-echelon
    null space of the ``Fraction``-built Xi(x)."""
    return linalg.null_space(fraction_build_xi(x))


def dense_kernel_equivariance(s, x, y):
    """Whether the dense image rep(s) maps the kernel at x onto the kernel at y,
    compared by row space."""
    n = s.signature.p
    rep = rep_multivector(s.value, n)
    mapped = [mat_vec(rep, vec.values) for vec in kernel_spinors(x)]
    return same_row_space(mapped, [list(vec.values) for vec in kernel_spinors(y)])


def same_row_space(a, b):
    """Whether two lists of rows span the same space, by three ranks.

    The library no longer compares row spaces: a generator's stored
    equations span the plane's annihilator exactly when they vanish on its
    basis and have rank n+1, one integer product and one rank.  This is the
    comparison that check replaced, kept as its oracle and for the row-space
    tests of motions.
    """
    ra, rb = linalg.rank(a), linalg.rank(b)
    if ra != rb:
        return False
    return linalg.rank(list(a) + list(b)) == ra


def primitive(vector):
    """Clear denominators, divide by the gcd, make the first nonzero positive."""
    ints = linalg._cleared([Fraction(v) for v in vector])[0]
    g = gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return [Fraction(v) for v in ints]


def system_generator_to_spinor(g):
    """The round trip's check of a generator's stored equations, by the route
    it replaced: the primitive Chevalley product's system re-derived by
    ``independent_system`` and compared with the stored rows by row space.
    The caller has validated the basis."""
    product = _pure_spinor(g.n, g.basis)
    spinor = SpinorCoords(g.n, primitive([product.get(mask, 0) for mask in range(1 << g.n)]))
    if not same_row_space([list(r) for r in independent_system(spinor).equations], [list(r) for r in g.equations]):
        raise ValueError("inconsistent system: plane differs from the spinor's generator")
    return spinor


def verify_symbolic_square(xi):
    """Square the symbolic point matrix in polynomials and compare with Q(x) I;
    a failure names its first entry in row order."""
    n, size = xi.n, xi.size
    q = Poly.var("x0") * Poly.var("x0")
    for i in range(1, 2 * n + 1):
        term = Poly.var(f"x{i}") * Poly.var(f"x{i}")
        q = q + term if i % 2 == 0 else q - term
    entries = xi.entries
    for r in range(size):
        row_products = {}
        for k in range(size):
            left = entries[r][k]
            if left.is_zero():
                continue
            for j in range(size):
                right = entries[k][j]
                if right.is_zero():
                    continue
                row_products[j] = row_products.get(j, Poly.zero()) + left * right
        for j in range(size):
            expected = q if j == r else Poly.zero()
            value = row_products.get(j, Poly.zero())
            if value != expected:
                raise InvariantViolation(
                    f"symbolic point-matrix square identity failed at entry ({r}, {j}): "
                    f"{value!r}, expected {expected!r}"
                )


def grades(m):
    """The grades present in a multivector."""
    return {blade_grade(mask) for mask in m.masks()}


def pair_table(coord, n):
    """Skew table of the grade-2 coordinates of a rank-n element, read by mask."""
    table = [[Fraction(0)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        table[i][j] = coord(1 << i | 1 << j)
        table[j][i] = -table[i][j]
    return table


def skew_table(s):
    """Grade-2 coordinates of a spin element as a full skew matrix, 0-indexed."""
    return pair_table(s.value.coefficient, s.signature.dim)


def product(a, b):
    """Geometric product with one ``Fraction`` product and sum per term pair."""
    sig = a.signature
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            sign, mask = blade_product(m1, m2, sig)
            acc = out.get(mask, 0) + (c1 * c2 if sign > 0 else -c1 * c2)
            if acc:
                out[mask] = acc
            elif mask in out:
                del out[mask]
    return Multivector(sig, out)


def pfaffians(table):
    """Pf(A_I) for every index set I by blade mask, expanded in ``Fraction``."""
    pfs = [Fraction(0)] * (1 << len(table))
    pfs[0] = Fraction(1)
    for mask in range(3, len(pfs)):
        if mask.bit_count() % 2:
            continue
        low = mask & -mask
        row = table[low.bit_length() - 1]
        rest = mask ^ low
        total = Fraction(0)
        negate = False
        bits = rest
        while bits:
            bit = bits & -bits
            bits ^= bit
            entry = row[bit.bit_length() - 1]
            sub = pfs[rest ^ bit]
            if entry and sub:
                total += -entry * sub if negate else entry * sub
            negate = not negate
        pfs[mask] = total
    return pfs


def relation_residuals(coord, n):
    """a^(k-1) a^I - Pf(A_I) for every even I, |I| >= 4, by size then lexicographically."""
    pfs = pfaffians(pair_table(coord, n))
    scalar = coord(0)
    out = []
    for size in range(4, n + 1, 2):
        power = scalar ** (size // 2 - 1)
        for subset in combinations(range(1, n + 1), size):
            mask = mask_from_indices(subset)
            out.append((subset, power * coord(mask) - pfs[mask]))
    return out


def completed_coords(scalar, table):
    """a^I = Pf(A_I) / a^(k-1) for every index set I, by blade mask."""
    a = Fraction(scalar)
    powers = [a ** (k - 1) for k in range(len(table) // 2 + 1)]
    return [pf / powers[mask.bit_count() // 2] if pf else pf for mask, pf in enumerate(pfaffians(table))]


def spin_norm(s):
    """The two norm routes in ``Fraction``: the signed coordinate sum and the
    diagonal of s * reverse(s)."""
    sig = s.signature
    sigmas = sig.sigmas()
    total = diagonal = Fraction(0)
    for mask, coeff in s.value.items():
        square = coeff * coeff
        total += square * prod(sigmas[i - 1] for i in blade_indices(mask))
        grade = mask.bit_count()
        sign = blade_product(mask, mask, sig)[0]
        diagonal += square * (-sign if (grade * (grade - 1) // 2) & 1 else sign)
    return total, diagonal


def vector_norm(x):
    """Quadratic form (x,x) of a grade-1 element, summed over integer numerators."""
    if not x.is_grade(1):
        raise ValueError("not a pure vector")
    sigmas = x.signature.sigmas()
    terms, scale = x._cleared_terms()
    return Fraction(sum(sigmas[mask.bit_length() - 1] * v * v for mask, v in terms), scale * scale)


def rotate(s, x, norm):
    """y = s x s^-1 by the grade-1 read-off of (s x) reverse(s) / N over the
    numerators of two ``Multivector`` products, one ``blade_product`` per
    term pair, and s x = y s and (y,y) = (x,x) checked on ``Multivector``s."""
    sig = s.signature
    sx = s * x
    left, d1 = sx._cleared_terms()
    right, d2 = s.reverse()._cleared_terms()
    rev = dict(right)
    norm = Fraction(norm)
    scale = d1 * d2 * norm.numerator
    coords = []
    for i in range(sig.dim):
        total = 0
        for mask, a in left:
            b = rev.get(mask ^ 1 << i)
            if b:
                total += a * b if blade_product(mask, mask ^ 1 << i, sig)[0] > 0 else -a * b
        coords.append(Fraction(total * norm.denominator, scale))
    y = Multivector.vector(sig, coords)
    if y * s != sx:
        raise InvariantViolation("conjugation left the vector space")
    if (y * y).scalar_part() != (x * x).scalar_part():
        raise InvariantViolation("conjugation changed the quadratic form")
    return y


def generator_rows(a):
    """All 2^n rows of Xi(x) a = 0 as ``Fraction`` linear forms in x^0..x^{2n},
    read entry by entry off the signed-permutation triples of the point
    images E_i: row r, column i holds the x^i coefficient, the coordinate of
    a that E_i sends to row r, negated where the sign is -1."""
    values = a.values
    images = point_blade_images(a.n)
    rows = []
    for r in range(len(values)):
        row = []
        for m, b, s in images:
            j = r ^ m
            value = values[j]
            row.append(-value if value and ((b & j).bit_count() & 1) != (s < 0) else value)
        rows.append(row)
    return rows


def generator_rows_annihilate(x, a):
    """Xi(x) a = 0 exactly when every generator row of a vanishes at x."""
    return all(sum(c * v for c, v in zip(row, x)) == 0 for row in generator_rows(a))


def even_map_by_products(sig, images):
    """The even-subalgebra map check by products of the images: the target
    Clifford relations f_i f_j + f_j f_i = 2 sigma'(i) delta_ij, then a single
    even blade from every subset product, 2^(p+q-1) of them distinct."""
    target = even_subalgebra_signature(sig)
    two = Fraction(2)
    for a in range(len(images)):
        for b in range(len(images)):
            anti = images[a] * images[b] + images[b] * images[a]
            expected = (
                Multivector.scalar(sig, two * target.sigma(a + 1)) if a == b else Multivector.zero(sig)
            )
            if anti != expected:
                return False
    seen_masks = set()
    for r in range(target.dim + 1):
        for subset in combinations(range(target.dim), r):
            product = Multivector.scalar(sig, 1)
            for idx in subset:
                product = product * images[idx]
            if len(product) != 1:
                return False
            (mask,) = product.masks()
            if blade_grade(mask) % 2:
                return False
            seen_masks.add(mask)
    return len(seen_masks) == 1 << (sig.dim - 1)


def reflected_unit_vector(sig, rng, norm_sign):
    """v = e_b - 2 B(e_b,u)/B(u,u) u in ``Fraction``s, for the first generator
    e_b of square norm_sign and the first random u with B(u,u) != 0."""
    sigmas = sig.sigmas()
    base_index = sigmas.index(norm_sign)
    base = [Fraction(0)] * sig.dim
    base[base_index] = Fraction(1)
    while True:
        u = [Fraction(rng.randint(-3, 3)) for _ in range(sig.dim)]
        uu = sum(s * c * c for s, c in zip(sigmas, u))
        if uu:
            break
    factor = Fraction(2) * sigmas[base_index] * u[base_index] / uu
    return Multivector.vector(sig, [b - factor * c for b, c in zip(base, u)])


def vector_chain(vectors):
    """v_1 v_2 ... v_m left to right, one ``Fraction`` product and sum per term
    pair, with the result blades in first-reached order at each step."""
    sig = vectors[0].signature
    terms = {0: Fraction(1)}
    for v in vectors:
        out = {}
        for m1, c1 in terms.items():
            for m2, c2 in v.items():
                sign, mask = blade_product(m1, m2, sig)
                out[mask] = out.get(mask, 0) + (c1 * c2 if sign > 0 else -c1 * c2)
        terms = {m: c for m, c in out.items() if c}
    return Multivector(sig, terms)


def seeded_spin_element(sig, seed, k, norm_plus=False):
    """The draws of ``random_spin_element`` through the two routes above."""
    rng = random.Random(seed)
    signs = [s for s in (1, -1) if (s > 0 and sig.p) or (s < 0 and sig.q)]
    chosen = [rng.choice(signs) for _ in range(2 * k)]
    if norm_plus and chosen.count(-1) % 2:
        chosen[chosen.index(-1)] = 1
    return vector_chain([reflected_unit_vector(sig, rng, sign) for sign in chosen])


def validate_generator_geometry(g):
    """Q of every basis point, then Q of every pairwise sum, in ``Fraction``s."""
    if not g.basis:
        raise ValueError("generator has an empty solution basis")
    vectors = [list(v) for v in g.basis]
    for v in vectors:
        if quadratic_form(v) != 0:
            raise ValueError("generator basis leaves the absolute quadric")
    for u, v in combinations(vectors, 2):
        if quadratic_form([a + b for a, b in zip(u, v)]) != 0:
            raise ValueError("generator span is not totally isotropic")


def render(report, mode, tol, fmt):
    """The CLI's text of a report: ``json.dumps`` with a ``default`` leaf,
    or the generator-chain flattening of CSV and pretty output."""

    def leaf(value):
        if not isinstance(value, Fraction):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if mode == "exact":
            return str(value)
        try:
            approx = float(value)
        except OverflowError:
            raise ValueError("a value exceeds the float range; use --mode exact") from None
        return 0.0 if abs(approx) < tol else approx

    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True, default=leaf) + "\n"
    if fmt == "csv":
        lines = ["key,value"]
        for key, value in flatten(report, leaf):
            lines.append(f"{key},{value}")
        return "\n".join(lines) + "\n"
    lines = [f"{key}: {value}" for key, value in flatten(report, leaf)]
    return "\n".join(lines) + "\n"


def flatten(value, leaf, prefix=""):
    """(dotted key, text) per leaf, in sorted key order; a text holding a
    comma is quoted."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from flatten(value[key], leaf, f"{prefix}{key}.")
    elif isinstance(value, (list, tuple)):
        for idx, item in enumerate(value):
            yield from flatten(item, leaf, f"{prefix}{idx}.")
    else:
        text = str(leaf(value) if isinstance(value, Fraction) else value)
        if "," in text:
            text = '"' + text.replace('"', '""') + '"'
        yield prefix.rstrip("."), text
