"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test carries a `_criterion` label; the conftest hook prints a PASS/FAIL
line per criterion at the end of the run.  Everything here is exact; the
stated trial counts and runtime budgets are asserted, not aspirational.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from spinorlab import (
    INTERLEAVED,
    Multivector,
    Signature,
    SpinorCoords,
    build_xi,
    build_xi_symbolic,
    check_relations,
    classify,
    even_subalgebra_signature,
    generator_to_spinor,
    independent_system,
    kernel_spinors,
    motion_on_points,
    neutral_signature,
    quadratic_form,
    random_spin_element,
    rep_multivector,
    spin_norm,
)
from spinorlab.atlas import factorization_class, karoubi_factorization, verify_even_subalgebra_map
from spinorlab.poly import Poly

from dense import dense_kernel_equivariance, generator_rows, mat_eq, mat_mul, primitive
from polyparts import coefficient_of_var, divide_by_var, without_var


def criterion(label):
    def mark(fn):
        fn._criterion = label
        return fn

    return mark


def random_absolute_point(n, rng):
    while True:
        x0 = Fraction(rng.randint(-5, 5))
        sums = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        diffs = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
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


def random_relation_spinor(n, rng):
    scalar = Fraction(0)
    while scalar == 0:
        scalar = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    vector = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    skew = {
        (i, j): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        for i, j in combinations(range(1, n + 1), 2)
    }
    return SpinorCoords.from_low_grade(n, scalar, vector, skew)


# -- criterion 1 -----------------------------------------------------------------


@criterion("criterion 1: golden matrices for ranks 1 and 2")
def test_criterion_1_golden_matrices():
    started = time.perf_counter()
    assert build_xi_symbolic(1).token_rows() == [
        ["-x0", "x1+x2"],
        ["-x1+x2", "x0"],
    ]
    assert build_xi_symbolic(2).token_rows() == [
        ["x0", "-x1-x2", "x3+x4", "0"],
        ["x1-x2", "-x0", "0", "x3+x4"],
        ["-x3+x4", "0", "-x0", "x1+x2"],
        ["0", "-x3+x4", "-x1+x2", "x0"],
    ]
    assert time.perf_counter() - started < 1.0


# -- criterion 2 -----------------------------------------------------------------


@criterion("criterion 2: point-matrix square identity, symbolic and sampled")
def test_criterion_2_square_identity():
    started = time.perf_counter()
    for n in range(1, 6):
        build_xi_symbolic(n).verify_square_identity()
    for n in range(1, 6):
        rng = random.Random(9000 + n)
        for _ in range(1000):
            x = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2 * n + 1)
            ]
            build_xi(x).verify_square_identity(x)
    assert time.perf_counter() - started < 30.0


# -- criterion 3 -----------------------------------------------------------------


@criterion("criterion 3: kernel dimension 2^(n-1) on the absolute")
def test_criterion_3_kernel_dimension():
    worked = kernel_spinors([0, 1, 1, 0, 0])
    assert [list(map(Fraction, b.values)) for b in worked] == [
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
    ]
    for n in range(1, 5):
        rng = random.Random(300 + n)
        for _ in range(200):
            x = random_absolute_point(n, rng)
            basis = kernel_spinors(x)  # raises unless dimension is 2^(n-1)
            assert len(basis) == 1 << (n - 1)


# -- criterion 4 -----------------------------------------------------------------


@criterion("criterion 4: norm and coordinate relations on vector products")
def test_criterion_4_relation_system():
    signatures = [
        Signature(4, 0),
        Signature(2, 2),
        Signature(1, 3),
        Signature(2, 2, INTERLEAVED),
    ]
    trials = 0
    for sig_index, sig in enumerate(signatures):
        for seed in range(125):
            k = seed % 3 + 1
            s = random_spin_element(sig, 10_000 * sig_index + seed, k)
            assert spin_norm(s) in (1, -1)
            report = check_relations(s)
            assert report.relations_ok
            assert report.spin
            trials += 1
    assert trials == 500


@criterion("criterion 4a: named four-index relation")
def test_criterion_4_named_four_index_relation():
    # a * a^1234 = a^12 a^34 - a^13 a^24 + a^14 a^23
    sig = Signature(2, 2)
    for seed in range(50):
        s = random_spin_element(sig, seed + 1, k=2)
        a = s.scalar_coord()
        c = s.coords()

        def pair(i, j):
            return c.get((i, j), Fraction(0))

        lhs = a * c.get((1, 2, 3, 4), Fraction(0))
        rhs = pair(1, 2) * pair(3, 4) - pair(1, 3) * pair(2, 4) + pair(1, 4) * pair(2, 3)
        assert lhs == rhs
    # and the frozen instance: a=1, a^12=1, a^34=2 forces a^1234 = 2
    from spinorlab import reconstruct_from_low_grade

    element = reconstruct_from_low_grade(1, {(1, 2): 1, (3, 4): 2}, Signature(4, 0))
    assert element.coord((1, 2, 3, 4)) == 2


# -- criterion 5 -----------------------------------------------------------------


@criterion("criterion 5: n+1 equations imply all 2^n, identities exact")
def test_criterion_5_reduction():
    for n in range(1, 5):
        rng = random.Random(40 + n)
        for _ in range(200):
            a = random_relation_spinor(n, rng)
            g = independent_system(a)
            full = generator_rows(a)
            points = [list(b) for b in g.basis]
            # also check a random combination of the basis
            weights = [Fraction(rng.randint(-3, 3)) for _ in points]
            combo = [
                sum(w * b[i] for w, b in zip(weights, points))
                for i in range(2 * n + 1)
            ]
            for point in points + [combo]:
                for row in full:
                    assert sum(c * v for c, v in zip(row, point)) == 0


@criterion("criterion 5a: reduction identities as polynomial identities")
def test_criterion_5_symbolic_identities():
    # rank 2: a*b^{ij} = a^i b^j - a^j b^i + a^{ij} b identically
    for n in (2, 3):
        a_vars, b_forms = _symbolic_image(n)

        def a_of(indices):
            mask = 0
            for i in indices:
                mask |= 1 << (i - 1)
            return a_vars[mask]

        def b_of(indices):
            mask = 0
            for i in indices:
                mask |= 1 << (i - 1)
            return b_forms[mask]

        for i, j in combinations(range(1, n + 1), 2):
            residual = a_of(()) * b_of((i, j)) - (
                a_of((i,)) * b_of((j,)) - a_of((j,)) * b_of((i,)) + a_of((i, j)) * b_of(())
            )
            if n == 2:
                assert residual.is_zero()
            else:
                k = next(v for v in range(1, n + 1) if v not in (i, j))
                cond = _condition_poly(*sorted((i, j, k)))
                _assert_multiple_of_condition(residual, cond)
        if n == 3:
            residual = a_of(()) * b_of((1, 2, 3)) - (
                a_of((1, 2)) * b_of((3,)) - a_of((1, 3)) * b_of((2,)) + a_of((2, 3)) * b_of((1,))
            )
            _assert_multiple_of_condition(residual, _condition_poly(1, 2, 3))


def _symbolic_image(n):
    """Symbolic spinor coordinates and the bilinear forms b = Xi(x) a."""
    names = []
    for mask in range(1 << n):
        indices = [i + 1 for i in range(n) if mask >> i & 1]
        names.append("a" + "".join(str(i) for i in indices))
    a_vars = [Poly.var(name) for name in names]
    xi = build_xi_symbolic(n)
    b_forms = []
    for r in range(1 << n):
        total = Poly.zero()
        for c in range(1 << n):
            entry = xi.entries[r][c]
            if not entry.is_zero():
                total = total + entry * a_vars[c]
        b_forms.append(total)
    return a_vars, b_forms


def _condition_poly(i, j, k):
    def name(*idx):
        return "a" + "".join(str(v) for v in idx)

    a = Poly.var
    return a("a") * a(name(i, j, k)) - (
        a(name(i)) * a(name(j, k)) - a(name(j)) * a(name(i, k)) + a(name(k)) * a(name(i, j))
    )


def _assert_multiple_of_condition(residual, cond):
    """Exact division: residual must equal (residual_Q / a) * cond."""
    if residual.is_zero():
        return
    top_var = next(v for v in cond.terms if len(v) == 2 and "a" in v)
    main = [name for name in top_var if name != "a"][0]
    q = coefficient_of_var(residual, main)
    p = without_var(residual, main)
    factor = divide_by_var(q, "a")
    assert coefficient_of_var(cond, main) == Poly.var("a")
    assert p == factor * without_var(cond, main)


# -- criterion 6 -----------------------------------------------------------------


@criterion("criterion 6: two-valued spinor <-> generator correspondence")
def test_criterion_6_two_valued_correspondence():
    for n in (1, 2, 3):
        rng = random.Random(600 + n)
        for _ in range(200):
            a = random_relation_spinor(n, rng)
            recovered = generator_to_spinor(independent_system(a))
            assert recovered == a  # canonical rows with a nonzero scalar keep the stored scale
    # a zero scalar coordinate gives the primitive representative of the product
    for n in (2, 3):
        rng = random.Random(660 + n)
        for _ in range(40):
            a = _orthogonal_pair_spinor(n, rng)
            g = independent_system(a)
            recovered = generator_to_spinor(g)
            prim_in = primitive(a.values)
            prim_out = primitive(recovered.values)
            assert prim_out == prim_in  # equal rays; sign fixed by the primitive form
    top2 = SpinorCoords(2, [0, 0, 0, 1])
    assert generator_to_spinor(independent_system(top2)).values == [
        Fraction(0), Fraction(0), Fraction(0), Fraction(1),
    ]


def _orthogonal_pair_spinor(n, rng):
    """Zero-scalar relation spinor from a product of two orthogonal vectors."""
    while True:
        u = [Fraction(rng.randint(-3, 3)) for _ in range(n + 1)]
        v = [Fraction(rng.randint(-3, 3)) for _ in range(n + 1)]
        dot = sum(a * b for a, b in zip(u, v))
        pivot = next((i for i, val in enumerate(u) if val), None)
        if pivot is None:
            continue
        v[pivot] -= dot / u[pivot]

        def wedge(i, j):
            return u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]

        values = [Fraction(0)] * (1 << n)
        for i in range(1, n + 1):
            values[1 << (i - 1)] = wedge(i, n + 1)
            for j in range(i + 1, n + 1):
                values[(1 << (i - 1)) | (1 << (j - 1))] = wedge(i, j)
        spinor = SpinorCoords(n, values)
        if spinor.is_zero() or spinor.scalar_coord() != 0:
            continue
        if spinor.satisfies_relations():
            return spinor


# -- criterion 7 -----------------------------------------------------------------


@criterion("criterion 7: motions preserve the form and map kernels by rep")
def test_criterion_7_equivariance():
    for n in (2, 3):
        sig = neutral_signature(n)
        rng = random.Random(70 + n)
        for seed in range(100):
            s = random_spin_element(sig, 7_000 + seed, k=seed % 2 + 1, norm_plus=True)
            x = random_absolute_point(n, rng)
            y = motion_on_points(s, x)
            assert quadratic_form(y) == quadratic_form(x) == 0
            assert dense_kernel_equivariance(s, x, y)
            # generic points too: exact form preservation
            z = [Fraction(rng.randint(-4, 4)) for _ in range(2 * n + 1)]
            assert quadratic_form(motion_on_points(s, z)) == quadratic_form(z)


# -- criterion 8 -----------------------------------------------------------------


@criterion("criterion 8: classification table, named chains, generator maps")
def test_criterion_8_classification():
    for p in range(9):
        for q in range(9 - p):
            cls = classify(Signature(p, q))
            assert cls.real_dimension == 1 << (p + q)
    # named chain: even part of the neutral rank-4 algebra is 2*R(8)
    even = even_subalgebra_signature(Signature(4, 4))
    assert even == Signature(4, 3)
    chain = classify(even)
    assert (chain.ring, chain.size, chain.multiplicity) == ("R", 8, 2)
    # named factorization of the rank-3 neutral algebra
    assert karoubi_factorization(Signature(3, 3)) == [
        Signature(2, 0),
        Signature(2, 0),
        Signature(1, 1),
    ]
    direct = classify(Signature(3, 3))
    via = factorization_class(Signature(3, 3))
    assert (via.ring, via.size, via.multiplicity) == (direct.ring, direct.size, direct.multiplicity)
    # generator maps, exhaustively to six generators
    for p in range(7):
        for q in range(7 - p):
            if p + q < 1:
                continue
            assert verify_even_subalgebra_map(Signature(p, q))


# -- criterion 9 -----------------------------------------------------------------


@criterion("criterion 9: matrix representation is multiplicative")
def test_criterion_9_representation_multiplicative():
    trials = 0
    for n in (1, 2, 3):
        sig = neutral_signature(n)
        rng = random.Random(900 + n)
        even_masks = [m for m in range(1 << (2 * n)) if bin(m).count("1") % 2 == 0]
        for _ in range(167 if n > 1 else 166):
            s = _random_even(sig, even_masks, rng)
            t = _random_even(sig, even_masks, rng)
            left = rep_multivector(s * t, n)
            right = mat_mul(rep_multivector(s, n), rep_multivector(t, n))
            assert mat_eq(left, right)
            trials += 1
    assert trials == 500


def _random_even(sig, even_masks, rng):
    terms = {
        mask: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for mask in rng.sample(even_masks, min(6, len(even_masks)))
    }
    return Multivector(sig, terms)
