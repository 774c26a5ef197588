"""Reference arithmetic the benchmark checks spinorlab's results against.

Everything here is written from the definitions, independently of the
library: the point matrix from its 2x2 block recursion, the alternating
quadratic form, a sparse geometric product on bitmask blades, the
Pfaffian as a sum over perfect matchings, and the shape of a
reduced-echelon null-space basis.  A failed check raises
:class:`OracleError`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


class OracleError(AssertionError):
    """A result of the program under test failed its reference check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


# -- neutral point matrices ------------------------------------------------------


def form(x) -> Fraction:
    """Q(x) = (x^0)^2 - (x^1)^2 + (x^2)^2 - ... + (x^2n)^2."""
    return sum((v * v if i % 2 == 0 else -v * v for i, v in enumerate(x)), Fraction(0))


def xi_rows(x) -> list[dict[int, Fraction]]:
    """Sparse rows of Xi(x), from Xi_l = [[-Xi, (x_{2l-1}+x_{2l}) I], [(x_{2l}-x_{2l-1}) I, Xi]]."""
    rows: list[dict[int, Fraction]] = [{0: Fraction(x[0])} if x[0] else {}]
    for level in range(1, (len(x) - 1) // 2 + 1):
        h = len(rows)
        plus = x[2 * level - 1] + x[2 * level]
        minus = x[2 * level] - x[2 * level - 1]
        top, bottom = [], []
        for r, row in enumerate(rows):
            upper = {c: -v for c, v in row.items()}
            lower = {r: minus} if minus else {}
            if plus:
                upper[h + r] = plus
            lower.update({h + c: v for c, v in row.items()})
            top.append(upper)
            bottom.append(lower)
        rows = top + bottom
    return rows


def check_square_identity(x, entries) -> None:
    """Xi(x) matches the recursion entry for entry, and Xi(x)^2 = Q(x) I."""
    rows = xi_rows(x)
    size = len(rows)
    require(len(entries) == size, "point matrix has the wrong size")
    for r in range(size):
        dense = entries[r]
        require(len(dense) == size, "point matrix row has the wrong size")
        require(
            all(dense[c] == rows[r].get(c, 0) for c in range(size)),
            f"point matrix row {r} differs from the block recursion",
        )
    q = form(x)
    for r in range(size):
        square: dict[int, Fraction] = {}
        for k, left in rows[r].items():
            for c, right in rows[k].items():
                square[c] = square.get(c, 0) + left * right
        nonzero = {c: v for c, v in square.items() if v}
        require(nonzero == ({r: q} if q else {}), f"Xi(x)^2 differs from Q(x) I in row {r}")


def check_kernel_basis(x, basis) -> None:
    """Basis annihilated by Xi(x), of dimension 2^(n-1), in reduced-echelon form."""
    n = (len(x) - 1) // 2
    require(len(basis) == 1 << (n - 1), f"kernel dimension {len(basis)} is not 2^(n-1)")
    rows = xi_rows(x)
    free_columns = []
    for vec in basis:
        require(len(vec) == 1 << n, "kernel vector has the wrong length")
        require(
            all(sum((c * vec[k] for k, c in row.items()), Fraction(0)) == 0 for row in rows),
            "kernel vector is not annihilated by Xi(x)",
        )
        last = max(k for k, v in enumerate(vec) if v)
        require(vec[last] == 1, "kernel vector does not end in 1 at its free column")
        free_columns.append(last)
    require(free_columns == sorted(set(free_columns)), "free columns are not increasing")
    for i, vec in enumerate(basis):
        require(
            all(not vec[col] for j, col in enumerate(free_columns) if j != i),
            "kernel basis is not in reduced-echelon form",
        )


def absolute_point(rng, n: int) -> list[Fraction]:
    """Primitive integer point with Q(x) = 0, off the coordinate axes.

    Starts from the isotropic vector e_i + e_j (i even, j odd index) and
    applies two reflections of the form Q, which preserve Q exactly.
    """
    x = [Fraction(0)] * (2 * n + 1)
    x[2 * rng.randrange(n + 1)] = Fraction(1)
    x[2 * rng.randrange(n) + 1] = Fraction(rng.choice((1, -1)))
    for _ in range(2):
        while True:
            u = [Fraction(rng.randint(-2, 2)) for _ in x]
            uu = form(u)
            if uu:
                break
        bxu = sum((a * b if i % 2 == 0 else -a * b for i, (a, b) in enumerate(zip(x, u))), Fraction(0))
        factor = 2 * bxu / uu
        x = [a - factor * b for a, b in zip(x, u)]
    return primitive(x)


def primitive(values) -> list[Fraction]:
    """Clear denominators and divide by the gcd."""
    scale = math.lcm(*(Fraction(v).denominator for v in values))
    ints = [int(v * scale) for v in values]
    g = math.gcd(*ints) or 1
    return [Fraction(v // g) for v in ints]


def parallel(u, v) -> bool:
    """Nonzero and proportional."""
    if not any(u) or not any(v):
        return False
    return all(u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(i + 1, len(u)))


# -- Clifford algebra on bitmask blades -------------------------------------------------


def blade_sign(b1: int, b2: int, sigmas) -> int:
    """Sign of e_{b1} e_{b2}: reordering swaps times squares of shared generators."""
    swaps = 0
    a = b1 >> 1
    while a:
        swaps += bin(a & b2).count("1")
        a >>= 1
    sign = -1 if swaps & 1 else 1
    common = b1 & b2
    i = 0
    while common:
        if common & 1:
            sign *= sigmas[i]
        common >>= 1
        i += 1
    return sign


def gp(a: dict[int, Fraction], b: dict[int, Fraction], sigmas) -> dict[int, Fraction]:
    """Geometric product of two sparse multivectors {mask: coefficient}."""
    out: dict[int, Fraction] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mask = m1 ^ m2
            out[mask] = out.get(mask, 0) + blade_sign(m1, m2, sigmas) * c1 * c2
    return {m: c for m, c in out.items() if c}


def reverse(a: dict[int, Fraction]) -> dict[int, Fraction]:
    out = {}
    for mask, c in a.items():
        k = bin(mask).count("1")
        out[mask] = -c if (k * (k - 1) // 2) & 1 else c
    return out


def sigmas_of(p: int, q: int, interleaved: bool) -> tuple[int, ...]:
    """Generator squares: plain is +..+-..-, interleaved alternates +,- first."""
    if not interleaved:
        return (1,) * p + (-1,) * q
    m = min(p, q)
    return (1, -1) * m + (1,) * (p - m) + (-1,) * (q - m)


def vector_form(coords, sigmas) -> Fraction:
    return sum((s * c * c for s, c in zip(sigmas, coords)), Fraction(0))


def unit_vector(rng, sigmas, sign: int) -> dict[int, Fraction]:
    """Rational vector with (v,v) = sign: a basis vector reflected across a random hyperplane."""
    base = sigmas.index(sign)
    while True:
        # no zero entries, so products of such vectors are dense and alike in cost
        u = [Fraction(rng.choice((-2, -1, 1, 2))) for _ in sigmas]
        uu = vector_form(u, sigmas)
        if uu:
            break
    factor = 2 * sigmas[base] * u[base] / uu
    coords = [(1 if i == base else 0) - factor * c for i, c in enumerate(u)]
    return {1 << i: c for i, c in enumerate(coords) if c}


def rotor(rng, sigmas, pairs: int, norm_plus: bool) -> dict[int, Fraction]:
    """Product of 2*pairs unit vectors; with norm_plus its spin norm is +1."""
    available = [s for s in (1, -1) if s in sigmas]
    signs = [rng.choice(available) for _ in range(2 * pairs)]
    if norm_plus and signs.count(-1) % 2:
        signs[signs.index(-1)] = 1
    out = {0: Fraction(1)}
    for sign in signs:
        out = gp(out, unit_vector(rng, sigmas, sign), sigmas)
    return out


def spin_norm(s: dict[int, Fraction], sigmas) -> Fraction:
    """Scalar of s * reverse(s) as the signed coordinate sum."""
    total = Fraction(0)
    for mask, c in s.items():
        sign = 1
        for i, square in enumerate(sigmas):
            if mask >> i & 1:
                sign *= square
        total += sign * c * c
    return total


def is_spin(s: dict[int, Fraction], sigmas) -> bool:
    """Even, s * reverse(s) = +-1 exactly, and s e_i s^-1 a vector for every generator."""
    if any(bin(mask).count("1") % 2 for mask in s):
        return False
    rev = reverse(s)
    if gp(s, rev, sigmas) not in ({0: 1}, {0: -1}):
        return False
    for i in range(len(sigmas)):
        conj = gp(gp(s, {1 << i: Fraction(1)}, sigmas), rev, sigmas)
        if any(bin(mask).count("1") != 1 for mask in conj):
            return False
    return True


def rotate(s: dict[int, Fraction], x: dict[int, Fraction], sigmas) -> dict[int, Fraction]:
    """s x s^-1 for an element of spin norm +-1, where s^-1 = reverse(s) / norm."""
    norm = spin_norm(s, sigmas)
    return {m: c / norm for m, c in gp(gp(s, x, sigmas), reverse(s), sigmas).items()}


def pfaffian(skew, indices) -> Fraction:
    """Pf(A_I) as a sum over the perfect matchings of I, each signed by its
    crossing count: (2k-1)!! products of k entries, 105 at |I| = 8."""
    total = Fraction(0)
    for matching in _matchings(tuple(indices)):
        crossings = sum(1 for (a, b), (c, d) in combinations(matching, 2) if a < c < b < d or c < a < d < b)
        term = Fraction(-1 if crossings % 2 else 1)
        for i, j in matching:
            term *= skew[i, j]
        total += term
    return total


def _matchings(indices: tuple[int, ...]):
    if not indices:
        yield ()
        return
    first, rest = indices[0], indices[1:]
    for pos, other in enumerate(rest):
        for matching in _matchings(rest[:pos] + rest[pos + 1:]):
            yield ((first, other),) + matching


def check_reconstruction(a: Fraction, skew, dim: int, coords: dict[int, Fraction]) -> None:
    """a^(k-1) * a^I = Pf(A_I) for every even subset I of size 2k: the scalar
    and the grade-2 coordinates as given, every higher one from its Pfaffian,
    and nothing of odd grade."""
    require(all(bin(mask).count("1") % 2 == 0 for mask in coords), "reconstruction has an odd-grade term")
    require(coords.get(0, 0) == a, "scalar coordinate was not kept")
    for size in range(2, dim + 1, 2):
        power = a ** (size // 2 - 1)
        for subset in combinations(range(1, dim + 1), size):
            mask = sum(1 << (i - 1) for i in subset)
            require(
                power * coords.get(mask, 0) == pfaffian(skew, subset),
                f"grade-{size} coordinate {subset} breaks the Pfaffian relation",
            )


def multivector_text(terms: dict[int, Fraction]) -> str:
    """Text form 'c*e12 + ...' accepted by the CLI parser (indices up to 9)."""
    text = ""
    for mask in sorted(terms, key=lambda m: (bin(m).count("1"), m)):
        c = terms[mask]
        digits = "".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)
        body = f"{abs(c)}*e{digits}" if mask else str(abs(c))
        if text:
            text += f" - {body}" if c < 0 else f" + {body}"
        else:
            text = f"-{body}" if c < 0 else body
    return text or "0"
