"""Dense products, the test oracles for the sparse and integer routes.

The library multiplies no dense matrices: its representation is built from
signed permutations, its motions act in the algebra, and it decides the
symbolic point-matrix square by the Clifford relations of its coefficient
matrices.  These plain products check all three against ordinary matrix
algebra.
"""

from fractions import Fraction

from spinorlab import linalg
from spinorlab.errors import InvariantViolation
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
