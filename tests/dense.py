"""Dense Fraction matrix products, the test oracle for the sparse routes.

The library multiplies no dense matrices: its representation is built from
signed permutations and its motions act in the algebra.  These plain
products check both against ordinary matrix algebra.
"""

from fractions import Fraction

from spinorlab import linalg


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
