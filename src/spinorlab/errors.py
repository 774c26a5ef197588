"""Exceptions shared across the package."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed.

    Raised when a computation contradicts an identity that the chosen sign
    conventions guarantee (e.g. a rotated vector y with s x != y s, or a
    point matrix whose square is not Q(x) I).  Seeing this exception means a convention bug, not
    bad user input; bad input raises ValueError.
    """
