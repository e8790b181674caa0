"""Base exceptions for everything raised by this package, and its integer input rule."""

import operator


class SolverError(Exception):
    """Common ancestor so callers can catch all package errors at once."""


class NumericalError(SolverError):
    """A numerical failure (singular system, nonelliptic data, unsatisfiable constraints)."""


def integer(value, what: str, error: type[SolverError]) -> int:
    """``value``, a Python or NumPy integer, as a Python int; ``error`` naming ``what`` for a float, never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, not {value!r}") from None
