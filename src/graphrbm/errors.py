"""Base exceptions for everything raised by this package, and its two input rules: ``integer`` and ``number``."""

import numbers


class SolverError(Exception):
    """Common ancestor so callers can catch all package errors at once."""


class NumericalError(SolverError):
    """A numerical failure (singular system, nonelliptic data, unsatisfiable constraints)."""


def integer(value, what: str, error: type[SolverError]) -> int:
    """``value``, a Python or NumPy integer, as a Python int; ``error`` naming ``what`` otherwise, so 1.9 is never truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):  # bool is an int: True would read as 1
        raise error(f"{what} must be an integer, not {value!r}")
    return int(value)


def number(value, what: str, error: type[SolverError]) -> float:
    """``value``, a Python or NumPy real number, as a Python float; ``error`` naming ``what`` otherwise or if it overflows a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # float() would read the string "2" as 2.0
        raise error(f"{what} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{what} is too large for a float") from None
