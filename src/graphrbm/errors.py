"""Base exceptions for everything raised by this package."""


class SolverError(Exception):
    """Common ancestor so callers can catch all package errors at once."""


class NumericalError(SolverError):
    """A numerical failure (singular system, nonelliptic data, unsatisfiable constraints)."""
