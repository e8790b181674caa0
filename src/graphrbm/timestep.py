"""The step operators of M u' + (K + C + P) u = F(t) and their checked sparse factor.

All four schemes are one IMEX-theta recurrence with an implicit operator A,
an explicit operator E and a weight theta:

    (M + dt*theta*A) u1 = (M - dt*(1-theta)*A - dt*E) u0 + dt*(theta*F1 + (1-theta)*F0)

    scheme   theta   A          E
    ie       1       K + C + P  0
    cn       1/2     K + C + P  0
    theta    theta   K + C + P  0
    siem     1       K          C + P

``imex_theta`` forms lhs = M + dt*theta*A and rhs = M - dt*(1-theta)*A -
dt*E, of sparse matrices or of element blocks (``fem.step_pair``).  The one
stepping kernel is the engine's windowed loop (``engine._advance``).  The
step matrices only depend on the system, the scheme and dt, so a
StepWorkspace maps a key to one ``FactoredStep``, built once: it factors
lhs on construction and keeps rhs (W of ``fem.ReducedOperators``).  The
factor is checked on its first solve, the first real step, which must
solve lhs x = b to a small residual, lhs x formed by SciPy's compiled
``csc_matvec``; lhs is kept for that check only, and an entry that fails it
stays under its key and fails on every solve.  A key whose lhs SuperLU
rejects outright keeps that failure, so no later lookup builds it again.  A
step is ``entry.solve(entry.rhs @ z)``, with the product formed into a
run's own buffer (``engine._StepRecord``).  The workspace's owner, the
runtime, keeps one entry per (batch, scheme, dt) for its life.

SuperLU factors lhs with its default COLAMD column order and a panel one
column wide (PANEL_SIZE).  Almost every supernode of a P1 system on a
metric graph is one column wide, so a wider panel groups columns that share
no supernode and only costs time: on binary trees of 50 and 20 nodes per
edge, width 1 factors every batch in 0.68 and 0.82 of the default's time.  The
factor is the default one: the panel width changes neither the column
order, nor the row pivots, nor the nonzero pattern, so ``nnz`` and the
memory proxy are unchanged.  It changes only the order in which the
updates of earlier supernodes are summed into a column, so a value of
the factor, and of a solve, may differ from the default factor's in its
last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse._sparsetools import csc_matvec

from .errors import NumericalError, SolverError, number

RESIDUAL_RTOL = 1e-10
PANEL_SIZE = 1  # columns per SuperLU panel; see the module docstring
DEFAULT_THETA = 0.75  # the weight of a bare ``theta`` scheme


class SingularSystem(NumericalError):
    pass


@dataclass(frozen=True)
class SchemeKind:
    """Time integration scheme tag; theta is set only for the theta method, and held as a Python float."""

    name: str
    theta: float | None = None

    def __post_init__(self):
        if self.name not in ("ie", "cn", "theta", "siem"):
            raise SolverError(f"unknown scheme {self.name!r}")
        if self.name == "theta":
            object.__setattr__(self, "theta", number(self.theta, "theta", SolverError))
            if not 0.0 <= self.theta <= 1.0:
                raise SolverError("theta method needs theta in [0, 1]")
        elif self.theta is not None:
            raise SolverError(f"scheme {self.name!r} takes no theta parameter")

    @property
    def theta_value(self) -> float:
        """Weight of the implicit operator at the step's end time."""
        return {"ie": 1.0, "cn": 0.5, "theta": self.theta, "siem": 1.0}[self.name]

    @property
    def label(self) -> str:
        """The scheme's name for output; it prints theta with ``:g``, so no cache keys on it."""
        if self.name == "theta":
            return f"theta:{self.theta:g}"
        return self.name

    @staticmethod
    def parse(text: str) -> "SchemeKind":
        """The scheme ``ie``, ``cn``, ``siem``, ``theta`` (weight ``DEFAULT_THETA``) or ``theta:W``; SolverError otherwise."""
        name, colon, value = text.strip().lower().partition(":")
        theta = DEFAULT_THETA
        if name == "theta" and colon:
            try:
                theta = float(value)
            except ValueError:
                raise SolverError(f"theta must be a number, got {value!r}") from None
        elif colon:
            raise SolverError(f"unknown scheme {text.strip()!r}")
        return SchemeKind(name, theta) if name == "theta" else SchemeKind(name)


IMPLICIT_EULER = SchemeKind("ie")
CRANK_NICOLSON = SchemeKind("cn")
SEMI_IMPLICIT = SchemeKind("siem")


def theta_method(theta: float) -> SchemeKind:
    return SchemeKind("theta", theta)


class FactoredStep:
    """A cached step: ``solve`` by lhs's factor, its ``nnz`` and ``rhs``; ``lhs`` until the factor is checked.

    ``FactoredStep(lhs, rhs)`` factors lhs with SuperLU (COLAMD, panels
    of PANEL_SIZE columns) and raises SingularSystem if that fails.  A CSC
    lhs, as ``fem.ReducedOperators.step_matrices`` gathers it, goes to
    SuperLU as it is; another format is converted.

    The first call of ``solve`` checks the factor on the system it solves,
    lhs x = b, before x is returned, so no caller reads an unchecked
    solution.  It raises SingularSystem if x is not finite or if the
    residual exceeds RESIDUAL_RTOL * (1 + ||b||_inf); these catch
    near-singular systems that factor without an explicit error.  The
    residual is lhs x - b bit for bit: SciPy's ``csc_matvec``, the routine
    behind ``lhs @ x``, adds lhs x into a zeroed array, from which b is
    subtracted in place.  A b that
    is all zero shows nothing (x = 0 solves it whatever the factor), so
    then the check solves lhs x = lhs 1 instead.  A factor that passes
    drops lhs, and ``solve`` becomes the factor's own, an instance
    attribute that shadows the method, so later solves call SuperLU
    directly; one that fails keeps lhs and fails again on every later call.
    """

    def __init__(self, lhs: sp.spmatrix, rhs):
        A = lhs if lhs.format == "csc" else sp.csc_matrix(lhs)
        try:
            self._lu = spla.splu(A, panel_size=PANEL_SIZE)
        except RuntimeError as exc:
            raise SingularSystem(str(exc)) from exc
        self.nnz = self._lu.nnz
        self.rhs = rhs
        self.lhs = A

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = self._lu.solve(b)
        if self.lhs is not None:  # else a solve bound before the check passed
            self._check(b, x)
        return x

    def _check(self, b: np.ndarray, x: np.ndarray) -> None:
        lhs = self.lhs
        if not b.any():
            b = lhs @ np.ones(lhs.shape[1])
            x = self._lu.solve(b)
        if not np.isfinite(x).all():
            raise SingularSystem("factor check: solution contains non-finite entries")
        # bit for bit lhs @ x - b, as lhs @ x is csc_matvec into a fresh zeroed array
        r = np.zeros(lhs.shape[0], dtype=np.result_type(lhs.dtype, x.dtype))
        csc_matvec(*lhs.shape, lhs.indptr, lhs.indices, lhs.data, x, r)
        np.subtract(r, b, out=r)
        residual = np.maximum.reduce(np.abs(r, out=r), initial=0.0)
        if residual > RESIDUAL_RTOL * (1.0 + np.maximum.reduce(np.abs(b), initial=0.0)):
            raise SingularSystem(f"factor check: residual {residual:.3e} too large, system near singular")
        self.lhs = None
        self.solve = self._lu.solve


class StepWorkspace(dict):
    """A map of key -> FactoredStep that only its owner empties; a runtime's entries live as long as it does.

    Each key is built once, since the same matrix would factor to the same
    factor: an entry whose factor fails its check (``FactoredStep.solve``)
    stays under its key and fails again on every later solve, and a key
    whose lhs SuperLU itself rejects keeps that SingularSystem, which every
    later lookup raises again.
    """

    def factorization(self, key, build) -> FactoredStep:
        """The entry for ``key``; a miss factors build() = (lhs, rhs) and keeps it, or keeps SuperLU's refusal."""
        entry = self.get(key)
        if entry is None:
            lhs, rhs = build()
            try:
                entry = self[key] = FactoredStep(lhs, rhs)
            except SingularSystem as exc:
                # kept without its traceback, whose frames would keep the rejected matrices alive
                self[key] = SingularSystem(*exc.args)
                raise
        elif isinstance(entry, SingularSystem):
            raise SingularSystem(*entry.args)
        return entry


def factor_nnz(entry) -> int:
    """Nonzeros of the triangular factors (memory proxy for the solve)."""
    return int(entry.nnz)


def imex_theta(scheme: SchemeKind, mass, stiffness, lower, dt: float):
    """The operators (lhs, rhs) of one step: lhs = M + dt*theta*A, rhs = M - dt*(1-theta)*A - dt*E.

    ``lower`` is the lower-order part C + P; the scheme decides whether it
    joins the stiffness in A or forms E.  The operators are sparse matrices
    or element-block stacks, of one shape, which may be rectangular; lhs
    and rhs are of the same kind.
    """
    if scheme.name == "siem":
        implicit, explicit = stiffness, lower
    else:
        implicit, explicit = stiffness + lower, None
    theta = scheme.theta_value
    lhs = mass + (dt * theta) * implicit
    rhs = mass
    if theta != 1.0:
        rhs = rhs - (dt * (1.0 - theta)) * implicit
    if explicit is not None:
        rhs = rhs - dt * explicit
    return lhs, rhs

