"""One-step integrators for M u' + (K + C + P) u = F(t) and the sparse direct solve.

All four schemes are one IMEX-theta recurrence with an implicit operator A,
an explicit operator E and a weight theta:

    (M + dt*theta*A) u1 = (M - dt*(1-theta)*A - dt*E) u0 + dt*(theta*F1 + (1-theta)*F0)

    scheme   theta   A          E
    ie       1       K + C + P  0
    cn       1/2     K + C + P  0
    theta    theta   K + C + P  0
    siem     1       K          C + P

``imex_theta`` forms lhs = M + dt*theta*A and rhs = M - dt*(1-theta)*A -
dt*E, of sparse matrices for ``step`` and of element blocks for the
windowed solver (``fem.step_pair``).  The step matrices only depend on the
system, the scheme and dt, so a StepWorkspace maps a key to one
``FactoredStep``: the factor of lhs, checked once to solve lhs x = lhs 1 to
a small residual, and rhs (W of ``fem.ReducedOperators`` for the windowed
solver).  An entry lives until its owner drops it: a runtime's entries, one
per (batch, scheme, dt), live as long as the runtime; ``step`` keeps only
its last system's entry, with that system's matrices pinned.

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

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError, SolverError

RESIDUAL_RTOL = 1e-10
PANEL_SIZE = 1  # columns per SuperLU panel; see the module docstring


class SingularSystem(NumericalError):
    pass


@dataclass(frozen=True)
class SchemeKind:
    """Time integration scheme tag; theta is set only for the theta method."""

    name: str
    theta: float | None = None

    def __post_init__(self):
        if self.name not in ("ie", "cn", "theta", "siem"):
            raise SolverError(f"unknown scheme {self.name!r}")
        if self.name == "theta":
            if self.theta is None or not 0.0 <= self.theta <= 1.0:
                raise SolverError("theta method needs theta in [0, 1]")
        elif self.theta is not None:
            raise SolverError(f"scheme {self.name!r} takes no theta parameter")

    @property
    def theta_value(self) -> float:
        """Weight of the implicit operator at the step's end time."""
        return {"ie": 1.0, "cn": 0.5, "theta": self.theta, "siem": 1.0}[self.name]

    @property
    def label(self) -> str:
        if self.name == "theta":
            return f"theta:{self.theta:g}"
        return self.name

    @staticmethod
    def parse(text: str) -> "SchemeKind":
        text = text.strip().lower()
        if text.startswith("theta"):
            _, _, value = text.partition(":")
            try:
                theta = float(value) if value else 0.5
            except ValueError:
                raise SolverError(f"theta must be a number, got {value!r}") from None
            return SchemeKind("theta", theta)
        return SchemeKind(text)


IMPLICIT_EULER = SchemeKind("ie")
CRANK_NICOLSON = SchemeKind("cn")
SEMI_IMPLICIT = SchemeKind("siem")


def theta_method(theta: float) -> SchemeKind:
    return SchemeKind("theta", float(theta))


@dataclass(frozen=True, eq=False)
class FactoredStep:
    """A cached step: ``solve`` by lhs's factor, its ``nnz``, ``rhs`` and the ``operands`` it pins."""

    solve: Callable[[np.ndarray], np.ndarray]
    nnz: int
    rhs: object
    operands: tuple = ()


class StepWorkspace(dict):
    """A map of key -> FactoredStep that only its owner empties.

    A runtime's entries live as long as the runtime; ``step`` keeps its last system's only.
    """

    def factorization(self, key, build) -> FactoredStep:
        """The entry for ``key``; a miss factors build() = (lhs, rhs, *operands) and keeps it, operands pinned."""
        if key not in self:
            self[key] = _factor_step(*build())
        return self[key]


def _factor_step(lhs: sp.spmatrix, rhs, *operands) -> FactoredStep:
    """Factor A = lhs, check the factor once by solving A x = A 1, and keep the factor with rhs and operands.

    Raises SingularSystem if the factorization fails, if x is not finite,
    or if the residual exceeds RESIDUAL_RTOL * (1 + ||A 1||_inf); the last
    two catch near-singular systems that factor without an explicit error.
    A CSC lhs, as ``fem.ReducedOperators.step_matrices`` gathers it, is
    factored without a copy; another format (``step``'s) is converted.
    The factor uses COLAMD and panels of PANEL_SIZE columns.
    """
    A = sp.csc_matrix(lhs)
    try:
        lu = spla.splu(A, panel_size=PANEL_SIZE)
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from exc
    b = A @ np.ones(A.shape[1])
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystem("factor check: solution contains non-finite entries")
    residual = np.abs(A @ x - b).max(initial=0.0)
    if residual > RESIDUAL_RTOL * (1.0 + np.abs(b).max(initial=0.0)):
        raise SingularSystem(f"factor check: residual {residual:.3e} too large, system near singular")
    return FactoredStep(lu.solve, lu.nnz, rhs, operands)


def factor_nnz(entry) -> int:
    """Nonzeros of the triangular factors (memory proxy for the solve)."""
    return int(entry.nnz)


def imex_theta(scheme: SchemeKind, mass, stiffness, lower, dt: float):
    """The operators (lhs, rhs) of one step: lhs = M + dt*theta*A, rhs = M - dt*(1-theta)*A - dt*E.

    ``lower`` is the lower-order part C + P (None for zero); the scheme
    decides whether it joins the stiffness in A or forms E.  The operators
    are sparse matrices or element-block stacks, of one shape, which may
    be rectangular; lhs and rhs are of the same kind.
    """
    if scheme.name == "siem":
        implicit, explicit = stiffness, lower
    else:
        implicit = stiffness if lower is None else stiffness + lower
        explicit = None
    theta = scheme.theta_value
    lhs = mass + (dt * theta) * implicit
    rhs = mass
    if theta != 1.0:
        rhs = rhs - (dt * (1.0 - theta)) * implicit
    if explicit is not None:
        rhs = rhs - dt * explicit
    return lhs, rhs


def step(
    scheme: SchemeKind,
    mass: sp.spmatrix,
    spatial,
    f0: np.ndarray,
    f1: np.ndarray,
    u: np.ndarray,
    dt: float,
    workspace: StepWorkspace | None = None,
) -> np.ndarray:
    """Advance one step of M u' + S u = F with ``imex_theta``.

    ``spatial`` is the matrix S for the theta family, or the pair
    (stiffness, convection + reaction) for the semi-implicit scheme.
    ``f0``/``f1`` are the loads at the step's start and end times.  A
    workspace keeps the factor of lhs and rhs of the last system only,
    under the scheme label, dt and the identities of ``mass`` and the
    spatial matrices, which its entry pins so no id is reused while it
    lives; a step on another system empties the workspace first.  Without
    one, lhs is factored anew and nothing is kept.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise SolverError(f"dt must be a positive finite number, got {dt}")
    if scheme.name == "siem":
        if not isinstance(spatial, tuple) or len(spatial) != 2:
            raise SolverError(
                "semi-implicit stepping needs spatial=(stiffness, convection+reaction)"
            )
        stiffness, lower = spatial
    else:
        stiffness, lower = spatial, None
    if workspace is None:
        entry = _factor_step(*imex_theta(scheme, mass, stiffness, lower, dt))
    else:
        system = (mass, stiffness, lower)
        key = ("step", scheme.label, dt, *map(id, system))
        if key not in workspace:
            workspace.clear()
        entry = workspace.factorization(key, lambda: (*imex_theta(scheme, mass, stiffness, lower, dt), *system))
    theta = scheme.theta_value
    return entry.solve(entry.rhs @ u + dt * (theta * f1 + (1.0 - theta) * f0))
