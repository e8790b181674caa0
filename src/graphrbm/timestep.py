"""One-step integrators for M u' + (K + C + P) u = F(t) and the sparse direct solve.

All four schemes are one IMEX-theta recurrence with an implicit operator A,
an explicit operator E and a weight theta:

    (M + dt*theta*A) u1 = (M - dt*(1-theta)*A - dt*E) u0 + dt*(theta*F1 + (1-theta)*F0)

    scheme   theta   A          E
    ie       1       K + C + P  0
    cn       1/2     K + C + P  0
    theta    theta   K + C + P  0
    siem     1       K          C + P

``imex_theta`` builds the two matrices lhs = M + dt*theta*A and
rhs = M - dt*(1-theta)*A - dt*E; ``step`` and the windowed solver both
step with them.  The step matrices only depend on the system, the scheme
and dt, so a StepWorkspace caches them and the factorization of lhs under
one key and reuses both across steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError

RESIDUAL_RTOL = 1e-10


class SingularSystem(SolverError):
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


class StepWorkspace:
    """Step matrices and factorizations, cached per (active system, scheme, dt) key."""

    def __init__(self):
        self._cache: dict = {}
        self._matrices: dict = {}

    def matrices(self, key, build):
        """Return the cached step matrices for ``key``, building them via ``build()``."""
        matrices = self._matrices.get(key)
        if matrices is None:
            matrices = build()
            self._matrices[key] = matrices
        return matrices

    def factorization(self, key, build):
        """Return the cached factorization for ``key``, computing it via ``build()``."""
        lu = self._cache.get(key)
        if lu is None:
            lu = _factorize(build())
            self._cache[key] = lu
        return lu

    def clear(self) -> None:
        self._cache.clear()
        self._matrices.clear()

    def __len__(self) -> int:
        """Number of cached factorizations."""
        return len(self._cache)


def _factorize(matrix: sp.spmatrix):
    try:
        lu = spla.splu(sp.csc_matrix(matrix))
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from exc
    return lu


def factor_nnz(lu) -> int:
    """Nonzeros of the triangular factors (memory proxy for the solve)."""
    nnz = getattr(lu, "nnz", None)
    if nnz is not None:
        return int(nnz)
    return int(lu.L.nnz + lu.U.nnz)


def solve_linear(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Direct sparse solve with a residual guard.

    Raises SingularSystem if factorization fails or the residual exceeds
    RESIDUAL_RTOL * (1 + ||b||_inf); this also catches near-singular
    systems that factor without an explicit error.
    """
    b = np.asarray(b, dtype=float)
    lu = _factorize(A)
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystem("solution contains non-finite entries")
    residual = np.abs(A @ x - b).max() if b.size else 0.0
    if residual > RESIDUAL_RTOL * (1.0 + np.abs(b).max(initial=0.0)):
        raise SingularSystem(f"residual {residual:.3e} too large, system near singular")
    return x


def imex_theta(scheme: SchemeKind, mass, stiffness, lower, dt: float):
    """The matrices (lhs, rhs) of one step: lhs = M + dt*theta*A, rhs = M - dt*(1-theta)*A - dt*E.

    ``lower`` is the lower-order part C + P (None for zero); the scheme
    decides whether it joins the stiffness in A or forms E.  The operators
    may be rectangular, as long as all three share one shape.
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
    return sp.csr_matrix(lhs), sp.csr_matrix(rhs)


def step(
    scheme: SchemeKind,
    mass: sp.spmatrix,
    spatial,
    f0: np.ndarray,
    f1: np.ndarray,
    u: np.ndarray,
    dt: float,
    workspace: StepWorkspace | None = None,
    key=None,
) -> np.ndarray:
    """Advance one step of M u' + S u = F with ``imex_theta``.

    ``spatial`` is the matrix S for the theta family, or the pair
    (stiffness, convection + reaction) for the semi-implicit scheme.
    ``f0``/``f1`` are the loads at the step's start and end times.
    """
    if dt <= 0.0:
        raise SolverError("dt must be positive")
    if scheme.name == "siem":
        if not isinstance(spatial, tuple) or len(spatial) != 2:
            raise SolverError(
                "semi-implicit stepping needs spatial=(stiffness, convection+reaction)"
            )
        stiffness, lower = spatial
    else:
        stiffness, lower = spatial, None
    ws = workspace if workspace is not None else StepWorkspace()
    cache_key = key if key is not None else ("step", scheme.label, dt)
    lhs, rhs = ws.matrices(cache_key, lambda: imex_theta(scheme, mass, stiffness, lower, dt))
    lu = ws.factorization(cache_key, lambda: lhs)
    theta = scheme.theta_value
    return lu.solve(rhs @ u + dt * (theta * f1 + (1.0 - theta) * f0))
