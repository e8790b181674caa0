"""Exact verification problems: per-edge quartic times a sinusoid in time.

The spatial profile on each edge is w_e(x) = A x^4 + B x^3 + C x^2 +
D x + E with prescribed leading coefficients (A, B); the lower ones
(C, D, E) are solved from vertex continuity of w and vanishing signed
flux of a * w' at every interior vertex.  That linear system is
underdetermined, so the minimum-norm least-squares solution is taken
(LSMR on the sparse constraint rows), which is deterministic and
satisfies the constraints to machine precision whenever they are
consistent.

With y(x, t) = w(x) sin(2 pi t), the compatible source, boundary and
initial data follow by substitution into the equation, giving an exact
reference for convergence studies.  The same closed forms feed the
variance functional of the randomized solver, which measures the
mean-square mismatch between the true and the batch-rescaled operators
along the exact solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .decomposition import BatchFamily, SubgraphPartition, zeta_weights
from .errors import NumericalError, SolverError
from .fem import (
    GAUSS5,
    CoefficientSet,
    DofMap,
    Elements,
    Ends,
    Mesh,
    SeparableSource,
    interpolate,
    mass_matrix,
)
from .graph import MetricGraph

TWO_PI = 2.0 * np.pi
CONSTRAINT_TOL = 1e-8

# leading quartic/cubic coefficients per edge for the demonstration graph
DEMO_QUARTIC = (10.0, -3.0, 5.0, 4.0, 4.0, 10.0, -3.0, 5.0, -3.0, 4.0)
DEMO_CUBIC = (-12.0, 1.0, -7.0, -6.0, -6.0, -12.0, 1.0, -7.0, 1.0, -6.0)


class InconsistentConstraints(NumericalError):
    pass


def diffusion_coefficient(e: int, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x * (x - 1.0) + 0.5


def diffusion_coefficient_dx(e: int, x: np.ndarray) -> np.ndarray:
    return 2.0 * np.asarray(x, dtype=float) - 1.0


def convection_coefficient(e: int, x: np.ndarray) -> np.ndarray:
    return np.sin(np.pi * np.asarray(x, dtype=float)) / 2.0


def reaction_coefficient(e: int, x: np.ndarray) -> np.ndarray:
    return np.sin(np.pi * np.asarray(x, dtype=float))


def solve_lower_coefficients(
    graph: MetricGraph,
    a,
    alpha,
    beta,
) -> np.ndarray:
    """Solve for the per-edge (C, D, E) coefficients.

    Builds the constraint rows on the ``fem.Ends`` table as one sparse
    matrix: per interior vertex, in increasing order, one continuity row
    per end after its first (w there minus w at the first end), then one
    flux row.  Takes the minimum-norm least-squares solution of the
    underdetermined system with LSMR started from zero.  Returns an
    (n_edges, 3) array; raises InconsistentConstraints when no quartic
    family with the given leading coefficients can satisfy the vertex
    conditions.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.shape != (graph.n_edges,) or beta.shape != (graph.n_edges,):
        raise SolverError("need one leading quartic and cubic coefficient per edge")

    ends = Ends(graph)
    inner = np.flatnonzero(ends.interior[ends.vertex])
    if not inner.size:
        return np.zeros((graph.n_edges, 3))
    # the interior ends by vertex, in edge order within each; a vertex with d
    # ends owns d consecutive rows: the continuity row p - 1 of each end at a
    # position p after its first, then its flux row
    order = inner[np.argsort(ends.vertex[inner], kind="stable")]
    vertex = ends.vertex[order]
    flux_row = np.cumsum(np.bincount(vertex))[vertex] - 1
    later = np.flatnonzero(order != ends.first[vertex])
    own, ref = order[later], ends.first[vertex[later]]

    s, e = ends.coordinate, ends.edge
    # Python's float power: NumPy's SIMD power can differ from C pow in the last bit
    s2, s3, s4 = (np.array([c**k for c in s.tolist()]) for k in (2, 3, 4))
    # the (C, D, E) coefficients of w and w' at each end, and their fixed (A, B) parts
    value = np.stack([s * s, s, np.ones_like(s)], axis=1)
    slope = np.stack([2.0 * s, np.ones_like(s), np.zeros_like(s)], axis=1)
    value_const = alpha[e] * s4 + beta[e] * s3
    slope_const = 4.0 * alpha[e] * s3 + 3.0 * beta[e] * s2
    weight = ends.sign * ends.sample(a)

    rows = np.concatenate([later - 1, later - 1, flux_row]).repeat(3)
    cols = 3 * e[np.concatenate([own, ref, order])][:, None] + np.arange(3)
    values = np.concatenate([value[own], -value[ref], weight[order, None] * slope[order]])
    A = sp.csr_matrix((values.ravel(), (rows, cols.ravel())), shape=(len(order), 3 * graph.n_edges))
    b = np.empty(len(order))
    b[later - 1] = value_const[ref] - value_const[own]
    b[flux_row] = -np.bincount(vertex, (weight * slope_const)[order])[vertex]
    # from x0 = 0, LSMR tends to the minimum-norm solution and stops once its
    # residual tests reach machine precision; rounding can keep it a few steps
    # past the rank, beyond scipy's default cap of min(A.shape) iterations
    solution = spla.lsmr(A, b, atol=0.0, btol=0.0, maxiter=4 * min(A.shape))[0]
    residual = np.abs(A @ solution - b).max()
    if residual > CONSTRAINT_TOL:
        raise InconsistentConstraints(
            f"vertex constraints unsatisfiable, residual {residual:.3e}"
        )
    return solution.reshape(graph.n_edges, 3)


class ManufacturedSolution:
    """y(x, t) = w_e(x) sin(2 pi t) with solved vertex-compatible quartics."""

    def __init__(self, graph: MetricGraph, poly: np.ndarray, a, a_dx):
        self.graph = graph
        self.poly = np.asarray(poly, dtype=float)  # (n_edges, 5), highest degree first
        self.a = a
        self.a_dx = a_dx
        self._dpoly = np.stack([np.polyder(c) for c in self.poly])
        self._ddpoly = np.stack([np.polyder(c, 2) for c in self.poly])
        self._ends = Ends(graph)

    # spatial profile and derivatives
    def w(self, e: int, x) -> np.ndarray:
        return np.polyval(self.poly[e], np.asarray(x, dtype=float))

    def w_dx(self, e: int, x) -> np.ndarray:
        return np.polyval(self._dpoly[e], np.asarray(x, dtype=float))

    def w_dxx(self, e: int, x) -> np.ndarray:
        return np.polyval(self._ddpoly[e], np.asarray(x, dtype=float))

    # temporal factor
    @staticmethod
    def time_factor(t: float) -> float:
        return float(np.sin(TWO_PI * t))

    @staticmethod
    def time_factor_dt(t: float) -> float:
        return float(TWO_PI * np.cos(TWO_PI * t))

    def vertex_values(self) -> np.ndarray:
        """w at every vertex, read at the vertex's first end (its lowest-numbered edge)."""
        return self._ends.sample(self.w)[self._ends.first]

    def continuity_residual(self) -> float:
        """Largest spread (max - min) of w over the ends at an interior vertex."""
        ends = self._ends
        w = ends.sample(self.w)
        high = np.full(ends.n_vertices, -np.inf)
        low = np.full(ends.n_vertices, np.inf)
        np.maximum.at(high, ends.vertex, w)
        np.minimum.at(low, ends.vertex, w)
        return float((high - low)[ends.interior].max(initial=0.0))

    def kirchhoff_residual(self) -> float:
        """Largest |signed sum of a * w'| over the ends at an interior vertex."""
        ends = self._ends
        flux = ends.sums(ends.sample(self.a) * ends.sample(self.w_dx))
        return float(np.abs(flux).max(initial=0.0))


def build_solution(
    graph: MetricGraph,
    alpha,
    beta,
    a=None,
    a_dx=None,
) -> ManufacturedSolution:
    a = a if a is not None else diffusion_coefficient
    a_dx = a_dx if a_dx is not None else diffusion_coefficient_dx
    lower = solve_lower_coefficients(graph, a, alpha, beta)
    poly = np.column_stack([np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float), lower])
    return ManufacturedSolution(graph, poly, a, a_dx)


def demo_solution(graph: MetricGraph) -> ManufacturedSolution:
    """Solution with the stock leading coefficients of the 10-edge demo graph."""
    if graph.n_edges != len(DEMO_QUARTIC):
        raise SolverError("demo coefficients need the 10-edge demonstration graph")
    return build_solution(graph, DEMO_QUARTIC, DEMO_CUBIC)


def derive_data(solution: ManufacturedSolution, b=None, p=None) -> CoefficientSet:
    """Source, boundary and initial data that make the solution exact.

    f = dt y - d/dx(a dx y) + b dx y + p y, expanded through the product
    rule so only closed-form derivatives appear; the result is separable
    in space and time and is returned as such for fast load assembly.
    """
    b = b if b is not None else convection_coefficient
    p = p if p is not None else reaction_coefficient
    a, a_dx = solution.a, solution.a_dx

    def spatial_operator(e: int, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        wx = solution.w_dx(e, x)
        return (
            -(a_dx(e, x) * wx + a(e, x) * solution.w_dxx(e, x))
            + b(e, x) * wx
            + p(e, x) * solution.w(e, x)
        )

    source = SeparableSource(
        terms=(
            (solution.w, solution.time_factor_dt),
            (spatial_operator, solution.time_factor),
        )
    )
    vertex_w = solution.vertex_values()

    def boundary(t: float) -> np.ndarray:
        return vertex_w * solution.time_factor(t)

    return CoefficientSet(a=a, b=b, p=p, f=source, g=boundary, y0=None)


def manufactured_problem(graph: MetricGraph) -> tuple[ManufacturedSolution, CoefficientSet]:
    """Demo-graph solution plus its derived problem data."""
    solution = demo_solution(graph)
    return solution, derive_data(solution)


# elements per edge of the quadrature behind ``lambda_profile``
LAMBDA_ELEMENTS_PER_EDGE = 200

ERROR_BLOCK = 64  # states per block of a stacked error evaluation; bounds its scratch memory


def stacked_squared_error(block_fn, state, t):
    """Apply ``block_fn(states, times)`` to one state or a (k, n) stack of states.

    One state with a scalar time gives a float; a stack with k times gives
    a length-k array, evaluated in blocks of at most ERROR_BLOCK states.
    Results are clamped at 0, since a squared norm that rounds below zero
    is zero.
    """
    states = np.asarray(state, dtype=float)
    times = np.asarray(t, dtype=float)
    if states.ndim == 1:
        return max(float(block_fn(states[None, :], times.reshape(1))[0]), 0.0)
    if states.ndim != 2 or times.shape != (len(states),):
        raise SolverError("need one state with one time, or a (k, n) stack with k times")
    out = np.empty(len(states))
    for start in range(0, len(states), ERROR_BLOCK):
        rows = slice(start, start + ERROR_BLOCK)
        out[rows] = block_fn(states[rows], times[rows])
    return np.maximum(out, 0.0)


def mass_norms_sq(mass, diffs: np.ndarray) -> np.ndarray:
    """Row-wise d^T M d of a (k, n) stack of dof vectors."""
    return np.einsum("ij,ji->i", diffs, mass @ diffs.T)


class L2ErrorEvaluator:
    """Squared continuous L2 distance between y(., t) and P1 states.

    With v = sin(2 pi t), the nodal interpolant I w of the spatial profile
    and e = v I w - u, the error splits exactly as

        |v w - u|^2 = v^2 c + 2 v b^T e + e^T M e,

    where c = |w - I w|^2, b_i = (w - I w, phi_i) and M is the P1 mass
    matrix (``fem.mass_matrix``).  c and b are built once on the
    ``fem.GAUSS5`` element table of the mesh, which integrates them exactly
    for a quartic w; c is summed per edge, then over the edges in order.
    Every term is of the size of the error itself, so nothing cancels when
    the error is small; the unshifted v^2 |w|^2 - 2 v (w, phi)^T u + u^T M u loses
    digits to cancellation once the error is far below |w|^2.
    """

    def __init__(self, graph: MetricGraph, mesh: Mesh, dofmap: DofMap, solution: ManufacturedSolution):
        elements = Elements(graph, mesh, dofmap, GAUSS5)
        self._interpolant = interpolate(graph, mesh, dofmap, solution.w)
        pair = elements.pair
        remainder = elements.sample(solution.w) - self._interpolant[pair] @ elements.shape.T
        self._c = float(np.cumsum(elements.edge_sums(remainder * remainder))[-1])
        self._b = np.bincount(pair.ravel(), elements.loads(remainder).ravel(), minlength=dofmap.n_dofs)
        self._mass = mass_matrix(graph, mesh, dofmap)

    def squared_error(self, state: np.ndarray, t):
        """|y(., t) - u|^2 for one state (float) or a (k, n) stack with k times (array)."""
        return stacked_squared_error(self._squared_errors, state, t)

    def _squared_errors(self, states: np.ndarray, times: np.ndarray) -> np.ndarray:
        v = np.sin(TWO_PI * times)
        e = v[:, None] * self._interpolant - states
        return v * v * self._c + 2.0 * v * (e @ self._b) + mass_norms_sq(self._mass, e)


@dataclass(frozen=True)
class LambdaProfile:
    """Sampled variance functional and its trapezoidal L1 norm."""

    times: np.ndarray
    values: np.ndarray
    l1: float


def lambda_profile(
    solution: ManufacturedSolution,
    coeffs: CoefficientSet,
    partition: SubgraphPartition,
    family: BatchFamily,
    t_grid: np.ndarray,
) -> LambdaProfile:
    """Variance functional of the batch randomization along the exact solution.

    For each batch the four mean-square mismatch terms (diffusion flux,
    convection, reaction, source) reduce on every edge to a constant
    factor (1 - zeta)^2 times fixed spatial integrals of the exact
    solution, because the weights are constant on each edge.  The
    expectation is the exact finite sum over batches weighted by their
    probabilities; no sampling is involved.  The spatial integrals use the
    ``fem.GAUSS5`` element table of LAMBDA_ELEMENTS_PER_EDGE elements per
    edge.
    """
    graph = solution.graph
    t_grid = np.asarray(t_grid, dtype=float)
    mesh = Mesh(LAMBDA_ELEMENTS_PER_EDGE - 1)
    elements = Elements(graph, mesh, DofMap(graph, mesh, ()), GAUSS5)

    # per-edge spatial integrals of the exact solution's building blocks
    w = elements.sample(solution.w)
    wx = elements.sample(solution.w_dx)
    wxx = elements.sample(solution.w_dxx)
    flux = elements.sample(solution.a_dx) * wx + elements.sample(solution.a) * wxx
    conv = elements.sample(coeffs.b) * wx
    react = elements.sample(coeffs.p) * w
    lw = -flux + conv + react
    flux_sq = elements.edge_sums(flux**2)     # (d/dx(a w'))^2
    conv_sq = elements.edge_sums(conv**2)     # (b w')^2
    react_sq = elements.edge_sums(react**2)   # (p w)^2
    w_sq = elements.edge_sums(w**2)           # w^2
    w_lw = elements.edge_sums(w * lw)         # w * Lw
    lw_sq = elements.edge_sums(lw**2)         # Lw^2

    v = np.sin(TWO_PI * t_grid)
    v_dt = TWO_PI * np.cos(TWO_PI * t_grid)
    values = np.zeros_like(t_grid)
    for j in range(family.n_batches):
        kappa_sq = (1.0 - zeta_weights(partition, family, j).edge_factor) ** 2
        op_part = kappa_sq @ (flux_sq + conv_sq + react_sq)
        src_w = kappa_sq @ w_sq
        src_cross = kappa_sq @ w_lw
        src_lw = kappa_sq @ lw_sq
        values += family.probs[j] * (
            v**2 * (op_part + src_lw) + 2.0 * v * v_dt * src_cross + v_dt**2 * src_w
        )
    l1 = float(np.trapezoid(np.abs(values), t_grid))
    return LambdaProfile(times=t_grid, values=values, l1=l1)
