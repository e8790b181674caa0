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
from .fem import CoefficientSet, DofMap, Mesh, SeparableSource, interpolate, mass_matrix
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

    Builds one continuity row per extra adjacent edge and one flux row
    per interior vertex as one sparse matrix, then takes the minimum-norm
    least-squares solution of the underdetermined system with LSMR started
    from zero.  Returns an (n_edges, 3) array; raises
    InconsistentConstraints when no quartic family with the given leading
    coefficients can satisfy the vertex conditions.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.shape != (graph.n_edges,) or beta.shape != (graph.n_edges,):
        raise SolverError("need one leading quartic and cubic coefficient per edge")

    rows: list[int] = []
    cols: list[int] = []
    values: list[float] = []
    rhs: list[float] = []

    def value_parts(e: int, s: float):
        # coefficients of (C, D, E) and the fixed (A, B) contribution of w(s)
        return (s * s, s, 1.0), alpha[e] * s**4 + beta[e] * s**3

    def slope_parts(e: int, s: float):
        return (2.0 * s, 1.0, 0.0), 4.0 * alpha[e] * s**3 + 3.0 * beta[e] * s**2

    def add(e: int, coeff, weight: float) -> None:
        # entries of row len(rhs) on edge e's three unknowns; duplicates add up
        rows.extend([len(rhs)] * 3)
        cols.extend(range(3 * e, 3 * e + 3))
        values.extend(weight * c for c in coeff)

    for v in sorted(graph.interior_vertices):
        adjacent = graph.adjacency(v)
        ref = adjacent[0]
        ref_coeff, ref_const = value_parts(ref, graph.endpoint_coordinate(ref, v))
        for e in adjacent[1:]:
            coeff, const = value_parts(e, graph.endpoint_coordinate(e, v))
            add(e, coeff, 1.0)
            add(ref, ref_coeff, -1.0)
            rhs.append(ref_const - const)
        flux_const = 0.0
        for e in adjacent:
            s = graph.endpoint_coordinate(e, v)
            coeff, const = slope_parts(e, s)
            weight = graph.incidence(e, v) * float(a(e, np.array([s]))[0])
            add(e, coeff, weight)
            flux_const += weight * const
        rhs.append(-flux_const)

    if not rhs:
        return np.zeros((graph.n_edges, 3))
    A = sp.csr_matrix((values, (rows, cols)), shape=(len(rhs), 3 * graph.n_edges))
    b = np.asarray(rhs)
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
        """w at every vertex, read through the first adjacent edge."""
        out = np.zeros(self.graph.n_vertices)
        for v in range(self.graph.n_vertices):
            e = self.graph.adjacency(v)[0]
            s = self.graph.endpoint_coordinate(e, v)
            out[v] = float(self.w(e, s))
        return out

    def continuity_residual(self) -> float:
        """Largest spread of w across the edges meeting at an interior vertex."""
        worst = 0.0
        for v in self.graph.interior_vertices:
            vals = [
                float(self.w(e, self.graph.endpoint_coordinate(e, v)))
                for e in self.graph.adjacency(v)
            ]
            worst = max(worst, max(vals) - min(vals))
        return worst

    def kirchhoff_residual(self) -> float:
        """Largest signed flux sum of a * w' over interior vertices."""
        worst = 0.0
        for v in self.graph.interior_vertices:
            total = 0.0
            for e in self.graph.adjacency(v):
                s = self.graph.endpoint_coordinate(e, v)
                total += (
                    float(self.a(e, np.array([s]))[0])
                    * float(self.w_dx(e, s))
                    * self.graph.incidence(e, v)
                )
            worst = max(worst, abs(total))
        return worst


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


# the 5-point Gauss rule on the reference element [0, 1]: exact through degree 9
_GAUSS5_NODES, _GAUSS5_WEIGHTS = np.polynomial.legendre.leggauss(5)
_TAU5 = 0.5 * (1.0 + _GAUSS5_NODES)
_WEIGHTS5 = 0.5 * _GAUSS5_WEIGHTS
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
    matrix (``fem.mass_matrix``).  c and b are built once with the 5-point
    rule per mesh element, which integrates them exactly for a quartic w.
    Every term is of the size of the error itself, so nothing cancels when
    the error is small; the unshifted v^2 |w|^2 - 2 v (w, phi)^T u + u^T M u loses
    digits to cancellation once the error is far below |w|^2.
    """

    def __init__(self, graph: MetricGraph, mesh: Mesh, dofmap: DofMap, solution: ManufacturedSolution):
        tau, wref = _TAU5, _WEIGHTS5
        shape = np.stack([1.0 - tau, tau])  # (2, 5): the two hat functions
        self._interpolant = interpolate(graph, mesh, dofmap, solution.w)
        c = 0.0
        pairs, b_local = [], []
        for e in range(graph.n_edges):
            dx = mesh.spacing(graph, e)
            xq = dx * np.arange(mesh.nodes_per_edge + 1)[:, None] + dx * tau[None, :]
            edofs = dofmap.edge_dofs(e)
            pair = np.stack([edofs[:-1], edofs[1:]], axis=1)
            wq = wref * dx
            remainder = solution.w(e, xq.ravel()).reshape(xq.shape) - self._interpolant[pair] @ shape
            c += float(((remainder * remainder) * wq).sum())
            pairs.append(pair)
            b_local.append((remainder * wq) @ shape.T)
        pair = np.concatenate(pairs)
        self._c = c
        self._b = np.bincount(pair.ravel(), np.concatenate(b_local).ravel(), minlength=dofmap.n_dofs)
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
    5-point rule on LAMBDA_ELEMENTS_PER_EDGE elements per edge.
    """
    graph = solution.graph
    t_grid = np.asarray(t_grid, dtype=float)
    tau, wref = _TAU5, _WEIGHTS5

    # per-edge spatial integrals of the exact solution's building blocks
    flux_sq = np.zeros(graph.n_edges)     # (d/dx(a w'))^2
    conv_sq = np.zeros(graph.n_edges)     # (b w')^2
    react_sq = np.zeros(graph.n_edges)    # (p w)^2
    w_sq = np.zeros(graph.n_edges)        # w^2
    w_lw = np.zeros(graph.n_edges)        # w * Lw
    lw_sq = np.zeros(graph.n_edges)       # Lw^2
    for e in range(graph.n_edges):
        length = graph.edges[e].length
        dx = length / LAMBDA_ELEMENTS_PER_EDGE
        left = dx * np.arange(LAMBDA_ELEMENTS_PER_EDGE)
        xq = (left[:, None] + dx * tau[None, :]).ravel()
        wq = np.tile(wref * dx, LAMBDA_ELEMENTS_PER_EDGE)
        w = solution.w(e, xq)
        wx = solution.w_dx(e, xq)
        flux = solution.a_dx(e, xq) * wx + solution.a(e, xq) * solution.w_dxx(e, xq)
        conv = coeffs.b(e, xq) * wx
        react = coeffs.p(e, xq) * w
        lw = -flux + conv + react
        flux_sq[e] = (flux**2) @ wq
        conv_sq[e] = (conv**2) @ wq
        react_sq[e] = (react**2) @ wq
        w_sq[e] = (w**2) @ wq
        w_lw[e] = (w * lw) @ wq
        lw_sq[e] = (lw**2) @ wq

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
