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

The profile and its derivatives (``EdgePolynomial``), the stock
coefficients (``SameOnEveryEdge``) and the source's spatial term
(``SpatialOperator``) are edge functions with a table form, so
``fem.on_edges`` samples each of them on a whole table in one call.
The error of a P1 state against the solution (``L2ErrorEvaluator``) is
measured on a ``fem.GAUSS3`` element table, whose dof map carries the
graph and the mesh of the states.
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
    on_edges,
)
from .graph import MetricGraph

TWO_PI = 2.0 * np.pi
CONSTRAINT_TOL = 1e-8

# leading quartic/cubic coefficients per edge for the demonstration graph
DEMO_QUARTIC = (10.0, -3.0, 5.0, 4.0, 4.0, 10.0, -3.0, 5.0, -3.0, 4.0)
DEMO_CUBIC = (-12.0, 1.0, -7.0, -6.0, -6.0, -12.0, 1.0, -7.0, 1.0, -6.0)


class InconsistentConstraints(NumericalError):
    pass


class SameOnEveryEdge:
    """An edge function ``fn(e, x) = profile(x)`` that ignores e, with its table form.

    ``on_edges(edges, x)`` is ``profile`` on the whole table at once: an
    elementwise profile gives every row bitwise what the per-edge call gives.
    """

    def __init__(self, profile):
        self.profile = profile

    def __repr__(self) -> str:
        return f"SameOnEveryEdge({self.profile.__name__})"

    def __call__(self, e: int, x) -> np.ndarray:
        return self.profile(np.asarray(x, dtype=float))

    def on_edges(self, edges: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self.profile(np.asarray(x, dtype=float))


# the stock profiles work in the one array each allocates and never write to x
@SameOnEveryEdge
def diffusion_coefficient(x: np.ndarray) -> np.ndarray:
    y = x - 1.0
    y *= x
    y += 0.5
    return y


@SameOnEveryEdge
def diffusion_coefficient_dx(x: np.ndarray) -> np.ndarray:
    y = 2.0 * x
    y -= 1.0
    return y


@SameOnEveryEdge
def convection_coefficient(x: np.ndarray) -> np.ndarray:
    y = np.pi * x
    np.sin(y, out=y)
    y /= 2.0
    return y


@SameOnEveryEdge
def reaction_coefficient(x: np.ndarray) -> np.ndarray:
    y = np.pi * x
    np.sin(y, out=y)
    return y


class EdgePolynomial:
    """One polynomial per edge: row e of ``coeffs`` (highest degree first) on edge e."""

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs

    def __call__(self, e: int, x) -> np.ndarray:
        return np.polyval(self.coeffs[e], np.asarray(x, dtype=float))

    def on_edges(self, edges: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Horner over every row at once, in place and started from zeros as ``np.polyval`` is: bitwise its per-edge values."""
        coeffs = self.coeffs[edges]
        y = np.zeros_like(x, dtype=float)
        for k in range(coeffs.shape[1]):
            y *= x
            y += coeffs[:, k, None]
        return y


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
        # spatial profile and derivatives: edge functions with a table form
        self.w = EdgePolynomial(self.poly)
        self.w_dx = EdgePolynomial(np.stack([np.polyder(c) for c in self.poly]))
        self.w_dxx = EdgePolynomial(np.stack([np.polyder(c, 2) for c in self.poly]))
        self._ends = Ends(graph)

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


def build_solution(graph: MetricGraph, alpha, beta) -> ManufacturedSolution:
    """The solution of leading coefficients ``alpha``, ``beta`` per edge, with the stock diffusion coefficient."""
    lower = solve_lower_coefficients(graph, diffusion_coefficient, alpha, beta)
    poly = np.column_stack([np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float), lower])
    return ManufacturedSolution(graph, poly, diffusion_coefficient, diffusion_coefficient_dx)


def demo_solution(graph: MetricGraph) -> ManufacturedSolution:
    """Solution with the stock leading coefficients of the 10-edge demo graph."""
    if graph.n_edges != len(DEMO_QUARTIC):
        raise SolverError(
            "the built-in manufactured problem needs the 10-edge demo graph; "
            "use the library API to supply leading coefficients for other graphs"
        )
    return build_solution(graph, DEMO_QUARTIC, DEMO_CUBIC)


class SpatialOperator:
    """-(a w')' + b w' + p w, the solution's spatial term of the source, as an edge function.

    Its table form samples each part with ``fem.on_edges``, so a part
    without a table form (a user's plain b, say) is called per edge, and
    only that part.  ``fem.assemble`` calls ``from_samples`` with its own
    sampler instead, which samples a part it already holds no second time.
    """

    def __init__(self, solution: ManufacturedSolution, b, p):
        self.solution = solution
        self.b = b
        self.p = p

    def from_samples(self, sample) -> np.ndarray:
        """The operator from ``sample(fn)``, the samples of each part on one table.

        -(a' w' + a w'') + b w' + p w, summed in that order in two arrays of
        its own, so no sample is written to.
        """
        solution = self.solution
        wx = sample(solution.w_dx)
        out = sample(solution.a_dx) * wx
        term = sample(solution.a) * sample(solution.w_dxx)
        out += term
        np.negative(out, out=out)
        out += np.multiply(sample(self.b), wx, out=term)
        out += np.multiply(sample(self.p), sample(solution.w), out=term)
        return out

    def __call__(self, e: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.from_samples(lambda fn: fn(e, x))

    def on_edges(self, edges: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self.from_samples(lambda fn: on_edges(fn, edges, x))


def derive_data(solution: ManufacturedSolution, b=None, p=None) -> CoefficientSet:
    """Source, boundary and initial data that make the solution exact.

    f = dt y - d/dx(a dx y) + b dx y + p y, expanded through the product
    rule so only closed-form derivatives appear; the result is separable
    in space and time and is returned as such for fast load assembly.
    """
    b = b if b is not None else convection_coefficient
    p = p if p is not None else reaction_coefficient
    source = SeparableSource(
        terms=(
            (solution.w, solution.time_factor_dt),
            (SpatialOperator(solution, b, p), solution.time_factor),
        )
    )
    vertex_w = solution.vertex_values()

    def boundary(t: float) -> np.ndarray:
        return vertex_w * solution.time_factor(t)

    return CoefficientSet(a=solution.a, b=b, p=p, f=source, g=boundary, y0=None)


def manufactured_problem(graph: MetricGraph) -> tuple[ManufacturedSolution, CoefficientSet]:
    """Demo-graph solution plus its derived problem data."""
    solution = demo_solution(graph)
    return solution, derive_data(solution)


# elements per edge of the quadrature behind ``lambda_profile``
LAMBDA_ELEMENTS_PER_EDGE = 200

# bytes of each scratch array of one block error evaluation: 64 states of the
# demo at Mesh(100), 1 of the depth-9 tree at Mesh(50)
ERROR_BLOCK = 512 * 1024


def checked_block(states, times, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``states`` as a (k, n) float block of at most ``rows`` states, with its k ``times``; SolverError otherwise."""
    states = np.asarray(states, dtype=float)
    times = np.asarray(times, dtype=float)
    if states.ndim != 2 or times.shape != (len(states),) or len(states) > rows:
        raise SolverError(f"need a (k, n) block of at most {rows} states with k times")
    return states, times


class ElementMassNorms:
    """Row-wise e^T M e of blocks of dof vectors, summed from the 2x2 mass blocks of an element table.

    The elements of an edge form a chain, each sharing its right node with
    the next one's left node, so the table's nodes are laid out once as
    chains: an element's two nodes sit at positions p and p + 1.  Then

        e^T M e = sum_p d_p s_p^2 + sum_p c_p s_p s_(p+1),  s = e at the chain nodes,

    with d_p the m00 and m11 of the elements at node p and c_p = 2 m01 of
    the element from p to p + 1 (0 where a chain ends): per row one gather,
    two products and two matrix-vector sums.  A block holds at most
    ``rows`` vectors, as many as keep each (rows, chain length) or
    (rows, n_dofs) array within ERROR_BLOCK bytes, and at least one; the
    gather and the products run in two such arrays that the object owns
    for its life, and only the k row sums are allocated.
    """

    def __init__(self, elements: Elements):
        pair, mass = elements.pair, elements.mass
        starts = np.concatenate(([True], pair[1:, 0] != pair[:-1, 1]))
        left = np.arange(len(pair)) + np.cumsum(starts) - 1  # each element's left node's position
        length = len(pair) + int(starts.sum())
        self._nodes = np.empty(length, dtype=np.intp)
        self._nodes[left], self._nodes[left + 1] = pair[:, 0], pair[:, 1]
        both = np.concatenate([left, left + 1])
        self._squares = np.bincount(both, np.concatenate([mass[:, 0, 0], mass[:, 1, 1]]), minlength=length)
        self._products = np.zeros(length - 1)
        self._products[left] = 2.0 * mass[:, 0, 1]
        self.rows = max(1, ERROR_BLOCK // (8 * max(length, elements.n_dofs)))
        self._chain = np.empty((self.rows, length))
        self._pairs = np.empty((self.rows, length - 1))

    def __call__(self, e: np.ndarray) -> np.ndarray:
        """e^T M e for each row of a (k, n_dofs) block, k at most ``rows``."""
        k = len(e)
        chain, pairs = self._chain[:k], self._pairs[:k]
        # mode="clip" writes straight into out; the default mode gathers into a temporary first
        np.take(e, self._nodes, axis=1, out=chain, mode="clip")
        np.multiply(chain[:, :-1], chain[:, 1:], out=pairs)
        np.multiply(chain, chain, out=chain)
        return chain @ self._squares + pairs @ self._products


class L2ErrorEvaluator:
    """Squared continuous L2 distance between y(., t) and P1 states.

    With v = sin(2 pi t), the nodal interpolant I w of the spatial profile
    and e = v I w - u, the error splits exactly as

        |v w - u|^2 = v^2 c + 2 v b^T e + e^T M e,

    where c = |w - I w|^2, b_i = (w - I w, phi_i) and M is the P1 mass
    matrix.  ``elements`` is a ``fem.GAUSS3`` element table, such as a
    runtime's own (``runtime.elements.elements``); its dof map carries the
    graph and mesh.  c and b are built once on the ``fem.GAUSS5`` table of
    that dof map, which integrates them exactly for a quartic w; c is
    summed per edge, then over the edges in order.  e^T M e is summed from
    the mass blocks of ``elements`` (``ElementMassNorms``); no mass matrix
    is assembled.
    Every term is of the size of the error itself, so nothing cancels when
    the error is small; the unshifted v^2 |w|^2 - 2 v (w, phi)^T u + u^T M u loses
    digits to cancellation once the error is far below |w|^2.

    ``squared_error`` takes one block of at most ``block_rows`` states, and
    e is formed in a (block_rows, n_dofs) array the evaluator keeps for its
    life; ``engine.ErrorAccumulator`` cuts a run's states into such blocks.
    """

    def __init__(self, elements: Elements, solution: ManufacturedSolution):
        dofmap = elements.dofmap
        table = Elements(dofmap, GAUSS5)
        self._interpolant = interpolate(dofmap, solution.w)
        pair = table.pair
        remainder = self._interpolant[pair] @ table.shape.T
        np.subtract(table.sample(solution.w), remainder, out=remainder)
        self._b = np.bincount(pair.ravel(), table.loads(remainder).ravel(), minlength=dofmap.n_dofs)
        self._c = float(np.cumsum(table.edge_sums(np.square(remainder, out=remainder)))[-1])
        self._mass = ElementMassNorms(elements)
        self.n_dofs = dofmap.n_dofs
        self.block_rows = self._mass.rows
        self._e = np.empty((self.block_rows, self.n_dofs))

    def squared_error(self, states: np.ndarray, times) -> np.ndarray:
        """|y(., t_i) - u_i|^2 for each row u_i of a (k, n) block with its k times, k at most ``block_rows``.

        Clamped at 0, since a squared norm that rounds below zero is zero;
        SolverError for a 1-d state, a larger block or a times array not of length k.
        """
        states, times = checked_block(states, times, self.block_rows)
        v = np.sin(TWO_PI * times)
        e = self._e[: len(states)]
        np.multiply(v[:, None], self._interpolant, out=e)
        e -= states
        return np.maximum(v * v * self._c + 2.0 * v * (e @ self._b) + self._mass(e), 0.0)


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
    elements = Elements(DofMap(graph, Mesh(LAMBDA_ELEMENTS_PER_EDGE - 1)), GAUSS5)

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
        kappa_sq = (1.0 - zeta_weights(partition, family, j)) ** 2
        op_part = kappa_sq @ (flux_sq + conv_sq + react_sq)
        src_w = kappa_sq @ w_sq
        src_cross = kappa_sq @ w_lw
        src_lw = kappa_sq @ lw_sq
        values += family.probs[j] * (
            v**2 * (op_part + src_lw) + 2.0 * v * v_dt * src_cross + v_dt**2 * src_w
        )
    l1 = float(np.trapezoid(np.abs(values), t_grid))
    return LambdaProfile(times=t_grid, values=values, l1=l1)
