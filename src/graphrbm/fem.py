"""P1 finite elements on a metric graph.

Each edge carries a uniform mesh with ``nodes_per_edge`` interior nodes;
every vertex contributes one shared degree of freedom, which builds the
vertex-continuity constraint directly into the dof map.  Flux coupling
at interior vertices is enforced weakly: the vertex test function spans
all adjacent edges, so assembly accumulates every edge's contribution
into the shared vertex row and the discrete flux balance follows.

All element integrals use a fixed 3-point Gauss rule, exact through
degree five, which covers the polynomial coefficients used in the
verification problems exactly and is amply accurate for the sinusoidal
ones.  Dirichlet data is handled by algebraic elimination: constrained
rows are removed and constrained columns move behind the free ones, where
a solver multiplies them by the prescribed values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp

from .decomposition import BatchView, ZetaWeights
from .errors import SolverError
from .graph import MetricGraph

EdgeFunction = Callable[[int, np.ndarray], np.ndarray]

GAUSS3_NODES = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
GAUSS3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0
# reference element coordinates and P1 shape values at the quadrature nodes
_TAU = 0.5 * (1.0 + GAUSS3_NODES)
_SHAPE = np.stack([1.0 - _TAU, _TAU], axis=1)  # (q, 2)


class FemError(SolverError):
    pass


class NonellipticCoefficient(FemError):
    pass


@dataclass(frozen=True)
class Mesh:
    """Uniform per-edge mesh with a fixed number of interior nodes."""

    nodes_per_edge: int

    def __post_init__(self):
        if self.nodes_per_edge < 1:
            raise FemError("nodes_per_edge must be at least 1")

    def spacing(self, graph: MetricGraph, e: int) -> float:
        return graph.edges[e].length / (self.nodes_per_edge + 1)


class DofMap:
    """Global dof numbering: vertex dofs first, then per-edge interior blocks.

    Vertex v owns dof v; edge e owns the contiguous interior block
    starting at ``n_vertices + e * nodes_per_edge``.  Dirichlet dofs are
    always vertex dofs.
    """

    def __init__(self, graph: MetricGraph, mesh: Mesh, dirichlet_vertices: Iterable[int]):
        self.graph = graph
        self.mesh = mesh
        n = mesh.nodes_per_edge
        self.n_dofs = graph.n_vertices + graph.n_edges * n
        self.dirichlet_vertices = frozenset(int(v) for v in dirichlet_vertices)
        unknown = [v for v in self.dirichlet_vertices if v >= graph.n_vertices or v < 0]
        if unknown:
            raise FemError(f"dirichlet vertices not in the graph: {sorted(unknown)}")
        self.dirichlet_dofs = np.array(sorted(self.dirichlet_vertices), dtype=int)
        mask = np.ones(self.n_dofs, dtype=bool)
        mask[self.dirichlet_dofs] = False
        self.free_dofs = np.flatnonzero(mask)
        self._interior_start = graph.n_vertices + n * np.arange(graph.n_edges)

    def edge_dofs(self, e: int) -> np.ndarray:
        """Dof ids along edge e in coordinate order: tail, interior nodes, head."""
        n = self.mesh.nodes_per_edge
        start = self._interior_start[e]
        edge = self.graph.edges[e]
        return np.concatenate(([edge.tail], np.arange(start, start + n), [edge.head]))

    def edge_nodes(self, e: int) -> np.ndarray:
        """Node coordinates along edge e, endpoints included."""
        return np.linspace(0.0, self.graph.edges[e].length, self.mesh.nodes_per_edge + 2)


def build_dofmap(graph: MetricGraph, mesh: Mesh, dirichlet_vertices: Iterable[int]) -> DofMap:
    """The dof map of ``DofMap``; kept because the acceptance suite calls it."""
    return DofMap(graph, mesh, dirichlet_vertices)


@dataclass(frozen=True)
class SeparableSource:
    """Source of the form sum_k space_k(e, x) * time_k(t).

    Lets load assembly hoist the quadrature: one vector per term is
    integrated once and time stepping reduces to scalar combinations.
    """

    terms: tuple[tuple[EdgeFunction, Callable[[float], float]], ...]

    def __call__(self, e: int, x: np.ndarray, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for space, time in self.terms:
            out += space(e, x) * time(t)
        return out


@dataclass
class CoefficientSet:
    """Problem data on the graph.

    a, b, p: per-edge functions of x (diffusion, convection, reaction);
    f: source, either ``f(e, x, t)`` or a SeparableSource (None = zero);
    g: Dirichlet data, ``g(t) -> array over all vertices`` (None = zero);
    y0: initial state per edge, ``y0(e, x)`` (None = zero).
    """

    a: EdgeFunction
    b: EdgeFunction
    p: EdgeFunction
    f: object | None = None
    g: Callable[[float], np.ndarray] | None = None
    y0: EdgeFunction | None = None


def constant_coefficients(a: float = 1.0, b: float = 0.0, p: float = 0.0) -> CoefficientSet:
    return CoefficientSet(
        a=lambda e, x: np.full_like(np.asarray(x, dtype=float), a),
        b=lambda e, x: np.full_like(np.asarray(x, dtype=float), b),
        p=lambda e, x: np.full_like(np.asarray(x, dtype=float), p),
    )


@dataclass(frozen=True)
class AssembledOperators:
    """Sparse operators on the full dof numbering.

    mass is the plain L2 mass matrix; stiffness, convection and reaction
    carry the coefficients a, b, p.  With batch weights, each edge's
    contribution is scaled by its factor and inactive edges contribute
    nothing (their rows and columns stay empty).
    """

    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    convection: sp.csr_matrix
    reaction: sp.csr_matrix

    def spatial(self) -> sp.csr_matrix:
        """Full non-symmetric spatial operator K + C + P."""
        return (self.stiffness + self.convection + self.reaction).tocsr()


def _edge_quadrature(dofmap: DofMap, e: int):
    """Quadrature points, physical weights and element dof pairs for edge e."""
    mesh = dofmap.mesh
    dx = mesh.spacing(dofmap.graph, e)
    n_el = mesh.nodes_per_edge + 1
    left = dx * np.arange(n_el)
    xq = left[:, None] + dx * _TAU[None, :]
    wq = GAUSS3_WEIGHTS * (dx / 2.0)
    edofs = dofmap.edge_dofs(e)
    pair = np.stack([edofs[:-1], edofs[1:]], axis=1)  # (n_el, 2)
    return xq, wq, dx, pair


def _block_pattern(pair: np.ndarray):
    """Row and column ids of the 2x2 element blocks over an (n_el, 2) array of dof pairs."""
    blocks = (len(pair), 2, 2)
    return (
        np.broadcast_to(pair[:, :, None], blocks).ravel(),
        np.broadcast_to(pair[:, None, :], blocks).ravel(),
    )


def _element_mass(wq: np.ndarray) -> np.ndarray:
    """The 2x2 P1 element mass matrix for the quadrature weights of one element."""
    return np.einsum("q,qi,qj->ij", wq, _SHAPE, _SHAPE)


def assemble(
    graph: MetricGraph,
    mesh: Mesh,
    dofmap: DofMap,
    coeffs: CoefficientSet,
    weights: ZetaWeights | None = None,
) -> AssembledOperators:
    """Assemble mass/stiffness/convection/reaction over the (active) edges.

    Raises NonellipticCoefficient when the diffusion coefficient is not
    strictly positive at some quadrature point of an active edge.
    """
    rows, cols = [], []
    data_m, data_k, data_c, data_p = [], [], [], []
    for e in range(graph.n_edges):
        factor = 1.0 if weights is None else float(weights.edge_factor[e])
        if factor == 0.0:
            continue
        xq, wq, dx, pair = _edge_quadrature(dofmap, e)
        flat = xq.ravel()
        aq = np.asarray(coeffs.a(e, flat), dtype=float).reshape(xq.shape)
        if np.any(aq <= 0.0):
            raise NonellipticCoefficient(
                f"diffusion coefficient not positive on edge {graph.edge_name(e)}"
            )
        bq = np.asarray(coeffs.b(e, flat), dtype=float).reshape(xq.shape)
        pq = np.asarray(coeffs.p(e, flat), dtype=float).reshape(xq.shape)

        grad = np.array([-1.0, 1.0]) / dx
        k_el = (aq * wq).sum(axis=1)[:, None, None] * np.outer(grad, grad)
        m_el = np.broadcast_to(_element_mass(wq), (xq.shape[0], 2, 2))
        p_el = np.einsum("eq,qi,qj->eij", pq * wq, _SHAPE, _SHAPE)
        c_el = np.einsum("eq,qi,j->eij", bq * wq, _SHAPE, grad)

        r, c = _block_pattern(pair)
        rows.append(r)
        cols.append(c)
        data_m.append((factor * m_el).ravel())
        data_k.append((factor * k_el).ravel())
        data_c.append((factor * c_el).ravel())
        data_p.append((factor * p_el).ravel())

    shape = (dofmap.n_dofs, dofmap.n_dofs)
    if not rows:
        empty = sp.csr_matrix(shape)
        return AssembledOperators(empty, empty.copy(), empty.copy(), empty.copy())
    r = np.concatenate(rows)
    c = np.concatenate(cols)

    def build(chunks):
        return sp.coo_matrix((np.concatenate(chunks), (r, c)), shape=shape).tocsr()

    return AssembledOperators(
        mass=build(data_m),
        stiffness=build(data_k),
        convection=build(data_c),
        reaction=build(data_p),
    )


def mass_matrix(graph: MetricGraph, mesh: Mesh, dofmap: DofMap) -> sp.csr_matrix:
    """Plain L2 mass matrix over all edges; the same entries as ``assemble(...).mass``."""
    rows, cols, data = [], [], []
    for e in range(graph.n_edges):
        _, wq, _, pair = _edge_quadrature(dofmap, e)
        r, c = _block_pattern(pair)
        rows.append(r)
        cols.append(c)
        data.append(np.broadcast_to(_element_mass(wq), (len(pair), 2, 2)).ravel())
    shape = (dofmap.n_dofs, dofmap.n_dofs)
    triplets = (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols)))
    return sp.coo_matrix(triplets, shape=shape).tocsr()


class LoadEvaluator:
    """Caches quadrature geometry for repeated load assembly in time.

    For a SeparableSource the per-term vectors are integrated once at
    construction and each call is a scalar combination; generic callables
    fall back to per-call quadrature.  ``restrict`` narrows the returned
    vector to the given dof ids.
    """

    def __init__(
        self,
        graph: MetricGraph,
        mesh: Mesh,
        dofmap: DofMap,
        f,
        weights: ZetaWeights | None = None,
        restrict: np.ndarray | None = None,
    ):
        self.n_dofs = dofmap.n_dofs
        self.restrict = restrict
        self._term_vectors = None
        self._time_fns = None
        self._edges = []
        if f is None:
            return
        for e in range(graph.n_edges):
            factor = 1.0 if weights is None else float(weights.edge_factor[e])
            if factor == 0.0:
                continue
            xq, wq, _, pair = _edge_quadrature(dofmap, e)
            self._edges.append((e, factor, xq, wq, pair))
        if isinstance(f, SeparableSource):
            self._time_fns = [time for _, time in f.terms]
            self._term_vectors = [
                self._integrate(lambda e, x, space=space: space(e, x))
                for space, _ in f.terms
            ]
        else:
            self._f = f

    def _integrate(self, fn) -> np.ndarray:
        out = np.zeros(self.n_dofs)
        for e, factor, xq, wq, pair in self._edges:
            fq = np.asarray(fn(e, xq.ravel()), dtype=float).reshape(xq.shape)
            local = np.einsum("eq,qi->ei", fq * wq, _SHAPE) * factor
            np.add.at(out, pair[:, 0], local[:, 0])
            np.add.at(out, pair[:, 1], local[:, 1])
        if self.restrict is not None:
            out = out[self.restrict]
        return out

    def __call__(self, t: float) -> np.ndarray:
        if self._term_vectors is not None:
            out = np.zeros_like(self._term_vectors[0])
            for vec, time in zip(self._term_vectors, self._time_fns):
                out += float(time(t)) * vec
            return out
        if not self._edges:
            size = self.n_dofs if self.restrict is None else len(self.restrict)
            return np.zeros(size)
        return self._integrate(lambda e, x: self._f(e, x, t))


def interpolate(graph: MetricGraph, mesh: Mesh, dofmap: DofMap, fn: EdgeFunction | None) -> np.ndarray:
    """Nodal interpolant of a per-edge function (None interpolates zero).

    Vertex dofs are written once per adjacent edge; for functions that
    are continuous across vertices all writes agree.
    """
    u = np.zeros(dofmap.n_dofs)
    if fn is None:
        return u
    for e in range(graph.n_edges):
        u[dofmap.edge_dofs(e)] = np.asarray(fn(e, dofmap.edge_nodes(e)), dtype=float)
    return u


@dataclass(frozen=True)
class ReducedOperators:
    """The free-dof rows of mass, stiffness and lower-order part C + P.

    Each matrix has one row per free dof and the columns
    ``[free | constrained]``, so ``A[:, :n_free]`` is the free block and
    ``A[:, n_free:]`` couples the free dofs to the constrained values.
    """

    free: np.ndarray
    constrained: np.ndarray
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    lower: sp.csr_matrix


def reduce_operators(
    ops: AssembledOperators, free: np.ndarray, constrained: np.ndarray
) -> ReducedOperators:
    """Eliminate the constrained dofs: keep the free rows over the columns [free | constrained]."""
    free = np.asarray(free, dtype=int)
    constrained = np.asarray(constrained, dtype=int)
    columns = np.concatenate([free, constrained])

    def rows(matrix):
        return matrix.tocsr()[free][:, columns].tocsr()

    return ReducedOperators(
        free=free,
        constrained=constrained,
        mass=rows(ops.mass),
        stiffness=rows(ops.stiffness),
        lower=rows(ops.convection + ops.reaction),
    )


@dataclass(frozen=True)
class BatchDofs:
    """Dof split for one active subgraph.

    ``active`` contains all dofs taking part in the window solve (the
    interior blocks of active edges plus every vertex they touch);
    ``constrained`` are the interface vertex dofs followed by the exterior
    boundary vertex dofs; ``free`` is the rest of ``active``.  Dofs
    outside ``active`` stay frozen during the window.
    """

    active: np.ndarray
    free: np.ndarray
    constrained: np.ndarray
    interface_dofs: np.ndarray
    exterior_dofs: np.ndarray


def restrict_to_batch(dofmap: DofMap, view: BatchView) -> BatchDofs:
    parts = [np.fromiter(sorted(view.vertices), dtype=int)]
    for e in sorted(view.active_edges):
        parts.append(dofmap.edge_dofs(e)[1:-1])
    active = np.unique(np.concatenate(parts))
    interface = np.fromiter(sorted(view.interface), dtype=int)
    exterior = np.fromiter(sorted(view.exterior_boundary), dtype=int)
    constrained = np.concatenate([interface, exterior]).astype(int)
    free = np.setdiff1d(active, constrained)
    return BatchDofs(
        active=active,
        free=free,
        constrained=constrained,
        interface_dofs=interface,
        exterior_dofs=exterior,
    )


def convection_vertex_sums(graph: MetricGraph, b: EdgeFunction) -> np.ndarray:
    """Signed sums of the convection coefficient at interior vertices.

    The continuous problem needs these to vanish for its energy
    estimates; callers typically warn when they do not.
    """
    out = np.zeros(graph.n_vertices)
    for v in graph.interior_vertices:
        total = 0.0
        for e in graph.adjacency(v):
            x = graph.endpoint_coordinate(e, v)
            total += float(b(e, np.array([x]))[0]) * graph.incidence(e, v)
        out[v] = total
    return out


def kirchhoff_flux_imbalance(
    graph: MetricGraph,
    mesh: Mesh,
    dofmap: DofMap,
    a: EdgeFunction,
    state: np.ndarray,
    v: int,
) -> float:
    """Signed flux sum at vertex v from one-sided P1 gradients of ``state``."""
    total = 0.0
    for e in graph.adjacency(v):
        edofs = dofmap.edge_dofs(e)
        dx = mesh.spacing(graph, e)
        x = graph.endpoint_coordinate(e, v)
        if graph.incidence(e, v) == -1:
            grad = (state[edofs[1]] - state[edofs[0]]) / dx
        else:
            grad = (state[edofs[-1]] - state[edofs[-2]]) / dx
        total += float(a(e, np.array([x]))[0]) * grad * graph.incidence(e, v)
    return total
