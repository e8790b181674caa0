"""P1 finite elements on a metric graph.

Each edge carries a uniform mesh with ``nodes_per_edge`` interior nodes;
every vertex contributes one shared degree of freedom, which builds the
vertex-continuity constraint directly into the dof map.  Flux coupling
at interior vertices is enforced weakly: the vertex test function spans
all adjacent edges, so assembly accumulates every edge's contribution
into the shared vertex row and the discrete flux balance follows.

Every mesh integral runs on an element table, ``Elements``, which holds
the points, weights, dof pairs and P1 shape values of one Gauss rule.
Assembly and the mass matrix use ``GAUSS3``, exact through degree five,
which covers the polynomial coefficients used in the verification
problems exactly and is amply accurate for the sinusoidal ones; the L2
error form and the variance functional use ``GAUSS5``, exact through
degree nine.  Every vertex condition (flux sums, continuity spreads,
vertex values, the manufactured constraint rows) runs on the edge-end
table ``Ends``.  Dirichlet data is handled by algebraic elimination:
constrained rows are removed and constrained columns move behind the free
ones, where a solver multiplies them by the prescribed values.

Each edge is integrated once per runtime: its one ``assemble`` call
evaluates the coefficients and every separable source term once per edge
and keeps, per mesh element, the 2x2 blocks of M, K and C + P and the
local load of each term.  The operators and loads of one batch are then
scaled sums of these element data over its active edges, each edge
counting with 1/pi of its owning part: its operators stay element blocks,
which a solver combines before one COO->CSR per step matrix, and its load
is one bincount per load term.  The mass is never scaled.  The whole graph
is the batch of the one-part, one-batch family, whose factors are all 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp

from .decomposition import BatchView
from .errors import NumericalError, SolverError
from .graph import MetricGraph

EdgeFunction = Callable[[int, np.ndarray], np.ndarray]


def _on_unit_interval(nodes, weights):
    """A Gauss rule on [-1, 1] moved to the reference element [0, 1]: (nodes, weights)."""
    return 0.5 * (1.0 + np.asarray(nodes)), 0.5 * np.asarray(weights)


# (nodes, weights) on [0, 1]; GAUSS3 is exact through degree 5, GAUSS5 through degree 9
GAUSS3 = _on_unit_interval([-np.sqrt(0.6), 0.0, np.sqrt(0.6)], np.array([5.0, 8.0, 5.0]) / 9.0)
GAUSS5 = _on_unit_interval(*np.polynomial.legendre.leggauss(5))
# shape-function gradients are these signs over the element width
_GRAD_SIGN = np.array([-1.0, 1.0])
_GRAD_GRAD = np.outer(_GRAD_SIGN, _GRAD_SIGN)


class FemError(SolverError):
    pass


class NonellipticCoefficient(FemError, NumericalError):
    pass


@dataclass(frozen=True)
class Mesh:
    """Uniform per-edge mesh with a fixed number of interior nodes."""

    nodes_per_edge: int

    def __post_init__(self):
        if self.nodes_per_edge < 1:
            raise FemError("nodes_per_edge must be at least 1")


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
        edge = self.graph.edges[e]
        return np.concatenate(([edge.tail], self.interior_dofs([e])[0], [edge.head]))

    def interior_dofs(self, edges) -> np.ndarray:
        """The (len(edges), nodes_per_edge) interior dof ids of the given edges, in coordinate order."""
        starts = self._interior_start[np.asarray(edges, dtype=int)]
        return starts[:, None] + np.arange(self.mesh.nodes_per_edge)

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


class Ends:
    """Both ends of every edge: end 2e is edge e's tail, end 2e + 1 its head.

    ``vertex[k]``, ``edge[k]``, ``coordinate[k]`` (0 at a tail, the edge
    length at a head) and ``sign[k]`` (-1 at a tail, +1 at a head) describe
    end k; ``interior[v]`` marks the graph's interior vertices and
    ``first[v]`` is vertex v's lowest-numbered end.  A vertex's ends come in
    edge order, its adjacency order, so every per-vertex sum adds its terms
    in that order.  ``sample`` is the one place a vertex quantity evaluates
    an edge function.
    """

    def __init__(self, graph: MetricGraph):
        self.n_vertices = graph.n_vertices
        self.n_edges = graph.n_edges
        self.vertex = np.array([(edge.tail, edge.head) for edge in graph.edges]).ravel()
        self.edge = np.repeat(np.arange(graph.n_edges), 2)
        lengths = np.array([edge.length for edge in graph.edges])
        self.coordinate = np.stack([np.zeros_like(lengths), lengths], axis=1).ravel()
        self.sign = np.tile([-1.0, 1.0], graph.n_edges)
        self.interior = np.zeros(graph.n_vertices, dtype=bool)
        self.interior[list(graph.interior_vertices)] = True
        # every vertex has an edge, so each one has a first end
        self.first = np.unique(self.vertex, return_index=True)[1]

    def sample(self, fn: EdgeFunction) -> np.ndarray:
        """``fn(e, [0, length_e])`` for every edge, one call per edge: the value at each end."""
        x = self.coordinate.reshape(self.n_edges, 2)
        return np.concatenate([np.asarray(fn(e, x[e]), dtype=float) for e in range(self.n_edges)])

    def sums(self, values: np.ndarray) -> np.ndarray:
        """The signed sum of per-end values at every interior vertex; 0 at boundary vertices."""
        inner = self.interior[self.vertex]
        return np.bincount(self.vertex[inner], (values * self.sign)[inner], minlength=self.n_vertices)


class Elements:
    """Every mesh element of the graph, edge by edge, with the points of one Gauss rule.

    ``rule`` is a (nodes, weights) pair on the reference element [0, 1],
    ``GAUSS3`` or ``GAUSS5``.  Edge e owns the ``per_edge`` consecutive
    elements starting at ``e * per_edge``, so element k lies on edge
    ``k // per_edge``.  ``pair[k]`` holds element k's two dof ids in
    coordinate order, ``xq[k]`` the edge coordinates of its Gauss points,
    ``wq[k]`` their weights and ``mass[k]`` its 2x2 mass block; ``dx[e]`` is
    edge e's mesh width.  ``shape`` holds the two P1 shape values at each
    point (q, 2) and ``shape_shape`` their four products (q, 4).  All of it
    comes from the mesh alone, vectorised across edges; ``sample`` is the
    one place that evaluates an edge function on the points.
    """

    def __init__(self, graph: MetricGraph, mesh: Mesh, dofmap: DofMap, rule):
        n = mesh.nodes_per_edge
        tau, weights = rule
        self.n_edges = graph.n_edges
        self.n_dofs = dofmap.n_dofs
        self.per_edge = n + 1
        self.shape = np.stack([1.0 - tau, tau], axis=1)
        self.shape_shape = (self.shape[:, :, None] * self.shape[:, None, :]).reshape(len(tau), 4)
        ends = Ends(graph)
        self.dx = ends.coordinate[1::2] / (n + 1)
        dofs = np.empty((graph.n_edges, n + 2), dtype=int)
        dofs[:, [0, -1]] = ends.vertex.reshape(-1, 2)
        dofs[:, 1:-1] = dofmap.interior_dofs(np.arange(graph.n_edges))
        self.pair = np.stack([dofs[:, :-1], dofs[:, 1:]], axis=-1).reshape(-1, 2)
        left = self.dx[:, None] * np.arange(self.per_edge)
        xq = left[:, :, None] + (self.dx[:, None] * tau)[:, None, :]
        self.xq = xq.reshape(-1, len(tau))
        self.wq = np.repeat(self.dx[:, None] * weights, self.per_edge, axis=0)

    @cached_property
    def mass(self) -> np.ndarray:
        """The (n_el, 2, 2) element mass blocks; built on first read, as only assembly reads them."""
        return (self.wq @ self.shape_shape).reshape(-1, 2, 2)

    def active(self, edge_factor: np.ndarray):
        """The active edges (nonzero ``edge_factor``), their element ids and each element's edge factor."""
        edges = np.flatnonzero(edge_factor)
        ids = (edges[:, None] * self.per_edge + np.arange(self.per_edge)).ravel()
        return edges, ids, np.repeat(edge_factor[edges], self.per_edge)

    def sample(self, fn: EdgeFunction, edges=None) -> np.ndarray:
        """``fn(e, x)`` at the Gauss points of the given edges' elements (default all), one call per edge."""
        xq = self.xq.reshape(self.n_edges, self.per_edge, -1)
        edges = range(self.n_edges) if edges is None else edges
        values = [
            np.asarray(fn(e, xq[e].ravel()), dtype=float).reshape(xq[e].shape) for e in edges
        ]
        return np.concatenate(values)

    def loads(self, values: np.ndarray, ids=slice(None)) -> np.ndarray:
        """The (n, 2) local loads of the elements ``ids`` (default all) for values at their Gauss points."""
        return (values * self.wq[ids]) @ self.shape

    def edge_sums(self, values: np.ndarray) -> np.ndarray:
        """The integral of a function sampled at every Gauss point, per edge."""
        return (values * self.wq).reshape(self.n_edges, -1).sum(axis=1)


@dataclass(frozen=True)
class ElementData:
    """Every element's operator blocks and source loads, from one pass over the edges.

    ``stiffness`` and ``lower`` (C + P) are (n_el, 2, 2) blocks over the
    elements of ``elements`` (whose ``mass`` holds M's).  A SeparableSource
    leaves one (n_el, 2) local load per term in ``term_loads``, with its
    time factor in ``time_fns``; any other source stays in ``source`` and
    is integrated per call on the cached Gauss points.
    """

    elements: Elements
    stiffness: np.ndarray
    lower: np.ndarray
    term_loads: tuple[np.ndarray, ...]
    time_fns: tuple[Callable[[float], float], ...]
    source: object | None


def assemble(graph: MetricGraph, mesh: Mesh, dofmap: DofMap, coeffs: CoefficientSet) -> ElementData:
    """Integrate every edge once: the blocks of K and C + P and the loads of a separable source.

    Calls a, b, p and each separable space term once per edge.  Raises
    NonellipticCoefficient when the diffusion coefficient is not strictly
    positive at some quadrature point.
    """
    elements = Elements(graph, mesh, dofmap, GAUSS3)
    aq = elements.sample(coeffs.a)
    bad = np.flatnonzero(~(aq > 0.0).all(axis=1))
    if bad.size:
        e = int(bad[0]) // elements.per_edge
        raise NonellipticCoefficient(
            f"diffusion coefficient not positive on edge {graph.edge_name(e)}"
        )
    bq = elements.sample(coeffs.b)
    pq = elements.sample(coeffs.p)
    wq = elements.wq
    inv_dx = np.repeat(1.0 / elements.dx, elements.per_edge)
    stiffness = ((aq * wq).sum(axis=1) * (inv_dx * inv_dx))[:, None, None] * _GRAD_GRAD
    grad = inv_dx[:, None] * _GRAD_SIGN  # (n_el, 2) shape-function gradients
    convection = elements.loads(bq)[:, :, None] * grad[:, None, :]
    reaction = ((pq * wq) @ elements.shape_shape).reshape(-1, 2, 2)
    separable = isinstance(coeffs.f, SeparableSource)
    terms = coeffs.f.terms if separable else ()
    return ElementData(
        elements=elements,
        stiffness=stiffness,
        lower=convection + reaction,
        term_loads=tuple(elements.loads(elements.sample(space)) for space, _ in terms),
        time_fns=tuple(time for _, time in terms),
        source=None if separable else coeffs.f,
    )


def _block_scatter(pair: np.ndarray, n_dofs: int, free: np.ndarray, constrained: np.ndarray):
    """A function that sums an (n, 2, 2) stack of element blocks into CSR.

    Element k of the stack has the dof pair ``pair[k]``.  The result has the
    free rows over the columns [free | constrained]; entries in any other
    row or column are dropped.  Each call makes one COO->CSR, which sums
    the shared-dof entries.
    """
    position = np.full(n_dofs, -1)
    position[free] = np.arange(len(free))
    position[constrained] = len(free) + np.arange(len(constrained))
    local = position[pair]
    blocks = (len(pair), 2, 2)
    rows = np.broadcast_to(local[:, :, None], blocks).ravel()
    cols = np.broadcast_to(local[:, None, :], blocks).ravel()
    keep = np.flatnonzero((rows >= 0) & (rows < len(free)) & (cols >= 0))
    rows, cols = rows[keep], cols[keep]
    shape = (len(free), len(free) + len(constrained))

    def build(data: np.ndarray) -> sp.csr_matrix:
        return sp.csr_matrix((data.reshape(-1)[keep], (rows, cols)), shape=shape)

    return build


def mass_matrix(graph: MetricGraph, mesh: Mesh, dofmap: DofMap) -> sp.csr_matrix:
    """Plain L2 mass matrix over all edges: one scatter of the element mass blocks."""
    elements = Elements(graph, mesh, dofmap, GAUSS3)
    every_dof = np.arange(dofmap.n_dofs)
    return _block_scatter(elements.pair, dofmap.n_dofs, every_dof, every_dof[:0])(elements.mass)


class LoadEvaluator:
    """The load vector F(t) of the active edges at the dofs ``free``, scaled by their edge factors.

    A SeparableSource's term vectors are built once, one bincount of the
    cached element loads per term, and each call combines them with the
    time factors; any other source is integrated per call on the cached
    Gauss points of the active edges, again with one bincount.  The
    returned vector holds the entries of the dof ids ``free``, in order.
    """

    def __init__(self, data: ElementData, edge_factor: np.ndarray, free: np.ndarray):
        elements = data.elements
        self.n_dofs = elements.n_dofs
        self._free = free
        self._elements = elements
        self._source = data.source
        self._time_fns = data.time_fns
        self._edges, self._ids, self._factor = elements.active(edge_factor)
        # every left-node term, then every right-node term: one fixed summation order per dof
        self._dofs = elements.pair[self._ids].T.ravel()
        self._term_vectors = [self._sum(local[self._ids]) for local in data.term_loads]

    def _sum(self, local: np.ndarray) -> np.ndarray:
        """Scatter the active elements' (n, 2) local loads, scaled by their edge factors."""
        scaled = local * self._factor[:, None]
        return np.bincount(self._dofs, scaled.T.ravel(), minlength=self.n_dofs)[self._free]

    def __call__(self, t: float) -> np.ndarray:
        if self._source is not None:
            f = self._source
            values = self._elements.sample(lambda e, x: f(e, x, t), self._edges)
            return self._sum(self._elements.loads(values, self._ids))
        out = np.zeros(len(self._free))
        for vec, time in zip(self._term_vectors, self._time_fns):
            out += float(time(t)) * vec
        return out


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
    """One batch's mass, stiffness and lower-order part C + P, kept as element data.

    ``ids`` are the active elements and ``factor`` their edge factors.
    ``scatter`` sums an (n, 2, 2) stack over them, such as a combination
    of ``blocks()``, into one CSR matrix with one row per free dof and the
    columns ``[free | constrained]``, so ``A[:, :n_free]`` is the free
    block and ``A[:, n_free:]`` couples the free dofs to the constrained values.
    """

    free: np.ndarray
    data: ElementData
    ids: np.ndarray
    factor: np.ndarray
    scatter: Callable[[np.ndarray], sp.csr_matrix]

    def blocks(self):
        """The element blocks (M, K, C + P), formed per call: M unscaled, K and C + P times the factor."""
        scale = self.factor[:, None, None]
        data, ids = self.data, self.ids
        return data.elements.mass[ids], data.stiffness[ids] * scale, data.lower[ids] * scale


def reduce_operators(
    data: ElementData,
    free: np.ndarray,
    constrained: np.ndarray,
    edge_factor: np.ndarray,
) -> ReducedOperators:
    """Eliminate the constrained dofs: the active elements and their scatter into [free | constrained].

    ``edge_factor`` is the batch's per-edge factor (``zeta_weights``); the
    edges where it is nonzero are active.
    """
    free = np.asarray(free, dtype=int)
    constrained = np.asarray(constrained, dtype=int)
    elements = data.elements
    _, ids, factor = elements.active(edge_factor)
    scatter = _block_scatter(elements.pair[ids], elements.n_dofs, free, constrained)
    return ReducedOperators(free, data, ids, factor, scatter)


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
    """The dof split of batch ``view``: sorted active ids, constrained ids and the free rest.

    One boolean mask over all dofs gives bitwise the same arrays without
    the two sorts, but measured on the 1022-edge tree it left later
    ``run_full`` solves paying page faults on fresh mappings for more
    rounds, so their time varied from run to run; the sorts stay.
    """
    vertices = np.fromiter(view.vertices, dtype=int)
    interior = dofmap.interior_dofs(np.fromiter(view.active_edges, dtype=int)).ravel()
    active = np.unique(np.concatenate([vertices, interior]))
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
    """Signed sums of the convection coefficient at interior vertices (0 at boundary vertices).

    The continuous problem needs these to vanish for its energy
    estimates; callers typically warn when they do not.
    """
    ends = Ends(graph)
    return ends.sums(ends.sample(b))


def kirchhoff_flux_imbalance(
    graph: MetricGraph,
    mesh: Mesh,
    dofmap: DofMap,
    a: EdgeFunction,
    state: np.ndarray,
) -> np.ndarray:
    """Signed flux sums of ``a`` times the one-sided P1 gradients of ``state`` (0 at boundary vertices).

    Each end's gradient is that of its edge's first (tail) or last (head) mesh element.
    """
    ends = Ends(graph)
    inner = dofmap.interior_dofs(np.arange(graph.n_edges))
    # each end's element as (left dof, right dof) in coordinate order
    left = np.stack([ends.vertex[0::2], inner[:, -1]], axis=1).ravel()
    right = np.stack([inner[:, 0], ends.vertex[1::2]], axis=1).ravel()
    dx = ends.coordinate[1::2].repeat(2) / (mesh.nodes_per_edge + 1)
    grad = (state[right] - state[left]) / dx
    return ends.sums(ends.sample(a) * grad)
