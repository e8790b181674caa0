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

Every evaluation of an edge function goes through ``on_edges``, which
samples it on a whole table of coordinates, one row per edge: in one call
when the function has a table form ``on_edges(edges, x)``, else in one
call ``fn(e, x[i])`` per edge.  Each edge is integrated once per runtime:
its one ``assemble`` call samples the coefficients and every separable
source term once per table and keeps, per mesh element, the 2x2 blocks of
M, K and C + P and the local load of each term.  One batch is one
system, ``ReducedOperators`` (``reduce_operators``): scaled sums of these
element data over its active edges, each edge counting with 1/pi of its
owning part.  Its operators stay element blocks until ``step_matrices``
combines them and sums them into the step matrices, one COO->CSR each; a
separable load is one bincount per term, built once, and any other
source is integrated per call by the system's ``LoadEvaluator``.
The mass is never scaled.  The whole graph is the batch of the one-part,
one-batch family, whose factors are all 1.
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
from .timestep import SchemeKind, imex_theta

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


def _values(value, shape: tuple, what: str) -> np.ndarray:
    """``value`` as a float array of ``shape``; FemError naming ``what`` otherwise."""
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FemError(f"{what} is not numeric: {exc}") from exc
    if out.shape != shape:
        raise FemError(f"{what} has shape {out.shape}, expected {shape}")
    return out


def on_edges(fn: EdgeFunction, edges, x: np.ndarray) -> np.ndarray:
    """``fn`` on the (len(edges), m) coordinate table ``x``, row i on edge ``edges[i]``.

    Calls ``fn.on_edges(edges, x)`` once when ``fn`` has that table form,
    else ``fn(e, x[i])`` once per edge.  Raises FemError, naming the edge or
    the table form, when a value is not numeric or not of its row's shape.
    """
    edges = np.asarray(edges, dtype=int)
    table = getattr(fn, "on_edges", None)
    if table is not None:
        return _values(table(edges, x), x.shape, f"the table form of {fn!r}")
    out = np.empty(x.shape)
    for i, e in enumerate(edges.tolist()):
        out[i] = _values(fn(e, x[i]), x[i].shape, f"the edge function's value on edge {e}")
    return out


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
        """``fn`` at every end: ``on_edges`` on the (n_edges, 2) table of rows [0, length_e]."""
        x = self.coordinate.reshape(self.n_edges, 2)
        return on_edges(fn, np.arange(self.n_edges), x).ravel()

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
        """``fn`` at the Gauss points of the given edges' elements (default all), one row per element.

        One ``on_edges`` call on the table whose row i holds every Gauss point of edge ``edges[i]``.
        """
        x = self.xq.reshape(self.n_edges, -1)
        if edges is None:
            edges = np.arange(self.n_edges)
        else:
            x = x[edges]
        return on_edges(fn, edges, x).reshape(-1, self.xq.shape[1])

    def loads(self, values: np.ndarray, ids=slice(None)) -> np.ndarray:
        """The (n, 2) local loads of the elements ``ids`` (default all) for values at their Gauss points."""
        return (values * self.wq[ids]) @ self.shape

    def scatter(self, local: np.ndarray, ids, factor: np.ndarray, free: np.ndarray) -> np.ndarray:
        """The (n, 2) loads of the elements ``ids``, times their edge factors, summed onto the dofs ``free``.

        One bincount over every left-node term, then every right-node term:
        one fixed summation order per dof.
        """
        scaled = local * factor[:, None]
        return np.bincount(self.pair[ids].T.ravel(), scaled.T.ravel(), minlength=self.n_dofs)[free]

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

    Samples a, b, p and each separable space term once, on the table of every
    Gauss point (``Elements.sample``): one call per function with a table
    form, one per edge otherwise.  Raises FemError when a value has the
    wrong shape and NonellipticCoefficient when the diffusion coefficient is not strictly
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


def mass_matrix(graph: MetricGraph, mesh: Mesh, dofmap: DofMap) -> sp.csr_matrix:
    """Plain L2 mass matrix over all edges: one COO->CSR of the element mass blocks."""
    elements = Elements(graph, mesh, dofmap, GAUSS3)
    pair = elements.pair
    rows = np.repeat(pair, 2, axis=1).ravel()  # block entry (k, r, c) sits in row pair[k, r]
    cols = np.tile(pair, 2).ravel()  # and column pair[k, c]
    shape = (dofmap.n_dofs, dofmap.n_dofs)
    return sp.csr_matrix((elements.mass.reshape(-1), (rows, cols)), shape=shape)


class LoadEvaluator:
    """The load vector F(t) of a source that is not separable, on the active edges at the dofs ``free``.

    Each call integrates the source on the cached Gauss points of the
    active edges, scaled by their edge factors, and sums the element loads
    with one bincount; the result holds the entries of the dof ids
    ``free``, in order.
    """

    def __init__(self, data: ElementData, edge_factor: np.ndarray, free: np.ndarray):
        elements = data.elements
        self._free = free
        self._elements = elements
        self._source = data.source
        self._edges, self._ids, self._factor = elements.active(edge_factor)

    def __call__(self, t: float) -> np.ndarray:
        f, elements, ids = self._source, self._elements, self._ids
        values = elements.sample(lambda e, x: f(e, x, t), self._edges)
        return elements.scatter(elements.loads(values, ids), ids, self._factor, self._free)


def interpolate(graph: MetricGraph, mesh: Mesh, dofmap: DofMap, fn: EdgeFunction | None) -> np.ndarray:
    """Nodal interpolant of a per-edge function (None interpolates zero).

    Samples ``fn`` once with ``on_edges`` on the table whose row e holds edge
    e's nodes (``DofMap.edge_nodes``).  A vertex takes the value of its
    highest-numbered end (``Ends``), the one an edge-by-edge pass would
    write last; for functions that are continuous across vertices all
    adjacent edges agree.
    """
    u = np.zeros(dofmap.n_dofs)
    if fn is None:
        return u
    n = mesh.nodes_per_edge
    ends = Ends(graph)
    # bitwise the rows of DofMap.edge_nodes; contiguous, so fn sees the arrays it always saw
    nodes = np.ascontiguousarray(np.linspace(0.0, ends.coordinate[1::2], n + 2, axis=1))
    values = on_edges(fn, np.arange(graph.n_edges), nodes)
    u[dofmap.interior_dofs(np.arange(graph.n_edges))] = values[:, 1:-1]
    last = len(ends.vertex) - 1 - np.unique(ends.vertex[::-1], return_index=True)[1]
    u[: graph.n_vertices] = values[:, [0, -1]].ravel()[last]
    return u


@dataclass(frozen=True)
class BatchDofs:
    """Dof split for one active subgraph.

    ``active`` contains all dofs taking part in the window solve (the
    interior blocks of active edges plus every vertex they touch);
    ``interface_dofs`` and ``exterior_dofs`` are its interface and exterior
    boundary vertex dofs, and ``free`` is the rest of ``active``.  Dofs
    outside ``active`` stay frozen during the window.
    """

    active: np.ndarray
    free: np.ndarray
    interface_dofs: np.ndarray
    exterior_dofs: np.ndarray


def restrict_to_batch(dofmap: DofMap, view: BatchView) -> BatchDofs:
    """The dof split of batch ``view``: sorted active ids, interface and exterior ids and the free rest.

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
    free = np.setdiff1d(active, np.concatenate([interface, exterior]))
    return BatchDofs(active=active, free=free, interface_dofs=interface, exterior_dofs=exterior)


@dataclass(frozen=True)
class ReducedOperators:
    """One batch's system: everything a window step on it reads.

    ``free``, ``interface`` and ``exterior`` are the batch's dof split
    (``BatchDofs``) and ``n_active`` its active dof count.  Its mass,
    stiffness and lower-order part C + P stay element blocks of the active
    elements ``ids`` (``blocks``), K and C + P times their edge factors
    ``factor``.  ``step_matrices`` sums the combined blocks of one step over
    them into the two matrices of the step, one COO->CSR each: ``lhs_ff``,
    the free rows over the free columns, and W, the free rows over the columns

        [free | interface | Dirichlet at t0 | Dirichlet at t1 | load terms]

    with the entries rhs_ff, rhs_fi - lhs_fi, rhs_fD, -lhs_fD and the
    ``term_vectors`` of a separable source, one free-dof vector per term.
    The Dirichlet blocks are numbered by the ``dirichlet`` dofs passed to
    ``reduce_operators``, so one drive row [g(t0) | g(t1) | load weights]
    fits every batch; ``exterior_t1`` are the drive-row columns that hold
    g(t1) at ``exterior``.  ``load`` integrates a source that is not
    separable (None for any other).  ``keep`` lists the flat block entries in
    free rows, the ``n_ff`` in free columns first; ``rows`` and ``cols``
    place them in [free | interface | Dirichlet at t0], and ``t1_cols`` are
    the columns of -lhs for the entries past ``n_ff``.
    """

    free: np.ndarray
    interface: np.ndarray
    exterior: np.ndarray
    exterior_t1: np.ndarray
    n_active: int
    term_vectors: tuple[np.ndarray, ...]
    load: LoadEvaluator | None
    data: ElementData
    ids: np.ndarray
    factor: np.ndarray
    n_columns: int
    keep: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    n_ff: int
    t1_cols: np.ndarray

    def blocks(self):
        """The element blocks (M, K, C + P), formed per call: M unscaled, K and C + P times the factor."""
        scale = self.factor[:, None, None]
        data, ids = self.data, self.ids
        return data.elements.mass[ids], data.stiffness[ids] * scale, data.lower[ids] * scale

    def step_matrices(self, scheme: SchemeKind, dt: float) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """(lhs_ff, W) of the ``imex_theta`` step of ``scheme`` with step ``dt``."""
        lhs, rhs = imex_theta(scheme, *self.blocks(), dt)
        loads = self.term_vectors
        n_free, n_ff = len(self.free), self.n_ff
        lhs = lhs.reshape(-1)[self.keep]
        load_rows = np.tile(np.arange(n_free), len(loads))
        load_cols = np.repeat(np.arange(self.n_columns - len(loads), self.n_columns), n_free)
        data = np.concatenate([rhs.reshape(-1)[self.keep], -lhs[n_ff:], *loads])
        rows = np.concatenate([self.rows, self.rows[n_ff:], load_rows])
        cols = np.concatenate([self.cols, self.t1_cols, load_cols])
        w = sp.csr_matrix((data, (rows, cols)), shape=(n_free, self.n_columns))
        at = (self.rows[:n_ff], self.cols[:n_ff])
        return sp.csr_matrix((lhs[:n_ff], at), shape=(n_free, n_free)), w

    @cached_property
    def growth_rate(self) -> float:
        """A bound on how fast M u' = -(K + C + P) u can grow u's M-norm on the active edges.

        max(0, the largest eigenvalue of sym(-(K_e + L_e)) against M_e over
        the active elements): summing the element forms gives
        d/dt |u|_M^2 <= 2 rate |u|_M^2, also with constrained dofs held at 0.
        """
        mass, stiffness, lower = self.blocks()
        s = stiffness + lower
        s = -0.5 * (s + s.transpose(0, 2, 1))
        c = np.linalg.inv(np.linalg.cholesky(mass))  # M_e = C^-1 C^-T
        rates = np.linalg.eigvalsh(c @ s @ c.transpose(0, 2, 1))[:, -1]
        return max(0.0, float(rates.max(initial=0.0)))


def reduce_operators(
    data: ElementData, batch: BatchDofs, dirichlet: np.ndarray, edge_factor: np.ndarray
) -> ReducedOperators:
    """The system of ``batch``: its active elements, their places in W and lhs_ff, and its load.

    ``edge_factor`` is the batch's per-edge factor (``zeta_weights``); the
    edges where it is nonzero are active.  Each separable source term of
    ``data`` gives one load column of W, its vector one bincount of the
    term's element loads over the active elements; a source that is not
    separable gets a ``LoadEvaluator``.  Entries in rows that are not free,
    or in columns of no listed dof, are dropped.
    """
    free, interface, exterior = batch.free, batch.interface_dofs, batch.exterior_dofs
    dirichlet = np.asarray(dirichlet, dtype=int)
    elements = data.elements
    _, ids, factor = elements.active(edge_factor)
    n_free, n_dirichlet = len(free), len(dirichlet)
    first_dirichlet = n_free + len(interface)
    position = np.full(elements.n_dofs, -1)
    position[free] = np.arange(n_free)
    position[interface] = n_free + np.arange(len(interface))
    position[dirichlet] = first_dirichlet + np.arange(n_dirichlet)
    local = position[elements.pair[ids]]
    blocks = (len(ids), 2, 2)
    rows = np.broadcast_to(local[:, :, None], blocks).ravel()
    cols = np.broadcast_to(local[:, None, :], blocks).ravel()
    kept = (rows >= 0) & (rows < n_free)
    keep = np.concatenate(
        [np.flatnonzero(kept & (cols >= 0) & (cols < n_free)), np.flatnonzero(kept & (cols >= n_free))]
    )
    rows, cols = rows[keep], cols[keep]
    n_ff = int(np.count_nonzero(cols < n_free))
    constrained = cols[n_ff:]
    t1_cols = np.where(constrained >= first_dirichlet, constrained + n_dirichlet, constrained)
    n_columns = first_dirichlet + 2 * n_dirichlet + len(data.term_loads)
    term_vectors = tuple(elements.scatter(term[ids], ids, factor, free) for term in data.term_loads)
    return ReducedOperators(
        free=free, interface=interface, exterior=exterior,
        exterior_t1=n_dirichlet + np.searchsorted(dirichlet, exterior),
        n_active=len(batch.active), term_vectors=term_vectors,
        load=None if data.source is None else LoadEvaluator(data, edge_factor, free),
        data=data, ids=ids, factor=factor, n_columns=n_columns,
        keep=keep, rows=rows, cols=cols, n_ff=n_ff, t1_cols=t1_cols,
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
