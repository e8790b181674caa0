"""P1 finite elements on a metric graph.

Each edge carries a uniform mesh with ``nodes_per_edge`` interior nodes;
every vertex contributes one shared degree of freedom, which builds the
vertex-continuity constraint directly into the dof map.  Flux coupling
at interior vertices is enforced weakly: the vertex test function spans
all adjacent edges, so assembly accumulates every edge's contribution
into the shared vertex row and the discrete flux balance follows.

A ``DofMap`` carries the graph and the mesh it numbers, so it is the one
handle of a discretization.  Every mesh integral runs on an element table,
``Elements``, which holds a dof map's points, weights, dof pairs and P1
shape values for one Gauss rule.
Assembly and the element mass blocks use ``GAUSS3``, exact through degree
five, which covers the polynomial coefficients used in the verification
problems exactly and is amply accurate for the sinusoidal ones; the L2
error form and the variance functional use ``GAUSS5``, exact through
degree nine.  Every vertex condition (the convection vertex sums, the
manufactured solution's vertex values, continuity spreads, flux residuals
and constraint rows) runs on the edge-end table ``Ends``.  Dirichlet data,
at the graph's boundary vertices, is handled by algebraic elimination:
constrained rows are removed and constrained columns move behind the free
ones, where a solver multiplies them by the prescribed values.

Every evaluation of an edge function goes through ``on_edges``, which
samples it on a whole table of coordinates, one row per edge: in one call
when the function has a table form ``on_edges(edges, x)``, else in one
call ``fn(e, x[i])`` per edge.  Each edge is integrated once per runtime:
its one ``assemble`` call samples the coefficients and every separable
source term once per table and keeps, per mesh element, the 2x2 blocks of
M, K and C + P and the local load of each term.  An edge's K and C + P
count with 1/pi of its owning part in every batch that holds it, so one
``step_pair`` per (scheme, dt) sums the step's blocks over the whole graph.
Each batch's system, ``ReducedOperators`` (``reduce_operators``), keeps the
active edges its ``BatchView`` lists and the dof split read off them, and
gathers its step matrices from the pair's free rows (``step_matrices``)
with SciPy's compiled row gather ``csr_row_index``: lhs_ff into CSC, the
format SuperLU factors, and W into CSR, laid out by SciPy's compiled
COO->CSR kernels without its container round trip.  Apart from one map
over the graph's dofs, a batch's set-up works on arrays the size of its
own rows.  A separable load is one bincount per term over
the whole graph, built once, whose free entries W gathers with the pair's;
any other source is integrated per call by the system's ``LoadEvaluator``.
The mass is never scaled.  The whole graph is the batch of the one-part,
one-batch family, whose factors are all 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import coo_tocsr, csr_row_index, csr_sort_indices

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
    starting at ``n_vertices + e * nodes_per_edge``.  The Dirichlet dofs
    ``dirichlet_dofs`` are the graph's boundary vertices, sorted.
    """

    def __init__(self, graph: MetricGraph, mesh: Mesh):
        self.graph = graph
        self.mesh = mesh
        n = mesh.nodes_per_edge
        self.n_dofs = graph.n_vertices + graph.n_edges * n
        self.dirichlet_dofs = np.array(sorted(graph.boundary_vertices), dtype=int)
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


@dataclass(frozen=True)
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
    coordinate order, as int32, the index type scipy gives a matrix of
    ``n_dofs`` rows, so ``matrix`` hands scipy indices it takes without a
    check or a copy (FemError if ``n_dofs`` does not fit); ``xq[k]`` the
    edge coordinates of its Gauss points, ``wq[k]`` their weights and ``mass[k]`` its 2x2 mass block; ``dx[e]`` is
    edge e's mesh width.  ``shape`` holds the two P1 shape values at each
    point (q, 2) and ``shape_shape`` their four products (q, 4).  All of it
    comes from ``dofmap``, which it keeps, vectorised across edges;
    ``sample`` is the one place that evaluates an edge function on the points.
    """

    def __init__(self, dofmap: DofMap, rule):
        graph, n = dofmap.graph, dofmap.mesh.nodes_per_edge
        if dofmap.n_dofs > np.iinfo(np.int32).max:
            raise FemError(f"{dofmap.n_dofs} dofs do not fit the int32 indices of an element table")
        tau, weights = rule
        self.dofmap = dofmap
        self.n_edges = graph.n_edges
        self.n_dofs = dofmap.n_dofs
        self.per_edge = n + 1
        self.shape = np.stack([1.0 - tau, tau], axis=1)
        self.shape_shape = (self.shape[:, :, None] * self.shape[:, None, :]).reshape(len(tau), 4)
        ends = Ends(graph)
        self.dx = ends.coordinate[1::2] / (n + 1)
        dofs = np.empty((graph.n_edges, n + 2), dtype=np.int32)
        dofs[:, [0, -1]] = ends.vertex.reshape(-1, 2)
        dofs[:, 1:-1] = dofmap.interior_dofs(np.arange(graph.n_edges))
        self.pair = np.stack([dofs[:, :-1], dofs[:, 1:]], axis=-1).reshape(-1, 2)
        left = self.dx[:, None] * np.arange(self.per_edge)
        xq = left[:, :, None] + (self.dx[:, None] * tau)[:, None, :]
        self.xq = xq.reshape(-1, len(tau))
        self.wq = np.repeat(self.dx[:, None] * weights, self.per_edge, axis=0)

    @cached_property
    def mass(self) -> np.ndarray:
        """The (n_el, 2, 2) element mass blocks, built on first read.

        ``step_pair``, ``growth_rates`` and ``manufactured.ElementMassNorms``
        read them; a ``GAUSS5`` table for the L2 error form or the variance
        functional never does.
        """
        return (self.wq @ self.shape_shape).reshape(-1, 2, 2)

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

    def scatter(self, local: np.ndarray, factor: np.ndarray, ids=slice(None), free=slice(None)) -> np.ndarray:
        """The (n, 2) loads of the elements ``ids`` (default all), times their factors, summed onto the dofs ``free``.

        One bincount over every left-node term, then every right-node term:
        one fixed summation order per dof.
        """
        scaled = local * factor[:, None]
        return np.bincount(self.pair[ids].T.ravel(), scaled.T.ravel(), minlength=self.n_dofs)[free]

    def matrix(self, blocks: np.ndarray) -> sp.csr_matrix:
        """The (n_el, 2, 2) element ``blocks`` summed over all dofs by one COO->CSR, in one sorted pattern."""
        rows = np.repeat(self.pair, 2, axis=1).ravel()  # block entry (k, r, c) sits in row pair[k, r]
        cols = np.tile(self.pair, 2).ravel()  # and column pair[k, c]
        return sp.csr_matrix((blocks.reshape(-1), (rows, cols)), shape=(self.n_dofs, self.n_dofs))

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


def assemble(graph: MetricGraph, mesh: Mesh, coeffs: CoefficientSet) -> ElementData:
    """Integrate every edge once: the blocks of K and C + P and the loads of a separable source.

    Builds the dof map of (graph, mesh) and its ``GAUSS3`` element table,
    and samples each edge function once, on the table of every Gauss point
    (``Elements.sample``): one call per function with a table form, one per
    edge otherwise.  A space term with ``from_samples(sample)``, such as
    ``manufactured.SpatialOperator``, is combined from its parts' samples,
    so a part that is also a, b, p or another term is not sampled again.
    Raises FemError when a value has the wrong shape and
    NonellipticCoefficient when the diffusion coefficient is not strictly
    positive at some quadrature point.
    """
    elements = Elements(DofMap(graph, mesh), GAUSS3)
    # one table per function, keyed by id with the function held so that no id is
    # reused; sample does not call itself, so no reference cycle outlives the return
    samples: dict = {}

    def sample(fn) -> np.ndarray:
        if id(fn) not in samples:
            samples[id(fn)] = fn, elements.sample(fn)
        return samples[id(fn)][1]

    def term(space) -> np.ndarray:
        combine = getattr(space, "from_samples", None)
        return sample(space) if combine is None else combine(sample)

    aq = sample(coeffs.a)
    if not (aq > 0.0).all():  # the per-element scan only finds the edge to name
        e = int(np.flatnonzero(~(aq > 0.0).all(axis=1))[0]) // elements.per_edge
        raise NonellipticCoefficient(
            f"diffusion coefficient not positive on edge {graph.edge_name(e)}"
        )
    bq = sample(coeffs.b)
    pq = sample(coeffs.p)
    wq = elements.wq
    inv_dx = np.repeat(1.0 / elements.dx, elements.per_edge)
    # the three Gauss points of each element added as .sum(axis=1) adds them: (q0 + q1) + q2
    aw = aq * wq
    integral = aw[:, 0] + aw[:, 1]
    integral += aw[:, 2]
    stiffness = (integral * (inv_dx * inv_dx))[:, None, None] * _GRAD_GRAD
    grad = inv_dx[:, None] * _GRAD_SIGN  # (n_el, 2) shape-function gradients
    convection = elements.loads(bq)[:, :, None] * grad[:, None, :]
    convection += ((pq * wq) @ elements.shape_shape).reshape(-1, 2, 2)  # C + P
    separable = isinstance(coeffs.f, SeparableSource)
    terms = coeffs.f.terms if separable else ()
    return ElementData(
        elements=elements,
        stiffness=stiffness,
        lower=convection,
        term_loads=tuple(elements.loads(term(space)) for space, _ in terms),
        time_fns=tuple(time for _, time in terms),
        source=None if separable else coeffs.f,
    )


class LoadEvaluator:
    """The load vector F(t) of a source that is not separable, on the sorted ``edges`` at the dofs ``free``.

    Each call integrates the source on the cached Gauss points of the
    elements of ``edges``, each scaled by its entry of the per-element
    ``factor``, and sums the element loads with one bincount; the result
    holds the entries of the dof ids ``free``, in order.
    """

    def __init__(self, data: ElementData, factor: np.ndarray, edges: np.ndarray, free: np.ndarray):
        elements = data.elements
        self._free = free
        self._elements = elements
        self._source = data.source
        self._edges = edges
        self._ids = (edges[:, None] * elements.per_edge + np.arange(elements.per_edge)).ravel()
        self._factor = factor[self._ids]

    def __call__(self, t: float) -> np.ndarray:
        f, elements, ids = self._source, self._elements, self._ids
        values = elements.sample(lambda e, x: f(e, x, t), self._edges)
        return elements.scatter(elements.loads(values, ids), self._factor, ids, self._free)


def interpolate(dofmap: DofMap, fn: EdgeFunction | None) -> np.ndarray:
    """Nodal interpolant of a per-edge function on ``dofmap``'s graph and mesh (None interpolates zero).

    Samples ``fn`` once with ``on_edges`` on the table whose row e holds edge
    e's nodes (``DofMap.edge_nodes``).  A vertex takes the value of its
    highest-numbered end (``Ends``), the one an edge-by-edge pass would
    write last; for functions that are continuous across vertices all
    adjacent edges agree.
    """
    u = np.zeros(dofmap.n_dofs)
    if fn is None:
        return u
    graph, n = dofmap.graph, dofmap.mesh.nodes_per_edge
    ends = Ends(graph)
    # bitwise the rows of DofMap.edge_nodes; contiguous, so fn sees the arrays it always saw
    nodes = np.ascontiguousarray(np.linspace(0.0, ends.coordinate[1::2], n + 2, axis=1))
    values = on_edges(fn, np.arange(graph.n_edges), nodes)
    u[dofmap.interior_dofs(np.arange(graph.n_edges))] = values[:, 1:-1]
    last = len(ends.vertex) - 1 - np.unique(ends.vertex[::-1], return_index=True)[1]
    u[: graph.n_vertices] = values[:, [0, -1]].ravel()[last]
    return u


def growth_rates(data: ElementData, factor: np.ndarray) -> np.ndarray:
    """Per element, the largest eigenvalue of sym(-(K_e + L_e)) against M_e, K_e and L_e times its ``factor``.

    Their max over a batch's active elements, or 0, is a rate with d/dt |u|_M^2 <= 2 rate |u|_M^2
    for M u' = -(K + C + P) u there (sum the element forms), also with constrained dofs held at 0.
    """
    scale = factor[:, None, None]
    s = data.stiffness * scale + data.lower * scale
    s = -0.5 * (s + s.transpose(0, 2, 1))
    c = np.linalg.inv(np.linalg.cholesky(data.elements.mass))  # M_e = C^-1 C^-T
    return np.linalg.eigvalsh(c @ s @ c.transpose(0, 2, 1))[:, -1]


@dataclass(frozen=True)
class StepPair:
    """One step on the whole graph, L = M + dt theta A and R = M - dt (1 - theta) A - dt E, in CSR, and L in CSC.

    The three share one symmetric pattern; ``row_counts`` holds its entries per row.
    """

    lhs: sp.csr_matrix
    rhs: sp.csr_matrix
    lhs_csc: sp.csc_matrix
    row_counts: np.ndarray


def step_pair(data: ElementData, factor: np.ndarray, scheme: SchemeKind, dt: float) -> StepPair:
    """The ``imex_theta`` step of (scheme, dt) of every element, K_e and C_e + P_e times its ``factor``, summed."""
    scale = factor[:, None, None]
    lhs, rhs = imex_theta(scheme, data.elements.mass, data.stiffness * scale, data.lower * scale, dt)
    lhs, rhs = data.elements.matrix(lhs), data.elements.matrix(rhs)
    return StepPair(lhs=lhs, rhs=rhs, lhs_csc=lhs.tocsc(), row_counts=np.diff(rhs.indptr))


@dataclass(frozen=True)
class ReducedOperators:
    """One batch's system: its edges, its dof split and its load; its step matrices are free rows of a ``StepPair``.

    ``edges`` are the batch's active edges, sorted; ``interface`` and
    ``exterior`` are the interface and exterior vertex dofs of the active
    subgraph they span, ``free`` the rest of its active dofs and
    ``n_active`` the count of all of them; every dof outside the active
    subgraph stays frozen during a window.  The graph's
    Dirichlet dofs ``dirichlet`` number W's Dirichlet columns, so one drive
    row [g(t0) | g(t1) | load weights] fits every batch; ``exterior_t1``
    are the drive-row columns that hold g(t1) at ``exterior``.  ``load``
    integrates a source that is not separable (None for any other).
    """

    edges: np.ndarray
    free: np.ndarray
    interface: np.ndarray
    exterior: np.ndarray
    exterior_t1: np.ndarray
    n_active: int
    dirichlet: np.ndarray
    load: LoadEvaluator | None

    def step_matrices(self, pair: StepPair, term_vectors: tuple) -> tuple[sp.csc_matrix, sp.csr_matrix]:
        """(lhs_ff, W) of ``pair``'s step, gathered from the free rows of L and R.

        SciPy's compiled ``csr_row_index``, the kernel behind
        ``csr_matrix[rows]``, copies the free rows' column dofs and values
        out of the pair, once for each of R, L and L's CSC, whose arrays
        share the pattern and its positions: the pattern is symmetric, so a
        free row's entries are its column's, in the same order.  A map from
        the graph's dofs to the batch's columns then numbers them.
        lhs_ff, L over the free columns, comes out in CSC, the format SuperLU
        factors, with no sort: the free dofs are numbered in their order, so
        each column's rows stay sorted.  W holds the entries R_ff, R_fi - L_fi, R_fD,
        -L_fD and the separable source's ``term_vectors`` (over all dofs) at
        the free dofs, over the columns

            [free | interface | Dirichlet at t0 | Dirichlet at t1 | load terms].

        SciPy's compiled ``coo_tocsr`` and ``csr_sort_indices``, the kernels
        that ``csr_matrix((data, (rows, cols)))`` runs, write them straight
        into W's final arrays, which one ``csr_matrix`` then wraps.  No
        (row, column) comes twice, so the duplicate sum that the constructor
        runs after them would change nothing: the arrays are bit for bit the
        constructor's.  Every array but the dof map is the size of the
        batch's rows and their entries.  A free row has no entry outside
        these columns, as a free vertex has only active edges; FemError if
        one has, before any index reaches the COO->CSR kernels.
        """
        free, interface, dirichlet = self.free, self.interface, self.dirichlet
        n_free, n_fixed, n_terms = len(free), len(free) + len(interface), len(term_vectors)
        n_dirichlet = len(dirichlet)
        n_columns = n_fixed + 2 * n_dirichlet + n_terms
        # index arrays in the pair's own dtype, which scipy's kernels take without a check or a copy
        index = pair.rhs.indices.dtype
        position = np.full(pair.rhs.shape[0], -1, dtype=index)
        position[free] = np.arange(n_free, dtype=index)
        position[interface] = np.arange(n_free, n_fixed, dtype=index)
        position[dirichlet] = np.arange(n_fixed, n_fixed + n_dirichlet, dtype=index)
        counts = pair.row_counts[free]
        bounds = np.empty(n_free + 1, dtype=index)
        bounds[0] = 0
        np.cumsum(counts, out=bounds[1:])
        nnz = int(bounds[-1])
        # scratch[1:] takes the gathered column dofs, and later the running count of lhs_ff's entries
        scratch, lhs = np.empty(nnz + 1, dtype=index), np.empty(nnz)
        gather = partial(csr_row_index, n_free, free.astype(index), pair.rhs.indptr, pair.rhs.indices)
        gather(pair.lhs.data, scratch[1:], lhs)
        cols = position[scratch[1:]]
        if cols.min(initial=0) < 0:
            raise FemError("a free row has an entry outside the batch's free, interface and Dirichlet dofs")
        inner, fixed = cols < n_free, cols >= n_fixed
        n_extra = int(np.count_nonzero(fixed))
        end = nnz + n_extra
        data = np.empty(end + n_terms * n_free)
        head = data[:nnz]
        gather(pair.rhs.data, scratch[1:], head)
        np.subtract(head, lhs, out=head, where=~(inner | fixed))  # R - L at the interface
        np.negative(lhs[fixed], out=data[nnz:end])
        for k, vector in enumerate(term_vectors):
            data[end + k * n_free : end + (k + 1) * n_free] = vector[free]
        gather(pair.lhs_csc.data, scratch[1:], lhs)
        scratch[0] = 0
        np.cumsum(inner, dtype=index, out=scratch[1:])
        lhs_ff = sp.csc_matrix((lhs[inner], cols[inner], scratch[bounds]), shape=(n_free, n_free))
        rows, columns = np.empty(len(data), dtype=index), np.empty(len(data), dtype=index)
        rows[:nnz] = np.repeat(np.arange(n_free, dtype=index), counts)
        rows[nnz:end] = rows[:nnz][fixed]
        rows[end:].reshape(n_terms, n_free)[:] = np.arange(n_free, dtype=index)
        columns[:nnz] = cols
        np.add(cols[fixed], n_dirichlet, out=columns[nnz:end])
        columns[end:].reshape(n_terms, n_free)[:] = np.arange(n_columns - n_terms, n_columns, dtype=index)[:, None]
        if max(len(data), n_columns) > np.iinfo(index).max:  # the index type scipy would pick
            rows, columns = rows.astype(np.int64), columns.astype(np.int64)
        indptr, indices, values = np.empty(n_free + 1, dtype=rows.dtype), np.empty_like(columns), np.empty_like(data)
        coo_tocsr(n_free, n_columns, len(data), rows, columns, data, indptr, indices, values)
        csr_sort_indices(n_free, indptr, indices, values)
        return lhs_ff, sp.csr_matrix((values, indices, indptr), shape=(n_free, n_columns))


def reduce_operators(data: ElementData, view: BatchView, factor: np.ndarray) -> ReducedOperators:
    """The system of batch ``view`` on the dof map of ``data``'s elements: its edges, its dof split and its load.

    The dof split is read off the view and its active edges, with no pass
    over the graph's dofs: the free dofs are the view's interior vertices,
    sorted, then the interior dofs of the active edges, sorted by edge, so
    the whole is sorted (vertex dofs come first and an edge's interior
    block follows the edge id), as ``intp``.  The active dofs are the
    view's vertices and those interior dofs.  W's Dirichlet columns are
    the dof map's Dirichlet dofs.  A source that is not separable gets a
    ``LoadEvaluator`` over the active edges, each element scaled by its
    entry of the per-element ``factor`` (1/pi of its edge's part).
    """
    dofmap = data.elements.dofmap
    edges = np.fromiter(sorted(view.active_edges), dtype=int)
    interface = np.fromiter(sorted(view.interface), dtype=int)
    exterior = np.fromiter(sorted(view.exterior_boundary), dtype=int)
    free = np.concatenate((np.fromiter(sorted(view.interior), dtype=int), dofmap.interior_dofs(edges).ravel()))
    dirichlet = dofmap.dirichlet_dofs
    return ReducedOperators(
        edges=edges, free=free, interface=interface, exterior=exterior,
        exterior_t1=len(dirichlet) + np.searchsorted(dirichlet, exterior),
        n_active=len(view.vertices) + len(edges) * dofmap.mesh.nodes_per_edge, dirichlet=dirichlet,
        load=None if data.source is None else LoadEvaluator(data, factor, edges, free),
    )


def convection_vertex_sums(graph: MetricGraph, b: EdgeFunction) -> np.ndarray:
    """Signed sums of the convection coefficient at interior vertices (0 at boundary vertices).

    The continuous problem needs these to vanish for its energy
    estimates; callers typically warn when they do not.
    """
    ends = Ends(graph)
    return ends.sums(ends.sample(b))

