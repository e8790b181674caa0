import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import graphrbm as g
from graphrbm import fem
from graphrbm.timestep import imex_theta


@pytest.fixture(scope="session")
def demo():
    return g.demo_graph()


@pytest.fixture(scope="session")
def partition(demo):
    return g.demo_partition(demo)


@pytest.fixture(scope="session")
def option1():
    return g.batch_option_one()


@pytest.fixture(scope="session")
def option2():
    return g.batch_option_two()


@pytest.fixture(scope="session")
def solution(demo):
    return g.demo_solution(demo)


@pytest.fixture(scope="session")
def problem(solution):
    return g.derive_data(solution)


@pytest.fixture(scope="session")
def single_batch(partition):
    """One batch containing every part: forces equivalence with the full solve."""
    return g.batch_family([list(range(partition.n_parts))], [1.0], partition.n_parts)


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.Philox(key=20240809))


def mass_matrix(graph, mesh, dofmap):
    """The P1 mass matrix over all edges: the ``fem.GAUSS3`` element mass blocks summed into CSR."""
    elements = fem.Elements(dofmap, fem.GAUSS3)
    return elements.matrix(elements.mass)


def squared_errors(reference, states, times):
    """``reference.squared_error`` over a whole (k, n) stack, one block of at most ``block_rows`` states at a time."""
    rows = reference.block_rows
    blocks = [reference.squared_error(states[i : i + rows], times[i : i + rows]) for i in range(0, len(states), rows)]
    return np.concatenate(blocks)


def mass_norms_sq(mass, diffs):
    """Row-wise d^T M d of a (k, n) stack of dof vectors, M a sparse mass matrix."""
    return np.einsum("ij,ji->i", diffs, mass @ diffs.T)


def wilkinson_growth(n: int) -> sp.csc_matrix:
    """Ones on the diagonal and in the last column, -1 below the diagonal.

    ``splu`` factors it without an error, but partial pivoting grows its
    last column to 2^(n-1), so a solve leaves a large residual: the case
    the factor check exists for.
    """
    dense = np.eye(n) - np.tril(np.ones((n, n)), -1)
    dense[:, -1] = 1.0
    return sp.csc_matrix(dense)


def constant_coefficients(a: float = 1.0, b: float = 0.0, p: float = 0.0) -> g.CoefficientSet:
    return g.CoefficientSet(
        a=lambda e, x: np.full_like(np.asarray(x, dtype=float), a),
        b=lambda e, x: np.full_like(np.asarray(x, dtype=float), b),
        p=lambda e, x: np.full_like(np.asarray(x, dtype=float), p),
    )


# -- the per-edge assembly graphrbm used before element data were cached ------
#
# Kept as an oracle for the element-data path: every call integrates the
# edges again, one edge at a time, and skips the edges of factor 0.

GAUSS3_NODES = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
GAUSS3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0
_TAU = 0.5 * (1.0 + GAUSS3_NODES)
_SHAPE = np.stack([1.0 - _TAU, _TAU], axis=1)


def _edge_quadrature(dofmap, e):
    mesh = dofmap.mesh
    dx = dofmap.graph.edges[e].length / (mesh.nodes_per_edge + 1)
    n_el = mesh.nodes_per_edge + 1
    xq = dx * np.arange(n_el)[:, None] + dx * _TAU[None, :]
    wq = GAUSS3_WEIGHTS * (dx / 2.0)
    edofs = dofmap.edge_dofs(e)
    return xq, wq, dx, np.stack([edofs[:-1], edofs[1:]], axis=1)


def reference_assemble(graph, mesh, dofmap, coeffs, factor=None):
    """Full-numbering (mass, stiffness, convection, reaction) from the per-edge loop.

    ``factor`` scales each edge's contribution (None: every edge at 1).
    """
    rows, cols = [], []
    data = ([], [], [], [])
    for e in range(graph.n_edges):
        scale = 1.0 if factor is None else float(factor[e])
        if scale == 0.0:
            continue
        xq, wq, dx, pair = _edge_quadrature(dofmap, e)
        flat = xq.ravel()
        aq = np.asarray(coeffs.a(e, flat), dtype=float).reshape(xq.shape)
        bq = np.asarray(coeffs.b(e, flat), dtype=float).reshape(xq.shape)
        pq = np.asarray(coeffs.p(e, flat), dtype=float).reshape(xq.shape)
        grad = np.array([-1.0, 1.0]) / dx
        blocks = (
            np.broadcast_to(np.einsum("q,qi,qj->ij", wq, _SHAPE, _SHAPE), (len(pair), 2, 2)),
            (aq * wq).sum(axis=1)[:, None, None] * np.outer(grad, grad),
            np.einsum("eq,qi,j->eij", bq * wq, _SHAPE, grad),
            np.einsum("eq,qi,qj->eij", pq * wq, _SHAPE, _SHAPE),
        )
        shape = (len(pair), 2, 2)
        rows.append(np.broadcast_to(pair[:, :, None], shape).ravel())
        cols.append(np.broadcast_to(pair[:, None, :], shape).ravel())
        for chunks, block in zip(data, blocks):
            chunks.append((scale * block).ravel())
    shape = (dofmap.n_dofs, dofmap.n_dofs)
    r, c = np.concatenate(rows), np.concatenate(cols)
    return tuple(
        sp.coo_matrix((np.concatenate(chunks), (r, c)), shape=shape).tocsr() for chunks in data
    )


def reference_load(graph, mesh, dofmap, f, t, factor=None):
    """The full-numbering load vector of ``f(e, x, t)``, integrated edge by edge."""
    out = np.zeros(dofmap.n_dofs)
    for e in range(graph.n_edges):
        scale = 1.0 if factor is None else float(factor[e])
        if scale == 0.0:
            continue
        xq, wq, _, pair = _edge_quadrature(dofmap, e)
        fq = np.asarray(f(e, xq.ravel(), t), dtype=float).reshape(xq.shape)
        local = np.einsum("eq,qi->ei", fq * wq, _SHAPE) * scale
        np.add.at(out, pair[:, 0], local[:, 0])
        np.add.at(out, pair[:, 1], local[:, 1])
    return out


def reference_batch_system(graph, partition, family, mesh, dofmap, coeffs, j, free, constrained):
    """Batch j's reduced (mass, stiffness, lower) as 1/pi-scaled sums of per-part assemblies."""
    parts = sorted(family.batches[j])
    per_part = []
    for i in parts:
        indicator = np.zeros(graph.n_edges)
        indicator[list(partition.parts[i])] = 1.0
        per_part.append(reference_assemble(graph, mesh, dofmap, coeffs, indicator))
    scale = [1.0 / family.normalizers[i] for i in parts]
    mass = sum(ops[0] for ops in per_part).tocsr()
    stiffness = sum(s * ops[1] for s, ops in zip(scale, per_part)).tocsr()
    convection = sum(s * ops[2] for s, ops in zip(scale, per_part)).tocsr()
    reaction = sum(s * ops[3] for s, ops in zip(scale, per_part)).tocsr()
    columns = np.concatenate([free, constrained])
    return tuple(
        m.tocsr()[free][:, columns].tocsr() for m in (mass, stiffness, convection + reaction)
    )


# -- the per-batch growth bound and the two-matvec step loop graphrbm used
#    before the runtime-wide step pair and the fused step matrix W ------------
#
# Kept as oracles for ``engine.RbmRuntime.growth_rate`` and ``engine._advance``:
# the growth bound is worked out from the batch's own element blocks, and each
# step builds its operators from the per-part assembly, multiplies by rhs and
# by lhs_fc separately and calls the load and g at its own times.


def reference_growth_rate(runtime, j):
    """max(0, the largest eigenvalue of sym(-(K_e + L_e)) against M_e) over batch j's active elements."""
    data = runtime.elements
    weights, per_edge = g.zeta_weights(runtime.partition, runtime.family, j), data.elements.per_edge
    edges = np.flatnonzero(weights)
    ids = (edges[:, None] * per_edge + np.arange(per_edge)).ravel()
    factor = np.repeat(weights[edges], per_edge)
    scale = factor[:, None, None]
    s = data.stiffness[ids] * scale + data.lower[ids] * scale
    s = -0.5 * (s + s.transpose(0, 2, 1))
    c = np.linalg.inv(np.linalg.cholesky(data.elements.mass[ids]))  # M_e = C^-1 C^-T
    rates = np.linalg.eigvalsh(c @ s @ c.transpose(0, 2, 1))[:, -1]
    return max(0.0, float(rates.max(initial=0.0)))


def batch_load(runtime, system, t):
    """F(t) on the system's free dofs: its ``load``, else sum_k tau_k(t) times the runtime's k-th term vector there."""
    if system.load is not None:
        return system.load(t)
    out = np.zeros(len(system.free))
    for time, vector in zip(runtime.elements.time_fns, runtime.term_vectors):
        out += float(time(t)) * vector[system.free]
    return out


def reference_states(runtime, omegas, n_sub, scheme, dt, every):
    """Stored (times, states) of window k on batch ``omegas[k]``, stepped with two matvecs.

    lhs_ff u1 = rhs [u_f; c0] - lhs_fc c1 + dt (theta F1 + (1 - theta) F0),
    with c the frozen interface values and g at the exterior dofs, and the
    load from ``batch_load``.
    """
    coeffs, dofmap = runtime.coeffs, runtime.dofmap
    zeros = np.zeros(runtime.graph.n_vertices)
    boundary = coeffs.g if coeffs.g is not None else (lambda t: zeros)
    u = fem.interpolate(dofmap, coeffs.y0)
    u[dofmap.dirichlet_dofs] = boundary(0.0)[dofmap.dirichlet_dofs]
    snapshots = [(0.0, u.copy())]
    theta = scheme.theta_value
    problem = (runtime.graph, runtime.partition, runtime.family, runtime.mesh, dofmap, coeffs)
    for k, j in enumerate(omegas):
        system = runtime.system(int(j))
        exterior = system.exterior
        constrained = np.concatenate([system.interface, exterior])
        operators = reference_batch_system(*problem, int(j), system.free, constrained)
        lhs, rhs = imex_theta(scheme, *operators, dt)
        n_free = len(system.free)
        n_fixed = n_free + len(system.interface)
        lhs_fc = lhs[:, n_free:]
        lu = spla.splu(sp.csc_matrix(lhs[:, :n_free]))
        first, last = k * n_sub, (k + 1) * n_sub
        x = np.concatenate([u[system.free], u[system.interface], boundary(first * dt)[exterior]])
        f_prev = batch_load(runtime, system, first * dt)
        for s in range(first + 1, last + 1):
            b = rhs @ x
            x[n_fixed:] = boundary(s * dt)[exterior]
            b -= lhs_fc @ x[n_free:]
            f_next = batch_load(runtime, system, s * dt)
            b += dt * (theta * f_next + (1.0 - theta) * f_prev)
            f_prev = f_next
            x[:n_free] = lu.solve(b)
            if s % every == 0 or s == last:
                u[system.free] = x[:n_free]
                u[exterior] = x[n_fixed:]
                if s % every == 0:
                    snapshots.append((s * dt, u.copy()))
    n_steps = len(omegas) * n_sub
    if n_steps % every:
        snapshots.append((n_steps * dt, u.copy()))
    times, states = zip(*snapshots)
    return np.array(times), np.array(states)


# -- the per-vertex loops graphrbm used before the edge-end table -------------
#
# Kept as oracles for ``fem.Ends``: each walks ``graph.adjacency(v)`` and
# evaluates the edge functions at one endpoint per call, summing in
# adjacency order.


def endpoint(graph, e, v):
    """(coordinate, sign) of vertex v on edge e: (0, -1) at its tail, (length, +1) at its head."""
    edge = graph.edges[e]
    return (0.0, -1) if v == edge.tail else (edge.length, 1)


def reference_convection_vertex_sums(graph, b):
    out = np.zeros(graph.n_vertices)
    for v in graph.interior_vertices:
        total = 0.0
        for e in graph.adjacency(v):
            x, sign = endpoint(graph, e, v)
            total += float(b(e, np.array([x]))[0]) * sign
        out[v] = total
    return out


def reference_flux_imbalance(graph, mesh, dofmap, a, state, v):
    """Signed flux sum at vertex v from one-sided P1 gradients of ``state``.

    graphrbm keeps no discrete Kirchhoff imbalance of its own, so the tests use this loop.
    """
    total = 0.0
    for e in graph.adjacency(v):
        edofs = dofmap.edge_dofs(e)
        dx = graph.edges[e].length / (mesh.nodes_per_edge + 1)
        x, sign = endpoint(graph, e, v)
        if sign == -1:
            grad = (state[edofs[1]] - state[edofs[0]]) / dx
        else:
            grad = (state[edofs[-1]] - state[edofs[-2]]) / dx
        total += float(a(e, np.array([x]))[0]) * grad * sign
    return total


def reference_vertex_values(solution):
    graph = solution.graph
    out = np.zeros(graph.n_vertices)
    for v in range(graph.n_vertices):
        e = graph.adjacency(v)[0]
        out[v] = float(solution.w(e, endpoint(graph, e, v)[0]))
    return out


def reference_continuity_residual(solution):
    graph = solution.graph
    worst = 0.0
    for v in graph.interior_vertices:
        vals = [float(solution.w(e, endpoint(graph, e, v)[0])) for e in graph.adjacency(v)]
        worst = max(worst, max(vals) - min(vals))
    return worst


def reference_kirchhoff_residual(solution):
    graph = solution.graph
    worst = 0.0
    for v in graph.interior_vertices:
        total = 0.0
        for e in graph.adjacency(v):
            s, sign = endpoint(graph, e, v)
            total += float(solution.a(e, np.array([s]))[0]) * float(solution.w_dx(e, s)) * sign
        worst = max(worst, abs(total))
    return worst


def reference_lower_coefficients(graph, a, alpha, beta):
    """The constraint rows built vertex by vertex, then the same LSMR solve (no residual check)."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    rows, cols, values, rhs = [], [], [], []

    def add(e, coeff, weight):
        rows.extend([len(rhs)] * 3)
        cols.extend(range(3 * e, 3 * e + 3))
        values.extend(weight * c for c in coeff)

    for v in sorted(graph.interior_vertices):
        adjacent = graph.adjacency(v)
        ref = adjacent[0]
        s_ref = endpoint(graph, ref, v)[0]
        for e in adjacent[1:]:
            s = endpoint(graph, e, v)[0]
            add(e, (s * s, s, 1.0), 1.0)
            add(ref, (s_ref * s_ref, s_ref, 1.0), -1.0)
            ref_const = alpha[ref] * s_ref**4 + beta[ref] * s_ref**3
            rhs.append(ref_const - (alpha[e] * s**4 + beta[e] * s**3))
        const = 0.0
        for e in adjacent:
            s, sign = endpoint(graph, e, v)
            weight = sign * float(a(e, np.array([s]))[0])
            add(e, (2.0 * s, 1.0, 0.0), weight)
            const += weight * (4.0 * alpha[e] * s**3 + 3.0 * beta[e] * s**2)
        rhs.append(-const)
    if not rhs:
        return np.zeros((graph.n_edges, 3))
    A = sp.csr_matrix((values, (rows, cols)), shape=(len(rhs), 3 * graph.n_edges))
    solution = spla.lsmr(A, np.asarray(rhs), atol=0.0, btol=0.0, maxiter=4 * min(A.shape))[0]
    return solution.reshape(graph.n_edges, 3)
