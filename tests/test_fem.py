import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import constant_coefficients

import graphrbm as g
from graphrbm import fem
from graphrbm.decomposition import batch_view
from graphrbm.engine import RbmRuntime
from graphrbm.fem import FemError, NonellipticCoefficient
from graphrbm.timestep import SEMI_IMPLICIT, StepWorkspace

GAUSS3 = (
    (-np.sqrt(0.6), 5.0 / 9.0),
    (0.0, 8.0 / 9.0),
    (np.sqrt(0.6), 5.0 / 9.0),
)


def dense_assembly(graph, mesh, dofmap, a, b, p):
    """Brute-force dense reference: explicit per-element loops, no vectorization."""
    n = dofmap.n_dofs
    K = np.zeros((n, n))
    C = np.zeros((n, n))
    P = np.zeros((n, n))
    M = np.zeros((n, n))
    for e in range(graph.n_edges):
        dofs = dofmap.edge_dofs(e)
        nodes = dofmap.edge_nodes(e)
        for m in range(len(nodes) - 1):
            xl, xr = nodes[m], nodes[m + 1]
            dx = xr - xl
            i, j = dofs[m], dofs[m + 1]
            pair = (i, j)
            for xi, wref in GAUSS3:
                x = xl + dx * (1 + xi) / 2
                w = wref * dx / 2
                shape = ((xr - x) / dx, (x - xl) / dx)
                grad = (-1.0 / dx, 1.0 / dx)
                av = float(a(e, np.array([x]))[0])
                bv = float(b(e, np.array([x]))[0])
                pv = float(p(e, np.array([x]))[0])
                for r in range(2):
                    for c in range(2):
                        K[pair[r], pair[c]] += w * av * grad[r] * grad[c]
                        C[pair[r], pair[c]] += w * bv * shape[r] * grad[c]
                        P[pair[r], pair[c]] += w * pv * shape[r] * shape[c]
                        M[pair[r], pair[c]] += w * shape[r] * shape[c]
    return M, K, C, P


def unit_weights(graph):
    """Every edge active with factor 1: the whole graph as one batch."""
    return np.ones(graph.n_edges)


def full_operators(data, dm, weights):
    """M, K and C + P on the full dof numbering over the edges of nonzero weight, K and C + P times it."""
    elements = data.elements
    _, ids, factor = elements.active(weights)
    pair = elements.pair[ids]
    rows, cols = np.repeat(pair, 2, axis=1).ravel(), np.tile(pair, 2).ravel()
    shape = (dm.n_dofs, dm.n_dofs)
    mass, stiffness, lower = (
        sp.csr_matrix((blocks.ravel(), (rows, cols)), shape=shape)
        for blocks in (elements.mass[ids], data.stiffness[ids] * factor[:, None, None], data.lower[ids] * factor[:, None, None])
    )
    return SimpleNamespace(mass=mass, stiffness=stiffness, lower=lower)


def load_vector(graph, mesh, dm, coeffs, f, t):
    """The full-numbering load of the callable source ``f`` at time t, integrated over the whole graph."""
    data = fem.assemble(graph, mesh, dm, dataclasses.replace(coeffs, f=f))
    return fem.LoadEvaluator(data, unit_weights(graph), np.arange(dm.n_dofs))(t)


def steady_solve(data, dm, boundary, load=None):
    """Solve K_ff u_f = F_f - K_fD g on the free rows of the stiffness; returns the full vector."""
    free, dirichlet = dm.free_dofs, dm.dirichlet_dofs
    stiffness = full_operators(data, dm, unit_weights(dm.graph)).stiffness[free]
    rhs = -(stiffness[:, dirichlet] @ boundary)
    if load is not None:
        rhs += load[free]
    u = np.zeros(dm.n_dofs)
    lu = StepWorkspace().factorization("K", lambda: (stiffness[:, free], None))
    u[free] = lu.solve(rhs)
    u[dirichlet] = boundary
    return u


def test_dofmap_counts_demo(demo):
    dm = fem.DofMap(demo, g.Mesh(100), demo.boundary_vertices)
    assert dm.n_dofs == 1010
    assert len(dm.dirichlet_dofs) == 4
    assert len(dm.free_dofs) == 1006


def test_dofmap_single_edge():
    graph = g.build_graph([(0, 1, 1.0)], {0, 1})
    dm = fem.DofMap(graph, g.Mesh(1), {0, 1})
    assert dm.n_dofs == 3
    assert len(dm.free_dofs) == 1


def test_dofmap_no_dirichlet(demo):
    dm = fem.DofMap(demo, g.Mesh(100), set())
    assert len(dm.free_dofs) == 1010


def test_dofmap_unknown_vertex(demo):
    with pytest.raises(FemError):
        fem.DofMap(demo, g.Mesh(2), {42})


def test_edge_dofs_order():
    graph = g.build_graph([(0, 1, 1.0), (1, 2, 1.0)], {0, 2})
    dm = fem.DofMap(graph, g.Mesh(3), {0, 2})
    assert list(dm.edge_dofs(0)) == [0, 3, 4, 5, 1]
    assert list(dm.edge_dofs(1)) == [1, 6, 7, 8, 2]
    assert np.allclose(dm.edge_nodes(0), [0, 0.25, 0.5, 0.75, 1.0])


def test_single_edge_stiffness_hand_values():
    # one unit edge, one interior node: dx = 1/2, element stiffness 2*[[1,-1],[-1,1]]
    graph = g.build_graph([(0, 1, 1.0)], {0, 1})
    dm = fem.DofMap(graph, g.Mesh(1), set())
    ops = full_operators(
        fem.assemble(graph, dm.mesh, dm, constant_coefficients(a=1.0)), dm, unit_weights(graph)
    )
    path = dm.edge_dofs(0)  # tail, interior, head
    K = ops.stiffness.toarray()[np.ix_(path, path)]
    assert np.allclose(K, [[2, -2, 0], [-2, 4, -2], [0, -2, 2]], atol=1e-14)


def test_single_edge_mass_hand_values():
    # element mass dx/6 * [[2,1],[1,2]] with dx = 1/2
    graph = g.build_graph([(0, 1, 1.0)], {0, 1})
    dm = fem.DofMap(graph, g.Mesh(1), set())
    ops = full_operators(
        fem.assemble(graph, dm.mesh, dm, constant_coefficients()), dm, unit_weights(graph)
    )
    path = dm.edge_dofs(0)
    M = ops.mass.toarray()[np.ix_(path, path)]
    expected = np.array([[2, 1, 0], [1, 4, 1], [0, 1, 2]]) / 12.0
    assert np.allclose(M, expected, atol=1e-14)


def test_assembly_matches_dense_oracle(demo, problem):
    mesh = g.Mesh(10)
    dm = fem.DofMap(demo, mesh, demo.boundary_vertices)
    ops = full_operators(fem.assemble(demo, mesh, dm, problem), dm, unit_weights(demo))
    Md, Kd, Cd, Pd = dense_assembly(demo, mesh, dm, problem.a, problem.b, problem.p)
    for sparse_mat, dense_mat in ((ops.mass, Md), (ops.stiffness, Kd), (ops.lower, Cd + Pd)):
        scale = np.abs(dense_mat).max()
        assert np.abs(sparse_mat.toarray() - dense_mat).max() <= 1e-12 * scale
    # the mass-only builder gives exactly the entries of the full assembly
    assert np.array_equal(fem.mass_matrix(demo, mesh, dm).toarray(), ops.mass.toarray())


def test_load_matches_dense_oracle(demo, solution, problem):
    mesh = g.Mesh(7)
    dm = fem.DofMap(demo, mesh, demo.boundary_vertices)
    f = lambda e, x, t: solution.w(e, x) * (1.0 + t)
    F = load_vector(demo, mesh, dm, problem, f, 0.3)
    expected = np.zeros(dm.n_dofs)
    for e in range(demo.n_edges):
        dofs = dm.edge_dofs(e)
        nodes = dm.edge_nodes(e)
        for m in range(len(nodes) - 1):
            xl, xr = nodes[m], nodes[m + 1]
            dx = xr - xl
            for xi, wref in GAUSS3:
                x = xl + dx * (1 + xi) / 2
                w = wref * dx / 2
                fv = float(f(e, np.array([x]), 0.3)[0])
                expected[dofs[m]] += w * fv * (xr - x) / dx
                expected[dofs[m + 1]] += w * fv * (x - xl) / dx
    assert np.abs(F - expected).max() <= 1e-13 * np.abs(expected).max()


def test_mass_spd(demo, rng):
    mesh = g.Mesh(6)
    dm = fem.DofMap(demo, mesh, demo.boundary_vertices)
    M = fem.mass_matrix(demo, mesh, dm)
    assert np.abs((M - M.T).toarray()).max() <= 1e-15
    assert np.all(M.diagonal() > 0)
    for _ in range(10):
        x = rng.standard_normal(dm.n_dofs)
        assert x @ (M @ x) > 0


def test_stiffness_psd_and_kernel(demo, problem, rng):
    mesh = g.Mesh(6)
    dm = fem.DofMap(demo, mesh, set())
    K = full_operators(fem.assemble(demo, mesh, dm, problem), dm, unit_weights(demo)).stiffness
    for _ in range(10):
        x = rng.standard_normal(dm.n_dofs)
        assert x @ (K @ x) >= -1e-12
    ones = np.ones(dm.n_dofs)
    assert np.abs(K @ ones).max() <= 1e-12


def test_weighted_assembly_equals_scaled_parts(demo, partition, option1, problem):
    mesh = g.Mesh(4)
    dm = fem.DofMap(demo, mesh, demo.boundary_vertices)
    data = fem.assemble(demo, mesh, dm, problem)
    j = 4  # three active parts with factors 3, 2, 2
    ops = full_operators(data, dm, g.zeta_weights(partition, option1, j))
    totals = {"mass": 0, "stiffness": 0, "lower": 0}
    for i in sorted(option1.batches[j]):
        indicator = np.isin(np.arange(demo.n_edges), list(partition.parts[i])).astype(float)
        part = full_operators(data, dm, indicator)
        totals["mass"] = totals["mass"] + part.mass  # the mass is never scaled
        for name in ("stiffness", "lower"):
            totals[name] = totals[name] + getattr(part, name) / option1.normalizers[i]
    for name, total in totals.items():
        diff = np.abs((getattr(ops, name) - total).toarray()).max()
        assert diff <= 1e-13 * np.abs(total.toarray()).max(), name


def test_weighted_assembly_inactive_rows_empty(demo, partition, option1, problem):
    mesh = g.Mesh(4)
    dm = fem.DofMap(demo, mesh, demo.boundary_vertices)
    weights = g.zeta_weights(partition, option1, 0)  # only the left star active
    ops = full_operators(fem.assemble(demo, mesh, dm, problem), dm, weights)
    for matrix in (ops.mass, ops.stiffness, ops.lower):
        for e in range(3, demo.n_edges):
            for dof in dm.edge_dofs(e)[1:-1]:
                assert matrix[dof].nnz == 0


def test_nonelliptic_rejected():
    graph = g.build_graph([(0, 1, 1.0), (1, 2, 1.0)], {0, 2}, edge_names=["left", "right"])
    dm = fem.DofMap(graph, g.Mesh(4), {0, 2})
    coeffs = g.CoefficientSet(
        a=lambda e, x: x - 0.5 if e == 1 else np.ones_like(x),  # changes sign on the second edge
        b=lambda e, x: np.zeros_like(x),
        p=lambda e, x: np.zeros_like(x),
    )
    with pytest.raises(NonellipticCoefficient, match="on edge right$"):
        fem.assemble(graph, dm.mesh, dm, coeffs)
    # a runtime integrates every edge when it is built
    partition = g.SubgraphPartition(graph, [{0}, {1}])
    family = g.batch_family([{0}, {1}], [0.5, 0.5], 2)
    with pytest.raises(NonellipticCoefficient, match="on edge right$"):
        RbmRuntime(graph, partition, family, dm.mesh, coeffs)


def test_reduce_operators_free_rows_over_free_then_constrained(demo, partition, option1, problem):
    mesh = g.Mesh(5)
    dm = fem.DofMap(demo, mesh, demo.boundary_vertices)
    data = fem.assemble(demo, mesh, dm, problem)
    ops = full_operators(data, dm, unit_weights(demo))
    bd = fem.restrict_to_batch(dm, batch_view(partition, option1.batches, 4))
    weights = unit_weights(demo)
    factor = np.repeat(weights, data.elements.per_edge)
    vectors = tuple(data.elements.scatter(term, factor) for term in data.term_loads)
    reduced = fem.reduce_operators(data, bd, dm.dirichlet_dofs, weights, vectors)
    assert reduced.n_active == len(bd.active)
    # the fused layout: [free | interface | Dirichlet at t0 | Dirichlet at t1 | load terms]
    dt = 0.1
    lhs = (ops.mass + dt * ops.stiffness).toarray()
    rhs = (ops.mass - dt * ops.lower).toarray()
    loads = reduced.term_vectors
    assert len(loads) == len(data.term_loads)
    assert all(np.array_equal(load, vector[bd.free]) for load, vector in zip(loads, vectors))
    lhs_ff, w = reduced.step_matrices(fem.step_pair(data, factor, SEMI_IMPLICIT, dt))
    free, interface, dirichlet = bd.free, bd.interface_dofs, dm.dirichlet_dofs
    exterior = np.isin(dirichlet, bd.exterior_dofs)
    want = np.hstack(
        [
            rhs[np.ix_(free, free)],
            rhs[np.ix_(free, interface)] - lhs[np.ix_(free, interface)],
            np.where(exterior, rhs[np.ix_(free, dirichlet)], 0.0),
            np.where(exterior, -lhs[np.ix_(free, dirichlet)], 0.0),
            np.column_stack(loads),
        ]
    )
    assert w.shape == want.shape
    assert np.abs(w.toarray() - want).max() <= 1e-14 * np.abs(want).max()
    # each exterior dof's g(t1) sits at its column of the drive row [g(t0) | g(t1) | load weights]
    drive = np.concatenate([np.zeros(len(dirichlet)), dirichlet, np.zeros(len(loads))])
    assert np.array_equal(drive[reduced.exterior_t1], bd.exterior_dofs)
    want_ff = lhs[np.ix_(free, free)]
    assert np.abs(lhs_ff.toarray() - want_ff).max() <= 1e-14 * np.abs(want_ff).max()
    # a free row with an entry in no column of W is refused, not handed to SuperLU as a negative index
    unlisted = dataclasses.replace(reduced, interface=interface[1:])
    with pytest.raises(fem.FemError, match="outside the batch's free, interface and Dirichlet dofs"):
        unlisted.step_matrices(fem.step_pair(data, factor, SEMI_IMPLICIT, dt))


def test_steady_single_edge_linear_exact():
    # -u'' = 0, u(0)=0, u(1)=1: P1 reproduces the linear solution at the nodes
    graph = g.build_graph([(0, 1, 1.0)], {0, 1})
    dm = fem.DofMap(graph, g.Mesh(9), {0, 1})
    data = fem.assemble(graph, dm.mesh, dm, constant_coefficients(a=1.0))
    full = steady_solve(data, dm, np.array([0.0, 1.0]))
    assert np.abs(full[dm.edge_dofs(0)] - dm.edge_nodes(0)).max() <= 1e-12


def test_steady_graph_linear_exact(demo, rng):
    # constant diffusion, no source: the solution is edgewise linear and P1-exact
    g_values = rng.standard_normal(4)

    def solve(ne):
        dm = fem.DofMap(demo, g.Mesh(ne), demo.boundary_vertices)
        data = fem.assemble(demo, dm.mesh, dm, constant_coefficients(a=2.0))
        return dm, steady_solve(data, dm, g_values)

    dm, u = solve(20)
    for e in range(demo.n_edges):
        vals = u[dm.edge_dofs(e)]
        second_diff = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert np.abs(second_diff).max() <= 1e-12
    dm_coarse, u_coarse = solve(2)
    assert np.allclose(u[: demo.n_vertices], u_coarse[: demo.n_vertices], atol=1e-11)


def test_steady_residual_second_order(demo, solution):
    # K_a applied to the interpolated exact profile minus the consistent load
    # shrinks at second order in the mesh width
    residuals = []
    meshes = [25, 50, 100]
    for ne in meshes:
        mesh = g.Mesh(ne)
        dm = fem.DofMap(demo, mesh, demo.boundary_vertices)
        coeffs = g.derive_data(solution)
        ops = full_operators(fem.assemble(demo, mesh, dm, coeffs), dm, unit_weights(demo))
        w_interp = fem.interpolate(demo, mesh, dm, solution.w)
        rhs = lambda e, x, t: -(
            solution.a_dx(e, x) * solution.w_dx(e, x)
            + solution.a(e, x) * solution.w_dxx(e, x)
        )
        load = load_vector(demo, mesh, dm, coeffs, rhs, 0.0)
        res = ops.stiffness @ w_interp - load
        residuals.append(np.abs(res[dm.free_dofs]).max())
    slope, _ = g.fit_slope([1.0 / (ne + 1) for ne in meshes], residuals)
    assert 1.6 <= slope <= 2.4


def test_kirchhoff_flux_imbalance_first_order(demo, solution):
    # one-sided P1 flux sums at interior vertices vanish at first order
    worst = []
    meshes = [25, 50, 100]
    for ne in meshes:
        mesh = g.Mesh(ne)
        dm = fem.DofMap(demo, mesh, demo.boundary_vertices)
        coeffs = g.derive_data(solution)
        data = fem.assemble(demo, mesh, dm, coeffs)
        rhs = lambda e, x, t: -(
            solution.a_dx(e, x) * solution.w_dx(e, x)
            + solution.a(e, x) * solution.w_dxx(e, x)
        )
        load = load_vector(demo, mesh, dm, coeffs, rhs, 0.0)
        boundary = solution.vertex_values()[dm.dirichlet_dofs]
        u = steady_solve(data, dm, boundary, load)
        imbalance = fem.kirchhoff_flux_imbalance(demo, mesh, dm, solution.a, u)
        worst.append(max(abs(imbalance[v]) for v in demo.interior_vertices))
    slope, _ = g.fit_slope([1.0 / (ne + 1) for ne in meshes], worst)
    assert 0.7 <= slope <= 1.3
    assert worst[0] > worst[-1]


def test_restrict_to_batch_counts(demo, partition, option1):
    mesh = g.Mesh(100)
    dm = fem.DofMap(demo, mesh, demo.boundary_vertices)
    b1 = fem.restrict_to_batch(dm, batch_view(partition, option1.batches, 0))
    assert len(b1.active) == 304
    assert {demo.vertex_name(v) for v in b1.interface_dofs} == {"v4"}
    assert {demo.vertex_name(v) for v in b1.exterior_dofs} == {"v1", "v2"}
    b5 = fem.restrict_to_batch(dm, batch_view(partition, option1.batches, 4))
    assert {demo.vertex_name(v) for v in b5.interface_dofs} == {"v7"}
    assert {demo.vertex_name(v) for v in b5.exterior_dofs} == {"v1", "v2"}
    assert len(b5.active) == 7 * 100 + 7


def test_restrict_to_batch_full_is_identity(demo, partition, single_batch):
    mesh = g.Mesh(10)
    dm = fem.DofMap(demo, mesh, demo.boundary_vertices)
    bd = fem.restrict_to_batch(dm, batch_view(partition, single_batch.batches, 0))
    assert np.array_equal(bd.active, np.arange(dm.n_dofs))
    assert np.array_equal(bd.exterior_dofs, dm.dirichlet_dofs)
    assert np.array_equal(bd.free, dm.free_dofs)
    assert len(bd.interface_dofs) == 0


def test_interpolate_nodal_values(demo):
    mesh = g.Mesh(4)
    dm = fem.DofMap(demo, mesh, demo.boundary_vertices)
    u = fem.interpolate(demo, mesh, dm, lambda e, x: np.full_like(x, float(e)))
    for e in range(demo.n_edges):
        assert np.all(u[dm.edge_dofs(e)[1:-1]] == float(e))
    assert np.all(fem.interpolate(demo, mesh, dm, None) == 0.0)


def test_convection_vertex_sums_vanish(demo, problem):
    sums = fem.convection_vertex_sums(demo, problem.b)
    assert np.abs(sums).max() <= 1e-15


def test_interpolate_reads_edge_nodes_and_keeps_the_last_edge_at_a_vertex(demo):
    """The node table rows are bitwise ``edge_nodes``; a shared vertex keeps the value an edge-by-edge pass wrote last."""
    mesh = g.Mesh(5)
    dm = fem.DofMap(demo, mesh, demo.boundary_vertices)
    seen = {}

    def jump(e, x):  # discontinuous at every vertex
        seen[e] = x.copy()
        return np.sin(3.0 * x) + 10.0 * e

    u = fem.interpolate(demo, mesh, dm, jump)
    want = np.zeros(dm.n_dofs)
    for e in range(demo.n_edges):
        assert seen[e].tobytes() == dm.edge_nodes(e).tobytes(), e
        want[dm.edge_dofs(e)] = jump(e, dm.edge_nodes(e))
    assert u.tobytes() == want.tobytes()


def two_edge_path():
    return g.build_graph([(0, 1, 1.0), (1, 2, 2.0)], {0, 2})


@pytest.mark.parametrize(
    "value, message",
    [
        (lambda e, x: 1.0, r"value on edge 0 has shape \(\), expected \(\d+,\)"),
        (lambda e, x: np.ones(len(x) + 1) if e == 1 else np.ones_like(x), r"value on edge 1 has shape"),
        (lambda e, x: np.full(len(x), "high"), r"value on edge 0 is not numeric"),
    ],
)
def test_malformed_edge_values_are_fem_errors(value, message):
    graph = two_edge_path()
    dm = fem.DofMap(graph, g.Mesh(3), {0, 2})
    ones = lambda e, x: np.ones_like(x)  # noqa: E731
    for coeffs in (g.CoefficientSet(a=value, b=ones, p=ones), g.CoefficientSet(a=ones, b=value, p=ones)):
        with pytest.raises(FemError, match=message):
            fem.assemble(graph, dm.mesh, dm, coeffs)
    with pytest.raises(FemError, match=message):
        fem.convection_vertex_sums(graph, value)


class WrongTable:
    """An edge function whose table form drops the last column."""

    def __call__(self, e, x):
        return np.ones_like(x)

    def on_edges(self, edges, x):
        return np.ones_like(x)[:, :-1]


def test_malformed_table_form_is_fem_error():
    graph = two_edge_path()
    dm = fem.DofMap(graph, g.Mesh(3), {0, 2})
    ones = lambda e, x: np.ones_like(x)  # noqa: E731
    coeffs = g.CoefficientSet(a=ones, b=ones, p=WrongTable())
    with pytest.raises(FemError, match=r"table form of .* has shape \(2, 11\), expected \(2, 12\)"):
        fem.assemble(graph, dm.mesh, dm, coeffs)
    with pytest.raises(FemError, match=r"table form of .* has shape \(2, 1\), expected \(2, 2\)"):
        fem.convection_vertex_sums(graph, WrongTable())
