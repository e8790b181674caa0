import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (
    SLICE_SCHEMES,
    assert_same_arrays,
    constant_coefficients,
    mass_matrix,
    reference_dof_split,
    reference_flux_imbalance,
    reference_step_matrices,
)
from test_manufactured import binary_tree
from test_timestep import tree_runtime

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
    edges = np.flatnonzero(weights)
    ids = (edges[:, None] * elements.per_edge + np.arange(elements.per_edge)).ravel()
    factor = np.repeat(weights[edges], elements.per_edge)
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
    data = fem.assemble(graph, mesh, dataclasses.replace(coeffs, f=f))
    factor = np.repeat(unit_weights(graph), data.elements.per_edge)
    return fem.LoadEvaluator(data, factor, np.arange(graph.n_edges), np.arange(dm.n_dofs))(t)


def free_dofs(dm):
    """Every dof but the Dirichlet ones, sorted."""
    return np.setdiff1d(np.arange(dm.n_dofs), dm.dirichlet_dofs)


def steady_solve(data, dm, boundary, load=None):
    """Solve K_ff u_f = F_f - K_fD g on the free rows of the stiffness; returns the full vector."""
    free, dirichlet = free_dofs(dm), dm.dirichlet_dofs
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
    dm = fem.DofMap(demo, g.Mesh(100))
    assert dm.n_dofs == 1010
    assert dm.dirichlet_dofs.tolist() == sorted(demo.boundary_vertices)
    assert len(free_dofs(dm)) == 1006


def test_dofmap_single_edge():
    graph = g.build_graph([(0, 1, 1.0)], {0, 1})
    dm = fem.DofMap(graph, g.Mesh(1))
    assert dm.n_dofs == 3
    assert dm.dirichlet_dofs.tolist() == [0, 1]
    assert len(free_dofs(dm)) == 1


def test_dofmap_no_dirichlet(demo):
    graph = g.build_graph([(edge.tail, edge.head, edge.length) for edge in demo.edges], set())
    dm = fem.DofMap(graph, g.Mesh(100))
    assert len(dm.dirichlet_dofs) == 0
    assert len(free_dofs(dm)) == 1010


def test_element_pairs_are_int32(demo):
    elements = fem.Elements(fem.DofMap(demo, g.Mesh(3)), fem.GAUSS3)
    assert elements.pair.dtype == np.int32
    assert elements.matrix(elements.mass).indices.dtype == np.int32
    with pytest.raises(FemError, match="do not fit the int32 indices"):
        fem.Elements(fem.DofMap(demo, g.Mesh(2**28)), fem.GAUSS3)


def test_dof_count_is_checked_before_numpy_could_overflow(demo):
    # a NumPy int64 count would wrap to a negative dof count and pass the int32 check
    with pytest.raises(FemError, match="do not fit the int32 indices"):
        fem.DofMap(demo, g.Mesh(np.int64(2**62)))
    with pytest.raises(FemError, match="nodes_per_edge must be an integer, not 2.5"):
        g.Mesh(2.5)
    assert type(g.Mesh(np.int32(3)).nodes_per_edge) is int


def test_mesh_needs_a_node_per_edge():
    with pytest.raises(FemError, match="nodes_per_edge must be at least 1"):
        g.Mesh(0)


def test_edge_dofs_order():
    graph = g.build_graph([(0, 1, 1.0), (1, 2, 1.0)], {0, 2})
    dm = fem.DofMap(graph, g.Mesh(3))
    assert list(dm.edge_dofs(0)) == [0, 3, 4, 5, 1]
    assert list(dm.edge_dofs(1)) == [1, 6, 7, 8, 2]
    assert np.allclose(dm.edge_nodes(0), [0, 0.25, 0.5, 0.75, 1.0])


def test_single_edge_stiffness_hand_values():
    # one unit edge, one interior node: dx = 1/2, element stiffness 2*[[1,-1],[-1,1]]
    graph = g.build_graph([(0, 1, 1.0)], {0, 1})
    dm = fem.DofMap(graph, g.Mesh(1))
    ops = full_operators(
        fem.assemble(graph, dm.mesh, constant_coefficients(a=1.0)), dm, unit_weights(graph)
    )
    path = dm.edge_dofs(0)  # tail, interior, head
    K = ops.stiffness.toarray()[np.ix_(path, path)]
    assert np.allclose(K, [[2, -2, 0], [-2, 4, -2], [0, -2, 2]], atol=1e-14)


def test_single_edge_mass_hand_values():
    # element mass dx/6 * [[2,1],[1,2]] with dx = 1/2
    graph = g.build_graph([(0, 1, 1.0)], {0, 1})
    dm = fem.DofMap(graph, g.Mesh(1))
    ops = full_operators(
        fem.assemble(graph, dm.mesh, constant_coefficients()), dm, unit_weights(graph)
    )
    path = dm.edge_dofs(0)
    M = ops.mass.toarray()[np.ix_(path, path)]
    expected = np.array([[2, 1, 0], [1, 4, 1], [0, 1, 2]]) / 12.0
    assert np.allclose(M, expected, atol=1e-14)


def test_assembly_matches_dense_oracle(demo, problem):
    mesh = g.Mesh(10)
    dm = fem.DofMap(demo, mesh)
    ops = full_operators(fem.assemble(demo, mesh, problem), dm, unit_weights(demo))
    Md, Kd, Cd, Pd = dense_assembly(demo, mesh, dm, problem.a, problem.b, problem.p)
    for sparse_mat, dense_mat in ((ops.mass, Md), (ops.stiffness, Kd), (ops.lower, Cd + Pd)):
        scale = np.abs(dense_mat).max()
        assert np.abs(sparse_mat.toarray() - dense_mat).max() <= 1e-12 * scale
    # the tests' mass matrix gives exactly the entries of the full assembly
    assert np.array_equal(mass_matrix(demo, mesh, dm).toarray(), ops.mass.toarray())


def test_load_matches_dense_oracle(demo, solution, problem):
    mesh = g.Mesh(7)
    dm = fem.DofMap(demo, mesh)
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
    dm = fem.DofMap(demo, mesh)
    M = mass_matrix(demo, mesh, dm)
    assert np.abs((M - M.T).toarray()).max() <= 1e-15
    assert np.all(M.diagonal() > 0)
    for _ in range(10):
        x = rng.standard_normal(dm.n_dofs)
        assert x @ (M @ x) > 0


def test_stiffness_psd_and_kernel(demo, problem, rng):
    mesh = g.Mesh(6)
    dm = fem.DofMap(demo, mesh)
    K = full_operators(fem.assemble(demo, mesh, problem), dm, unit_weights(demo)).stiffness
    for _ in range(10):
        x = rng.standard_normal(dm.n_dofs)
        assert x @ (K @ x) >= -1e-12
    ones = np.ones(dm.n_dofs)
    assert np.abs(K @ ones).max() <= 1e-12


def test_weighted_assembly_equals_scaled_parts(demo, partition, option1, problem):
    mesh = g.Mesh(4)
    dm = fem.DofMap(demo, mesh)
    data = fem.assemble(demo, mesh, problem)
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
    dm = fem.DofMap(demo, mesh)
    weights = g.zeta_weights(partition, option1, 0)  # only the left star active
    ops = full_operators(fem.assemble(demo, mesh, problem), dm, weights)
    for matrix in (ops.mass, ops.stiffness, ops.lower):
        for e in range(3, demo.n_edges):
            for dof in dm.edge_dofs(e)[1:-1]:
                assert matrix[dof].nnz == 0


def test_nonelliptic_rejected():
    graph = g.build_graph([(0, 1, 1.0), (1, 2, 1.0)], {0, 2}, edge_names=["left", "right"])
    dm = fem.DofMap(graph, g.Mesh(4))
    coeffs = g.CoefficientSet(
        a=lambda e, x: x - 0.5 if e == 1 else np.ones_like(x),  # changes sign on the second edge
        b=lambda e, x: np.zeros_like(x),
        p=lambda e, x: np.zeros_like(x),
    )
    with pytest.raises(NonellipticCoefficient, match="on edge right$"):
        fem.assemble(graph, dm.mesh, coeffs)
    # a runtime integrates every edge when it is built
    partition = g.SubgraphPartition(graph, [{0}, {1}])
    family = g.batch_family([{0}, {1}], [0.5, 0.5], 2)
    with pytest.raises(NonellipticCoefficient, match="on edge right$"):
        RbmRuntime(graph, partition, family, dm.mesh, coeffs)


@pytest.mark.parametrize("n", [1, 20, 1000])
def test_stiffness_sums_its_gauss_points_as_numpy_sum_does(n, demo, problem):
    """Each element's a-integral is bit for bit ``(a w).sum(axis=1)`` over its three Gauss points."""
    data = fem.assemble(demo, g.Mesh(n), problem)
    elements = data.elements
    inv_dx = np.repeat(1.0 / elements.dx, elements.per_edge)
    integral = (elements.sample(problem.a) * elements.wq).sum(axis=1)
    want = (integral * (inv_dx * inv_dx))[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert data.stiffness.tobytes() == want.tobytes()


def test_reduce_operators_free_rows_over_free_then_constrained(demo, partition, option1, problem):
    mesh = g.Mesh(5)
    dm = fem.DofMap(demo, mesh)
    data = fem.assemble(demo, mesh, problem)
    ops = full_operators(data, dm, unit_weights(demo))
    view = batch_view(partition, option1.batches, 4)
    weights = unit_weights(demo)
    factor = np.repeat(weights, data.elements.per_edge)
    vectors = tuple(data.elements.scatter(term, factor) for term in data.term_loads)
    reduced = fem.reduce_operators(data, view, factor)
    # the dof split: the batch's interface and exterior vertices, and the rest of its active dofs free
    active = set(view.vertices).union(*(dm.edge_dofs(e).tolist() for e in view.active_edges))
    assert reduced.interface.tolist() == sorted(view.interface)
    assert reduced.exterior.tolist() == sorted(view.exterior_boundary)
    assert reduced.free.tolist() == sorted(active - view.interface - view.exterior_boundary)
    assert reduced.n_active == len(active)
    # the fused layout: [free | interface | Dirichlet at t0 | Dirichlet at t1 | load terms]
    dt = 0.1
    lhs = (ops.mass + dt * ops.stiffness).toarray()
    rhs = (ops.mass - dt * ops.lower).toarray()
    loads = [vector[reduced.free] for vector in vectors]
    lhs_ff, w = reduced.step_matrices(fem.step_pair(data, factor, SEMI_IMPLICIT, dt), vectors)
    free, interface, dirichlet = reduced.free, reduced.interface, dm.dirichlet_dofs
    exterior = np.isin(dirichlet, reduced.exterior)
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
    assert np.array_equal(drive[reduced.exterior_t1], reduced.exterior)
    want_ff = lhs[np.ix_(free, free)]
    assert np.abs(lhs_ff.toarray() - want_ff).max() <= 1e-14 * np.abs(want_ff).max()
    # a free row with an entry in no column of W is refused, not handed to SuperLU as a negative index
    unlisted = dataclasses.replace(reduced, interface=interface[1:])
    with pytest.raises(fem.FemError, match="outside the batch's free, interface and Dirichlet dofs"):
        unlisted.step_matrices(fem.step_pair(data, factor, SEMI_IMPLICIT, dt), vectors)


@pytest.mark.parametrize("name", ["demo", "tree"])
def test_w_is_laid_out_as_scipy_lays_out_its_entries(name, demo, partition, option2, problem, rng, monkeypatch):
    """W's arrays are bit for bit those of ``csr_matrix((data, (rows, cols)))`` of the entries it is built from.

    ``step_matrices`` runs SciPy's COO->CSR kernel and its row sort itself,
    into W's final arrays; the entries handed to the kernel are caught on
    their way in, for every batch and scheme.
    """
    entries = []
    coo_tocsr = fem.coo_tocsr

    def catching(n_row, n_col, nnz, rows, cols, data, *out):
        entries.append((rows.copy(), cols.copy(), data.copy()))
        coo_tocsr(n_row, n_col, nnz, rows, cols, data, *out)

    monkeypatch.setattr(fem, "coo_tocsr", catching)
    if name == "demo":
        runtime, dt = RbmRuntime(demo, partition, option2, g.Mesh(100), problem), 0.002
    else:
        runtime, dt = tree_runtime(rng), 1e-3
    for scheme in (g.IMPLICIT_EULER, g.CRANK_NICOLSON, SEMI_IMPLICIT, g.theta_method(0.7)):
        for j in range(runtime.family.n_batches):
            _, w = runtime.step_matrices(runtime.system(j), scheme, dt)
            rows, cols, data = entries.pop()
            want = sp.csr_matrix((data, (rows, cols)), shape=w.shape)
            for got, reference in ((w.indptr, want.indptr), (w.indices, want.indices), (w.data, want.data)):
                assert got.dtype == reference.dtype and got.tobytes() == reference.tobytes(), (scheme.label, j)


def level_cut_runtime(depth, cut, mesh, rng):
    """A binary tree of ``depth``: the edges down to level ``cut`` form one part and each subtree below it another.

    The family is option two, each part alone and all of them, at uniform
    probabilities; the data are a random manufactured solution's.
    """
    tree = binary_tree(depth)

    def level(v):
        return (v + 1).bit_length() - 1

    parts: dict[int, set] = {}
    for k, edge in enumerate(tree.edges):
        root = edge.head
        while level(root) > cut:
            root = (root - 1) // 2
        parts.setdefault(-1 if level(edge.head) <= cut else root, set()).add(k)
    parts = [parts[key] for key in sorted(parts)]
    n = len(parts)
    family = g.batch_family([{i} for i in range(n)] + [set(range(n))], [1.0 / (n + 1)] * (n + 1), n)
    alpha, beta = rng.uniform(-5.0, 5.0, size=(2, tree.n_edges))
    coeffs = g.derive_data(g.build_solution(tree, alpha, beta))
    return RbmRuntime(tree, g.SubgraphPartition(tree, parts), family, mesh, coeffs)


@pytest.mark.parametrize("name", ["demo", "demo-callable", "tree"])
def test_step_matrices_and_dof_split_equal_their_public_definitions(name, demo, partition, option2, problem, rng):
    """Every batch's dof split is the all-dof mask's, and its (lhs_ff, W) SciPy's public slice of the pair, bit for bit.

    The demo runs option two at ``Mesh(20)``, with its separable source and
    with the same source behind a plain callable (no load columns); the tree
    is of depth 5, cut at level 2.
    """
    if name == "tree":
        runtime = level_cut_runtime(5, 2, g.Mesh(7), rng)
    else:
        coeffs = problem if name == "demo" else dataclasses.replace(problem, f=lambda e, x, t: problem.f(e, x, t))
        runtime = RbmRuntime(demo, partition, option2, g.Mesh(20), coeffs)
    assert len(runtime.term_vectors) == (0 if name == "demo-callable" else 2)
    for j in range(runtime.family.n_batches):
        system = runtime.system(j)
        free, n_active = reference_dof_split(runtime.dofmap, batch_view(runtime.partition, runtime.family.batches, j))
        assert system.free.dtype == free.dtype and np.array_equal(system.free, free), j
        assert system.n_active == n_active, j
    for scheme in SLICE_SCHEMES:
        pair = fem.step_pair(runtime.elements, runtime.factor, scheme, 0.01)
        for j in range(runtime.family.n_batches):
            system = runtime.system(j)
            got = system.step_matrices(pair, runtime.term_vectors)
            want = reference_step_matrices(system, pair, runtime.term_vectors)
            for matrix, got_one, want_one in zip(("lhs_ff", "W"), got, want):
                assert_same_arrays(got_one, want_one, (name, scheme.label, j, matrix))


def test_steady_single_edge_linear_exact():
    # -u'' = 0, u(0)=0, u(1)=1: P1 reproduces the linear solution at the nodes
    graph = g.build_graph([(0, 1, 1.0)], {0, 1})
    dm = fem.DofMap(graph, g.Mesh(9))
    data = fem.assemble(graph, dm.mesh, constant_coefficients(a=1.0))
    full = steady_solve(data, dm, np.array([0.0, 1.0]))
    assert np.abs(full[dm.edge_dofs(0)] - dm.edge_nodes(0)).max() <= 1e-12


def test_steady_graph_linear_exact(demo, rng):
    # constant diffusion, no source: the solution is edgewise linear and P1-exact
    g_values = rng.standard_normal(4)

    def solve(ne):
        dm = fem.DofMap(demo, g.Mesh(ne))
        data = fem.assemble(demo, dm.mesh, constant_coefficients(a=2.0))
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
        dm = fem.DofMap(demo, mesh)
        coeffs = g.derive_data(solution)
        ops = full_operators(fem.assemble(demo, mesh, coeffs), dm, unit_weights(demo))
        w_interp = fem.interpolate(dm, solution.w)
        rhs = lambda e, x, t: -(
            solution.a_dx(e, x) * solution.w_dx(e, x)
            + solution.a(e, x) * solution.w_dxx(e, x)
        )
        load = load_vector(demo, mesh, dm, coeffs, rhs, 0.0)
        res = ops.stiffness @ w_interp - load
        residuals.append(np.abs(res[free_dofs(dm)]).max())
    slope, _ = g.fit_slope([1.0 / (ne + 1) for ne in meshes], residuals)
    assert 1.6 <= slope <= 2.4


def test_kirchhoff_flux_imbalance_first_order(demo, solution):
    # one-sided P1 flux sums at interior vertices vanish at first order
    worst = []
    meshes = [25, 50, 100]
    for ne in meshes:
        mesh = g.Mesh(ne)
        dm = fem.DofMap(demo, mesh)
        coeffs = g.derive_data(solution)
        data = fem.assemble(demo, mesh, coeffs)
        rhs = lambda e, x, t: -(
            solution.a_dx(e, x) * solution.w_dx(e, x)
            + solution.a(e, x) * solution.w_dxx(e, x)
        )
        load = load_vector(demo, mesh, dm, coeffs, rhs, 0.0)
        boundary = solution.vertex_values()[dm.dirichlet_dofs]
        u = steady_solve(data, dm, boundary, load)
        imbalance = [reference_flux_imbalance(demo, mesh, dm, solution.a, u, v) for v in demo.interior_vertices]
        worst.append(max(abs(value) for value in imbalance))
    slope, _ = g.fit_slope([1.0 / (ne + 1) for ne in meshes], worst)
    assert 0.7 <= slope <= 1.3
    assert worst[0] > worst[-1]


def test_batch_system_dof_counts(demo, partition, option1, problem):
    runtime = RbmRuntime(demo, partition, option1, g.Mesh(100), problem)
    names = lambda dofs: {demo.vertex_name(v) for v in dofs}
    b1 = runtime.system(0)
    assert b1.n_active == 304
    assert names(b1.interface) == {"v4"}
    assert names(b1.exterior) == {"v1", "v2"}
    b5 = runtime.system(4)
    assert names(b5.interface) == {"v7"}
    assert names(b5.exterior) == {"v1", "v2"}
    assert b5.n_active == 7 * 100 + 7


def test_one_batch_system_is_the_whole_graph(demo, partition, single_batch, problem):
    runtime = RbmRuntime(demo, partition, single_batch, g.Mesh(10), problem)
    system, dm = runtime.system(0), runtime.dofmap
    assert system.n_active == dm.n_dofs
    assert np.array_equal(system.exterior, dm.dirichlet_dofs)
    assert np.array_equal(system.free, free_dofs(dm))
    assert len(system.interface) == 0


def test_interpolate_nodal_values(demo):
    mesh = g.Mesh(4)
    dm = fem.DofMap(demo, mesh)
    u = fem.interpolate(dm, lambda e, x: np.full_like(x, float(e)))
    for e in range(demo.n_edges):
        assert np.all(u[dm.edge_dofs(e)[1:-1]] == float(e))
    assert np.all(fem.interpolate(dm, None) == 0.0)


def test_convection_vertex_sums_vanish(demo, problem):
    sums = fem.convection_vertex_sums(demo, problem.b)
    assert np.abs(sums).max() <= 1e-15


def test_interpolate_reads_edge_nodes_and_keeps_the_last_edge_at_a_vertex(demo):
    """The node table rows are bitwise ``edge_nodes``; a shared vertex keeps the value an edge-by-edge pass wrote last."""
    mesh = g.Mesh(5)
    dm = fem.DofMap(demo, mesh)
    seen = {}

    def jump(e, x):  # discontinuous at every vertex
        seen[e] = x.copy()
        return np.sin(3.0 * x) + 10.0 * e

    u = fem.interpolate(dm, jump)
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
    dm = fem.DofMap(graph, g.Mesh(3))
    ones = lambda e, x: np.ones_like(x)  # noqa: E731
    for coeffs in (g.CoefficientSet(a=value, b=ones, p=ones), g.CoefficientSet(a=ones, b=value, p=ones)):
        with pytest.raises(FemError, match=message):
            fem.assemble(graph, dm.mesh, coeffs)
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
    dm = fem.DofMap(graph, g.Mesh(3))
    ones = lambda e, x: np.ones_like(x)  # noqa: E731
    coeffs = g.CoefficientSet(a=ones, b=ones, p=WrongTable())
    with pytest.raises(FemError, match=r"table form of .* has shape \(2, 11\), expected \(2, 12\)"):
        fem.assemble(graph, dm.mesh, coeffs)
    with pytest.raises(FemError, match=r"table form of .* has shape \(2, 1\), expected \(2, 2\)"):
        fem.convection_vertex_sums(graph, WrongTable())
