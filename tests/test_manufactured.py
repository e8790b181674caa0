import gc

import numpy as np
import pytest
from conftest import constant_coefficients, mass_norms_sq, reference_assemble, squared_errors

import graphrbm as g
from graphrbm import fem
from graphrbm.manufactured import (
    DEMO_CUBIC,
    DEMO_QUARTIC,
    EdgePolynomial,
    ElementMassNorms,
    L2ErrorEvaluator,
    lambda_profile,
)


def ones(e, x):
    return np.ones_like(np.asarray(x, dtype=float))


def exact_profile_sq_integral(solution):
    """Closed-form sum of integrals of w^2 over the edges (polynomial oracle)."""
    total = 0.0
    for e in range(solution.graph.n_edges):
        sq = np.polymul(solution.poly[e], solution.poly[e])
        anti = np.polyint(sq)
        length = solution.graph.edges[e].length
        total += np.polyval(anti, length) - np.polyval(anti, 0.0)
    return total


def reference_squared_error(graph, mesh, dofmap, solution, state, t, order=5):
    """Per-edge Gauss quadrature of |y(., t) - u|^2, one mesh element at a time.

    The direct form of the quadratic form in L2ErrorEvaluator: the 5-point
    rule per element is exact for the squared quartic mismatch.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    tau, wref = 0.5 * (1.0 + nodes), 0.5 * weights
    v = solution.time_factor(t)
    total = 0.0
    for e in range(graph.n_edges):
        dx = graph.edges[e].length / (mesh.nodes_per_edge + 1)
        xq = dx * np.arange(mesh.nodes_per_edge + 1)[:, None] + dx * tau[None, :]
        edofs = dofmap.edge_dofs(e)
        interp = state[edofs[:-1]][:, None] * (1.0 - tau) + state[edofs[1:]][:, None] * tau
        diff = solution.w(e, xq.ravel()).reshape(xq.shape) * v - interp
        total += float(((diff * diff) * (wref * dx)).sum())
    return total


def assert_matches_reference(traj, solution, rtol=1e-12):
    ev = L2ErrorEvaluator(fem.Elements(traj.dofmap, fem.GAUSS3), solution)
    got = squared_errors(ev, traj.states, traj.times)
    expected = np.array(
        [
            reference_squared_error(traj.graph, traj.mesh, traj.dofmap, solution, u, t)
            for u, t in zip(traj.states, traj.times)
        ]
    )
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= rtol * expected)
    return expected


def test_coefficient_tables_shape():
    assert len(DEMO_QUARTIC) == 10 and len(DEMO_CUBIC) == 10


def test_vertex_constraints_satisfied(solution):
    assert solution.continuity_residual() <= 1e-10
    assert solution.kirchhoff_residual() <= 1e-10


def test_single_edge_no_constraints():
    graph = g.build_graph([(0, 1, 1.0)], {0, 1})
    lower = g.solve_lower_coefficients(graph, ones, [1.0], [2.0])
    assert np.all(lower == 0.0)


def test_two_edge_path_hand_solution():
    # v1 - v2 - v3 with a = 1: continuity and flux at v2 give two equations;
    # the minimum-norm solution was computed by hand from A^T (A A^T)^{-1} b
    path = g.build_graph([(0, 1, 1.0), (1, 2, 1.0)], {0, 2})
    lower = g.solve_lower_coefficients(path, ones, [1.0, 0.0], [0.0, 0.0])
    expected = np.array([[-4.0 / 3.0, -7.0 / 15.0, 2.0 / 5.0], [0.0, 13.0 / 15.0, -2.0 / 5.0]])
    assert np.allclose(lower, expected, atol=1e-12)
    # homogeneous leading coefficients force the zero minimum-norm solution
    assert np.all(g.solve_lower_coefficients(path, ones, [0.0, 0.0], [0.0, 0.0]) == 0.0)


def dense_lower_coefficients(graph, a, alpha, beta):
    """The constraint rows as one dense matrix, solved with np.linalg.lstsq (oracle).

    Reads each edge's endpoint at v inline, (coordinate 0, sign -1) at its
    tail and (its length, sign +1) at its head, not from ``fem.Ends``.
    """

    def at(e, v):
        edge = graph.edges[e]
        return (0.0, -1.0) if v == edge.tail else (edge.length, 1.0)

    rows, rhs = [], []
    for v in sorted(graph.interior_vertices):
        adjacent = graph.adjacency(v)
        ref = adjacent[0]
        s_ref = at(ref, v)[0]
        for e in adjacent[1:]:
            s = at(e, v)[0]
            row = np.zeros(3 * graph.n_edges)
            row[3 * e : 3 * e + 3] += [s * s, s, 1.0]
            row[3 * ref : 3 * ref + 3] -= [s_ref * s_ref, s_ref, 1.0]
            rows.append(row)
            rhs.append(alpha[ref] * s_ref**4 + beta[ref] * s_ref**3 - alpha[e] * s**4 - beta[e] * s**3)
        row = np.zeros(3 * graph.n_edges)
        const = 0.0
        for e in adjacent:
            s, sign = at(e, v)
            weight = sign * float(a(e, np.array([s]))[0])
            row[3 * e : 3 * e + 3] += weight * np.array([2.0 * s, 1.0, 0.0])
            const += weight * (4.0 * alpha[e] * s**3 + 3.0 * beta[e] * s**2)
        rows.append(row)
        rhs.append(-const)
    lower = np.linalg.lstsq(np.vstack(rows), np.array(rhs), rcond=None)[0]
    return lower.reshape(graph.n_edges, 3)


def binary_tree(depth):
    inner = 2**depth - 1
    edges = [(v, 2 * v + c, 1.0) for v in range(inner) for c in (1, 2)]
    return g.build_graph(edges, {0, *range(inner, 2 * inner + 1)})


@pytest.mark.parametrize("name", ["demo", "tree", "two-cycle"])
def test_lower_coefficients_match_dense_lstsq(name, rng):
    if name == "demo":
        graph, alpha, beta = g.demo_graph(), np.array(DEMO_QUARTIC), np.array(DEMO_CUBIC)
    else:
        if name == "tree":
            graph = binary_tree(6)
        else:
            # v0 - v1 = v2 - v3, with the 2-cycle between v1 and v2
            edges = [(0, 1, 0.7), (1, 2, 1.3), (1, 2, 0.45), (2, 3, 1.9)]
            graph = g.build_graph(edges, {0, 3})
        alpha, beta = rng.uniform(-5.0, 5.0, size=(2, graph.n_edges))
    a = g.manufactured.diffusion_coefficient
    got = g.solve_lower_coefficients(graph, a, alpha, beta)
    expected = dense_lower_coefficients(graph, a, alpha, beta)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_edge_polynomial_table_is_polyval_per_row(rng):
    """``EdgePolynomial.on_edges`` gives each row bitwise ``np.polyval`` of its edge's coefficients."""
    coeffs = rng.uniform(-5.0, 5.0, size=(7, 5))
    coeffs[2, 0] = 0.0  # a vanishing leading coefficient
    edges = rng.integers(0, 7, size=12)  # repeats, in any order
    x = rng.uniform(-3.0, 3.0, size=(12, 9))
    x[:, 0] = 0.0
    x[:, 1] = -0.0
    given = x.copy()
    table = EdgePolynomial(coeffs).on_edges(edges, x)
    assert table.shape == x.shape
    for i, e in enumerate(edges):
        assert table[i].tobytes() == np.polyval(coeffs[e], x[i]).tobytes(), i
    assert x.tobytes() == given.tobytes()  # the table is not written to


@pytest.mark.parametrize("name", ["demo", "tree"])
def test_element_mass_norms_equal_the_mass_matrix_form(name, rng):
    graph = g.demo_graph() if name == "demo" else binary_tree(5)
    mesh = g.Mesh(7)
    dofmap = fem.DofMap(graph, mesh)
    norms = ElementMassNorms(fem.Elements(dofmap, fem.GAUSS3))
    states = rng.standard_normal((5, dofmap.n_dofs))
    kept = states.copy()
    mass = reference_assemble(graph, mesh, dofmap, constant_coefficients())[0]
    want = mass_norms_sq(mass, states)
    got = norms(states)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # the gathers leave the states as they were, and the scratch holds nothing over
    norms(rng.standard_normal((2, dofmap.n_dofs)))
    assert np.array_equal(states, kept) and np.array_equal(norms(states), got)


def test_time_factor_values(solution):
    # y = w sin(2 pi t) vanishes at t = 0 and equals w at t = 1/4
    assert solution.time_factor(0.0) == 0.0
    assert np.isclose(solution.time_factor(0.25), 1.0, rtol=1e-12)
    assert np.isclose(solution.time_factor_dt(0.0), 2.0 * np.pi, rtol=1e-12)
    # slope at the left endpoint is the linear coefficient
    for e in range(10):
        delta = solution.poly[e][3]
        assert np.isclose(float(solution.w_dx(e, np.array([0.0]))[0]), delta, rtol=1e-12, atol=1e-14)


def test_derived_data_compatibility(solution, problem):
    assert problem.y0 is None  # zero initial state
    assert np.abs(problem.g(0.0)).max() == 0.0
    bvals = problem.g(0.25)
    expected = solution.vertex_values()
    assert np.allclose(bvals, expected, rtol=1e-12)


def test_pde_residual_of_derived_source(solution, problem, rng):
    # dt y + spatial terms must reproduce f exactly at arbitrary points
    for _ in range(50):
        e = int(rng.integers(10))
        x = np.array([rng.random()])
        t = float(rng.random())
        v, v_dt = solution.time_factor(t), solution.time_factor_dt(t)
        w, w_dx = solution.w(e, x), solution.w_dx(e, x)
        residual = (
            w * v_dt
            - (solution.a_dx(e, x) * w_dx + solution.a(e, x) * solution.w_dxx(e, x)) * v
            + problem.b(e, x) * w_dx * v
            + problem.p(e, x) * w * v
            - problem.f(e, x, t)
        )
        assert abs(float(residual[0])) <= 1e-10


def test_l2_error_zero_state_closed_form(demo, solution):
    # against the zero state at the time of peak amplitude, the squared error
    # is the closed-form integral of w^2
    mesh = g.Mesh(40)
    dm = fem.DofMap(demo, mesh)
    ev = L2ErrorEvaluator(fem.Elements(dm, fem.GAUSS3), solution)
    got = ev.squared_error(np.zeros((1, dm.n_dofs)), [0.25])[0]
    assert np.isclose(got, exact_profile_sq_integral(solution), rtol=1e-12)


def test_l2_error_zero_at_time_zero(demo, solution):
    mesh = g.Mesh(10)
    dm = fem.DofMap(demo, mesh)
    ev = L2ErrorEvaluator(fem.Elements(dm, fem.GAUSS3), solution)
    assert ev.squared_error(np.zeros((1, dm.n_dofs)), [0.0])[0] == 0.0


def test_l2_error_interpolant_fourth_order(demo, solution):
    # squared L2 distance of the nodal interpolant decays at fourth order
    errors = []
    meshes = [10, 20, 40, 80]
    for ne in meshes:
        mesh = g.Mesh(ne)
        dm = fem.DofMap(demo, mesh)
        interp = fem.interpolate(
            dm, lambda e, x: solution.w(e, x) * solution.time_factor(0.25)
        )
        ev = L2ErrorEvaluator(fem.Elements(dm, fem.GAUSS3), solution)
        errors.append(ev.squared_error(interp[None, :], [0.25])[0])
    slope, _ = g.fit_slope([1.0 / (ne + 1) for ne in meshes], errors)
    assert abs(slope - 4.0) <= 0.3


def test_l2_error_matches_reference_on_rbm_trajectory(demo, partition, option2, solution, problem):
    config = g.RbmConfig(h=0.02, dt=0.01, t_final=0.3, scheme=g.IMPLICIT_EULER, seed=3)
    traj = g.run_rbm(demo, partition, option2, g.Mesh(20), problem, config)
    assert_matches_reference(traj, solution)


def test_l2_error_matches_reference_on_tiny_errors(demo, solution, problem):
    # a short Crank-Nicolson solve on a fine mesh: the errors fall to ~1e-14,
    # where an unshifted quadratic form would lose its digits to cancellation
    traj = g.run_full(demo, g.Mesh(100), problem, g.CRANK_NICOLSON, dt=1e-4, t_final=2e-3)
    expected = assert_matches_reference(traj, solution)
    assert 0.0 < expected[1:].min() < 1e-13
    summary = g.estimate_errors([traj], solution=solution)
    assert abs(summary.error1 - expected.max()) <= 1e-12 * expected.max()


def test_l2_error_matches_reference_on_non_unit_lengths(rng):
    # a star with unequal edge lengths and a random state stack
    graph = g.build_graph([(0, 1, 0.5), (1, 2, 1.7), (1, 3, 2.3), (3, 4, 0.8)], {0, 2, 4})
    solution = g.build_solution(graph, [3.0, -1.0, 0.5, 2.0], [-2.0, 1.0, 0.0, -1.0])
    mesh = g.Mesh(7)
    dm = fem.DofMap(graph, mesh)
    times = np.array([0.0, 0.1, 0.25, 0.6, 0.9])
    states = rng.standard_normal((len(times), dm.n_dofs))
    ev = L2ErrorEvaluator(fem.Elements(dm, fem.GAUSS3), solution)
    got = squared_errors(ev, states, times)
    for k, t in enumerate(times):
        expected = reference_squared_error(graph, mesh, dm, solution, states[k], t)
        assert abs(got[k] - expected) <= 1e-12 * expected


def test_error_references_take_one_block(demo, solution, problem, rng):
    """Both references take one (k, n) block of at most ``block_rows`` states with its k times, and nothing else."""
    traj = g.run_full(demo, g.Mesh(10), problem, g.IMPLICIT_EULER, dt=0.1, t_final=0.2)
    mesh, dm = traj.mesh, traj.dofmap
    ev = L2ErrorEvaluator(fem.Elements(dm, fem.GAUSS3), solution)
    state = rng.standard_normal((1, dm.n_dofs))
    got = ev.squared_error(state, [0.37])
    expected = reference_squared_error(demo, mesh, dm, solution, state[0], 0.37)
    assert got.shape == (1,) and abs(got[0] - expected) <= 1e-12 * expected
    for reference in (ev, g.engine._BaselineReference(fem.Elements(dm, fem.GAUSS3), traj, traj.times)):
        rows = reference.block_rows
        # the baseline takes its own stored times only, here each of them again and again
        times = np.linspace(0.0, 1.0, rows + 1) if reference is ev else np.resize(traj.times, rows + 1)
        states = rng.standard_normal((rows + 1, dm.n_dofs))
        # a full block agrees with one-row blocks; a block sums in another order, so only to rounding
        block = reference.squared_error(states[:rows], times[:rows])
        assert block.shape == (rows,)
        rows_one = np.array([reference.squared_error(states[k : k + 1], times[k : k + 1])[0] for k in range(rows)])
        assert np.allclose(block, rows_one, rtol=1e-13, atol=0.0)
        for bad_states, bad_times in ((states, times), (states[:2], times[:1]), (states[0], times[:1])):
            with pytest.raises(g.SolverError, match=f"block of at most {rows} states"):
                reference.squared_error(bad_states, bad_times)
        # a squared norm that rounds below zero is zero
        assert reference.squared_error(traj.state_at(0.0)[None, :], [0.0])[0] == 0.0


def test_l2_error_of_stored_trajectory_state(demo, solution, problem):
    traj = g.run_full(demo, g.Mesh(10), problem, g.IMPLICIT_EULER, dt=0.1, t_final=0.2)
    ev = L2ErrorEvaluator(fem.Elements(traj.dofmap, fem.GAUSS3), solution)
    assert ev.squared_error(traj.state_at(0.0)[None, :], [0.0])[0] == 0.0
    with pytest.raises(g.SolverError):
        ev.squared_error(traj.state_at(0.123)[None, :], [0.123])


def test_lambda_single_batch_vanishes(demo, partition, single_batch, solution, problem):
    t_grid = np.linspace(0.0, 1.0, 101)
    prof = lambda_profile(solution, problem, partition, single_batch, t_grid)
    assert np.abs(prof.values).max() == 0.0
    assert prof.l1 == 0.0


def test_lambda_nonnegative_and_positive_l1(demo, partition, option2, solution, problem):
    t_grid = np.linspace(0.0, 1.0, 501)
    prof = lambda_profile(solution, problem, partition, option2, t_grid)
    assert np.all(prof.values >= 0.0)
    assert prof.l1 > 0.0


def test_lambda_at_time_zero_source_term_only(demo, partition, option2, solution, problem):
    # at t = 0 the time factor vanishes, leaving only the source mismatch,
    # whose spatial part integrates w^2 in closed form
    t_grid = np.array([0.0, 0.5])
    prof = lambda_profile(solution, problem, partition, option2, t_grid)
    v_dt0 = 2.0 * np.pi
    expected = 0.0
    for j in range(option2.n_batches):
        kappa_sq = (1.0 - g.zeta_weights(partition, option2, j)) ** 2
        per_edge = []
        for e in range(demo.n_edges):
            sq = np.polymul(solution.poly[e], solution.poly[e])
            anti = np.polyint(sq)
            per_edge.append(np.polyval(anti, 1.0) - np.polyval(anti, 0.0))
        expected += option2.probs[j] * v_dt0**2 * float(kappa_sq @ np.asarray(per_edge))
    assert np.isclose(prof.values[0], expected, rtol=1e-10)


def test_lambda_grid_stability(demo, partition, option2, solution, problem):
    coarse = lambda_profile(solution, problem, partition, option2, np.linspace(0, 1, 1001))
    fine = lambda_profile(solution, problem, partition, option2, np.linspace(0, 1, 2001))
    assert abs(coarse.l1 - fine.l1) <= 0.01 * fine.l1


def test_leading_coefficients_validated():
    path = g.build_graph([(0, 1, 1.0), (1, 2, 1.0)], {0, 2})
    with pytest.raises(g.SolverError):
        g.solve_lower_coefficients(path, ones, [1.0], [0.0, 0.0])
    with pytest.raises(g.SolverError):
        g.demo_solution(path)


def test_parallel_edge_constraints_consistent():
    # two parallel edges whose endpoints are both interior still admit a
    # vertex-compatible quartic family
    graph = g.build_graph([(0, 1, 1.0), (0, 1, 1.0)], set())
    solution = g.build_solution(graph, [1.0, -1.0], [0.0, 0.0])
    assert solution.continuity_residual() <= 1e-10
    assert solution.kirchhoff_residual() <= 1e-10


def test_assembly_samples_each_edge_function_once(monkeypatch, rng):
    """derive_data's spatial term reuses assembly's samples of a, b, p and w, bitwise its own table form."""
    tree = binary_tree(3)
    alpha, beta = rng.uniform(-5.0, 5.0, size=(2, tree.n_edges))
    solution = g.build_solution(tree, alpha, beta)
    coeffs = g.derive_data(solution)
    dm = fem.DofMap(tree, g.Mesh(3))
    sampled = []
    table = fem.on_edges

    def recording(fn, edges, x):
        sampled.append(fn)
        return table(fn, edges, x)

    monkeypatch.setattr(fem, "on_edges", recording)
    gc.collect()
    gc.disable()
    try:
        data = fem.assemble(tree, dm.mesh, coeffs)
        # the tables go at the return, not when the cycle collector next runs
        assert gc.collect() == 0
    finally:
        gc.enable()
    parts = (coeffs.a, coeffs.b, coeffs.p, solution.w, solution.w_dx, solution.a_dx, solution.w_dxx)
    assert sorted(map(id, sampled)) == sorted(map(id, parts))
    monkeypatch.undo()
    spatial = coeffs.f.terms[1][0]
    assert np.array_equal(data.term_loads[1], data.elements.loads(data.elements.sample(spatial)))


def test_tree_problem_samples_only_table_forms(monkeypatch, rng):
    """Building and assembling the manufactured tree problem never calls an edge function per edge."""
    def refuse(self, e, x):
        raise AssertionError(f"per-edge call of {self!r} on edge {e}")

    for cls in (g.manufactured.SameOnEveryEdge, g.manufactured.EdgePolynomial, g.manufactured.SpatialOperator):
        monkeypatch.setattr(cls, "__call__", refuse)
    tree = binary_tree(4)
    alpha, beta = rng.uniform(-5.0, 5.0, size=(2, tree.n_edges))
    solution = g.build_solution(tree, alpha, beta)
    coeffs = g.derive_data(solution)
    mesh = g.Mesh(3)
    partition = g.SubgraphPartition(tree, [set(range(0, tree.n_edges, 2)), set(range(1, tree.n_edges, 2))])
    family = g.batch_family([{0}, {1}, {0, 1}], [0.25, 0.25, 0.5], 2)
    runtime = g.engine.RbmRuntime(tree, partition, family, mesh, coeffs)
    assert np.abs(runtime.convection_sums).max() <= 1e-14
    evaluator = L2ErrorEvaluator(fem.Elements(runtime.dofmap, fem.GAUSS3), solution)
    assert evaluator.squared_error(fem.interpolate(runtime.dofmap, solution.w)[None, :], [0.25])[0] > 0.0
    assert lambda_profile(solution, coeffs, partition, family, np.linspace(0.0, 1.0, 5)).l1 > 0.0
    with pytest.raises(AssertionError, match="per-edge call"):
        solution.w(0, np.zeros(2))
