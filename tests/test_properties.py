"""Solver invariants on generated graphs: trees, cycles and parallel edges.

Each example draws a graph with non-unit edge lengths, a random partition
of its edges and, for the multi-batch property, a random batch family.
Meshes and horizons are coarse so the whole module runs in seconds.
"""

import dataclasses

import numpy as np
import pytest
from conftest import (
    reference_batch_system,
    reference_continuity_residual,
    reference_convection_vertex_sums,
    reference_flux_imbalance,
    reference_kirchhoff_residual,
    reference_load,
    reference_lower_coefficients,
    reference_vertex_values,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_manufactured import reference_squared_error

import graphrbm as g
from graphrbm import fem
from graphrbm.decomposition import (
    batch_view,
    check_assumption_A1,
    sample_interior_points,
    verify_unbiased,
    zeta_weights,
)
from graphrbm.engine import RbmConfig, RbmRuntime
from graphrbm.manufactured import (
    LAMBDA_ELEMENTS_PER_EDGE,
    TWO_PI,
    InconsistentConstraints,
    L2ErrorEvaluator,
    ManufacturedSolution,
    lambda_profile,
    mass_norms_sq,
)
from graphrbm.timestep import imex_theta

ALL_SCHEMES = (g.IMPLICIT_EULER, g.CRANK_NICOLSON, g.theta_method(0.75), g.SEMI_IMPLICIT)
PROPERTY_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
MESH = g.Mesh(2)
DT = 0.05

lengths = st.floats(min_value=0.3, max_value=2.0, allow_nan=False, allow_infinity=False)
leading = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_subnormal=False)


@st.composite
def graphs(draw):
    """A tree (leaves are boundary), a cycle with any boundary, or a path with doubled edges."""
    kind = draw(st.sampled_from(["tree", "cycle", "parallel"]))
    n = draw(st.integers(min_value=3, max_value=6))
    if kind == "tree":
        pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        degree = np.bincount(np.array(pairs).ravel(), minlength=n)
        boundary = set(np.flatnonzero(degree == 1).tolist())
    elif kind == "cycle":
        pairs = [(v, (v + 1) % n) for v in range(n)]
        boundary = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    else:
        pairs = [(v, v + 1) for v in range(n - 1)]
        doubled = draw(st.lists(st.integers(0, n - 2), min_size=1, max_size=n - 1, unique=True))
        pairs += [pairs[v] for v in doubled]
        boundary = {0, n - 1}
    edges = [(t, h, draw(lengths)) for t, h in pairs]
    return g.build_graph(edges, boundary)


@st.composite
def partitions(draw, graph):
    """Random labels per edge, renumbered so every part is non-empty."""
    n_parts = draw(st.integers(1, min(4, graph.n_edges)))
    n = graph.n_edges
    labels = draw(st.lists(st.integers(0, n_parts - 1), min_size=n, max_size=n))
    _, labels = np.unique(labels, return_inverse=True)
    parts = [set(np.flatnonzero(labels == i).tolist()) for i in range(labels.max() + 1)]
    return g.SubgraphPartition(graph, parts)


@st.composite
def families(draw, n_parts):
    """One to four batches with random positive weights; every part is in some batch."""
    batch_sets = st.sets(st.integers(0, n_parts - 1), min_size=1, max_size=n_parts)
    batches = draw(st.lists(batch_sets, min_size=1, max_size=4))
    missing = set(range(n_parts)) - set().union(*batches)
    if missing:
        batches.append(missing)
    n = len(batches)
    weights = np.array(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
    return g.batch_family(batches, weights / weights.sum(), n_parts)


def problem_data(graph):
    """Smooth data with convection that vanishes at vertices, so the vertex sums are zero."""
    length = np.array([edge.length for edge in graph.edges])
    vertex_scale = 1.0 + 0.1 * np.arange(graph.n_vertices)
    return g.CoefficientSet(
        a=lambda e, x: 1.0 + 0.25 * np.cos(x),
        b=lambda e, x: 0.4 * np.sin(np.pi * np.asarray(x) / length[e]),
        p=lambda e, x: 1.0 + np.sin(x),
        f=g.SeparableSource(terms=((lambda e, x: 1.0 + x, np.cos),)),
        g=lambda t: np.sin(1.0 + t) * vertex_scale,
        y0=lambda e, x: np.sin(np.pi * np.asarray(x) / length[e]),
    )


@PROPERTY_SETTINGS
@given(data=st.data())
def test_single_batch_equals_full_solve(data):
    graph = data.draw(graphs())
    partition = data.draw(partitions(graph))
    single = g.batch_family([list(range(partition.n_parts))], [1.0], partition.n_parts)
    # the one-part, one-batch family is what run_full runs, so it matches bitwise
    whole = g.SubgraphPartition(graph, [range(graph.n_edges)])
    one_batch = g.batch_family([{0}], [1.0], 1)
    coeffs = problem_data(graph)
    for scheme in ALL_SCHEMES:
        full = g.run_full(graph, MESH, coeffs, scheme, dt=DT, t_final=0.2)
        config = RbmConfig(h=2 * DT, dt=DT, t_final=0.2, scheme=scheme, seed=3)
        rbm = g.run_rbm(graph, partition, single, MESH, coeffs, config)
        for k, t in enumerate(rbm.times):
            assert np.abs(rbm.states[k] - full.state_at(t)).max() <= 1e-12, scheme.label
        rbm = g.run_rbm(graph, whole, one_batch, MESH, coeffs, config)
        for k, t in enumerate(rbm.times):
            assert np.array_equal(rbm.states[k], full.state_at(t)), scheme.label
        assert rbm.stats == full.stats, scheme.label


@pytest.mark.filterwarnings("ignore:batch family leaves interior vertices uncovered")
@PROPERTY_SETTINGS
@given(data=st.data())
def test_windows_freeze_inactive_and_interface_dofs(data):
    graph = data.draw(graphs())
    partition = data.draw(partitions(graph))
    family = data.draw(families(partition.n_parts))
    seed = data.draw(st.integers(0, 2**32))
    coeffs = problem_data(graph)
    for scheme in ALL_SCHEMES:
        config = RbmConfig(h=2 * DT, dt=DT, t_final=0.4, scheme=scheme, seed=seed)
        traj = g.run_rbm(graph, partition, family, MESH, coeffs, config)
        for k, j in enumerate(traj.schedule.omegas):
            view = batch_view(partition, family.batches, int(j))
            before, after = traj.states[k], traj.states[k + 1]
            for e in set(range(graph.n_edges)) - view.active_edges:
                dofs = traj.dofmap.edge_dofs(e)[1:-1]
                assert np.array_equal(before[dofs], after[dofs]), (scheme.label, k, e)
            for v in (set(range(graph.n_vertices)) - view.vertices) | view.interface:
                assert after[v] == before[v], (scheme.label, k, v)
            boundary = coeffs.g(traj.times[k + 1])
            for v in view.exterior_boundary:
                assert after[v] == boundary[v], (scheme.label, k, v)


def sparsity(matrix):
    """The stored positions of a matrix, row by row in column order."""
    canonical = matrix.tocsr(copy=True)
    canonical.sum_duplicates()
    canonical.sort_indices()
    return canonical.indptr.tolist(), canonical.indices.tolist()


def assert_close(got, expected, what, rtol=1e-13):
    scale = np.abs(expected).max(initial=0.0)  # lhs_fc has no columns without constrained dofs
    assert np.abs(got - expected).max(initial=0.0) <= rtol * scale, what


@pytest.mark.filterwarnings("ignore:batch family leaves interior vertices uncovered")
@PROPERTY_SETTINGS
@given(data=st.data())
def test_batch_systems_equal_scaled_part_sums(data):
    """Every batch system against the per-edge assembly of its parts, scaled by 1/pi.

    Each step matrix must match ``imex_theta`` on those sparse reference
    operators to 1e-14 relative, with the same stored positions.
    """
    graph = data.draw(graphs())
    partition = data.draw(partitions(graph))
    family = data.draw(families(partition.n_parts))
    coeffs = problem_data(graph)
    runtime = RbmRuntime(graph, partition, family, MESH, coeffs)
    dofmap = runtime.dofmap
    # the same source, hidden behind a plain callable: integrated per call
    unseparated = fem.assemble(
        graph, MESH, dofmap, dataclasses.replace(coeffs, f=lambda e, x, t: coeffs.f(e, x, t))
    )
    for j in range(family.n_batches):
        system = runtime.system(j)
        constrained = np.concatenate([system.interface_dofs, system.exterior_dofs])
        expected = reference_batch_system(
            graph, partition, family, MESH, dofmap, coeffs, j, system.free, constrained
        )
        scattered = map(system.operators.scatter, system.operators.blocks())
        for name, got, want in zip(("mass", "stiffness", "lower"), scattered, expected):
            assert got.shape == want.shape, (j, name)
            assert sparsity(got) == sparsity(want), (j, name)
            assert_close(got.toarray(), want.toarray(), (j, name))
        n_free = len(system.free)
        for scheme in ALL_SCHEMES:
            for dt in (DT, 0.3):
                lhs, rhs = imex_theta(scheme, *expected, dt)
                wanted = (lhs[:, :n_free], lhs[:, n_free:], rhs)
                for k, (got, want) in enumerate(zip(system.step_matrices(scheme, dt), wanted)):
                    what = (j, scheme.label, dt, k)
                    assert got.shape == want.shape, what
                    # the factor nnz, and so the memory proxy, follows the pattern
                    assert sparsity(got) == sparsity(want), what
                    assert_close(got.toarray(), want.toarray(), what, rtol=1e-14)
        factor = g.zeta_weights(partition, family, j)
        unseparated_load = fem.LoadEvaluator(unseparated, factor, system.free)
        for t in (0.0, 0.37):
            want = reference_load(graph, MESH, dofmap, coeffs.f, t, factor)
            assert_close(system.load(t), want[system.free], (j, t))
            assert_close(unseparated_load(t), want[system.free], (j, t, "callable"))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_batch_dofs_equal_sorted_set_definitions(data):
    """Each batch's active and free dofs against their definitions as sorted sets."""
    graph = data.draw(graphs())
    partition = data.draw(partitions(graph))
    family = data.draw(families(partition.n_parts))
    dofmap = fem.DofMap(graph, MESH, graph.boundary_vertices)
    for j in range(family.n_batches):
        view = batch_view(partition, family.batches, j)
        bdofs = fem.restrict_to_batch(dofmap, view)
        active = set(view.vertices)
        for e in view.active_edges:
            active |= set(dofmap.edge_dofs(e).tolist())
        free = active - view.interface - view.exterior_boundary
        for got, want in ((bdofs.active, active), (bdofs.free, free)):
            assert got.dtype == np.intp, j
            assert got.tolist() == sorted(want), j
        assert bdofs.constrained.tolist() == sorted(view.interface) + sorted(view.exterior_boundary)


def manufactured_solution(data, graph):
    """A manufactured solution with drawn leading coefficients; None if the vertex conditions admit none."""
    per_edge = st.lists(leading, min_size=graph.n_edges, max_size=graph.n_edges)
    try:
        return g.build_solution(graph, data.draw(per_edge), data.draw(per_edge))
    except InconsistentConstraints:
        return None


@PROPERTY_SETTINGS
@given(data=st.data())
def test_manufactured_solution_meets_vertex_conditions(data):
    graph = data.draw(graphs())
    solution = manufactured_solution(data, graph)
    if solution is not None:
        assert solution.continuity_residual() <= 1e-10
        assert solution.kirchhoff_residual() <= 1e-10


@PROPERTY_SETTINGS
@given(data=st.data())
def test_batch_weights_unbiased(data):
    graph = data.draw(graphs())
    partition = data.draw(partitions(graph))
    family = data.draw(families(partition.n_parts))
    coeffs = problem_data(graph)
    points = sample_interior_points(graph, 50, seed=data.draw(st.integers(0, 2**32)))
    for psi in (lambda e, x: np.ones_like(x), coeffs.a, coeffs.b, coeffs.p):
        assert verify_unbiased(partition, family, psi, points) <= 1e-14


@PROPERTY_SETTINGS
@given(data=st.data())
def test_l2_error_matches_elementwise_quadrature(data):
    graph = data.draw(graphs())
    solution = manufactured_solution(data, graph)
    if solution is None:
        return
    dofmap = fem.DofMap(graph, MESH, graph.boundary_vertices)
    evaluator = L2ErrorEvaluator(graph, MESH, dofmap, solution)
    interpolant = fem.interpolate(graph, MESH, dofmap, solution.w)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    times = np.array([0.1, 0.37, 0.8])
    # states near the exact solution, where the error form must not lose digits
    states = np.sin(TWO_PI * times)[:, None] * interpolant + 1e-3 * rng.standard_normal(
        (len(times), dofmap.n_dofs)
    )
    stacked = evaluator.squared_error(states, times)
    for k, (u, t) in enumerate(zip(states, times)):
        want = reference_squared_error(graph, MESH, dofmap, solution, u, t)
        for got in (stacked[k], evaluator.squared_error(u, t)):
            assert abs(got - want) <= 1e-12 * want, (k, got, want)


def per_edge_lambda(solution, coeffs, partition, family, t_grid):
    """The variance functional with one 5-point Gauss pass per edge: the oracle for lambda_profile."""
    graph = solution.graph
    nodes, weights = np.polynomial.legendre.leggauss(5)
    tau, wref = 0.5 * (1.0 + nodes), 0.5 * weights
    integrals = np.zeros((4, graph.n_edges))  # operator terms, w^2, w Lw, Lw^2
    for e in range(graph.n_edges):
        dx = graph.edges[e].length / LAMBDA_ELEMENTS_PER_EDGE
        xq = (dx * np.arange(LAMBDA_ELEMENTS_PER_EDGE)[:, None] + dx * tau[None, :]).ravel()
        wq = np.tile(wref * dx, LAMBDA_ELEMENTS_PER_EDGE)
        w = solution.w(e, xq)
        wx = solution.w_dx(e, xq)
        flux = solution.a_dx(e, xq) * wx + solution.a(e, xq) * solution.w_dxx(e, xq)
        conv = coeffs.b(e, xq) * wx
        react = coeffs.p(e, xq) * w
        lw = -flux + conv + react
        integrals[:, e] = [
            (flux**2 + conv**2 + react**2) @ wq,
            (w**2) @ wq,
            (w * lw) @ wq,
            (lw**2) @ wq,
        ]
    v = np.sin(TWO_PI * t_grid)
    v_dt = TWO_PI * np.cos(TWO_PI * t_grid)
    values = np.zeros_like(t_grid)
    for j in range(family.n_batches):
        op, w_sq, w_lw, lw_sq = integrals @ (1.0 - zeta_weights(partition, family, j)) ** 2
        values += family.probs[j] * (v**2 * (op + lw_sq) + 2.0 * v * v_dt * w_lw + v_dt**2 * w_sq)
    return values


@PROPERTY_SETTINGS
@given(data=st.data())
def test_lambda_profile_matches_per_edge_quadrature(data):
    graph = data.draw(graphs())
    partition = data.draw(partitions(graph))
    family = data.draw(families(partition.n_parts))
    solution = manufactured_solution(data, graph)
    if solution is None:
        return
    coeffs = g.derive_data(solution)
    t_grid = np.linspace(0.0, 1.0, 41)
    got = lambda_profile(solution, coeffs, partition, family, t_grid).values
    want = per_edge_lambda(solution, coeffs, partition, family, t_grid)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def assert_bitwise(got, want, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), what


@PROPERTY_SETTINGS
@given(data=st.data())
def test_vertex_quantities_equal_per_vertex_loops(data):
    """Every quantity read off ``fem.Ends`` against the per-vertex loop it replaced, bitwise."""
    graph = data.draw(graphs())
    c = data.draw(st.floats(min_value=0.5, max_value=2.0))
    # smooth coefficients with different values at the two ends of every edge
    a = lambda e, x: 1.0 + 0.25 * np.cos(c * np.asarray(x) + e)
    b = lambda e, x: 0.4 * np.sin(c * np.asarray(x) - e)
    sums = fem.convection_vertex_sums(graph, b)
    assert_bitwise(sums, reference_convection_vertex_sums(graph, b), "convection")

    dofmap = fem.DofMap(graph, MESH, graph.boundary_vertices)
    state = np.random.default_rng(data.draw(st.integers(0, 2**32))).standard_normal(dofmap.n_dofs)
    imbalance = fem.kirchhoff_flux_imbalance(graph, MESH, dofmap, a, state)
    for v in range(graph.n_vertices):
        interior = v in graph.interior_vertices
        want = reference_flux_imbalance(graph, MESH, dofmap, a, state, v) if interior else 0.0
        assert_bitwise(imbalance[v], want, ("flux", v))

    # quartics that meet no vertex condition, so both residuals are far from zero
    n = graph.n_edges
    poly = np.array(data.draw(st.lists(leading, min_size=5 * n, max_size=5 * n))).reshape(n, 5)
    solution = ManufacturedSolution(graph, poly, a, lambda e, x: np.zeros_like(x))
    assert_bitwise(solution.vertex_values(), reference_vertex_values(solution), "values")
    assert_bitwise(solution.continuity_residual(), reference_continuity_residual(solution), "spread")
    assert_bitwise(solution.kirchhoff_residual(), reference_kirchhoff_residual(solution), "kirchhoff")

    alpha, beta = poly[:, 0], poly[:, 1]
    try:
        lower = g.solve_lower_coefficients(graph, a, alpha, beta)
    except InconsistentConstraints:
        return
    assert_bitwise(lower, reference_lower_coefficients(graph, a, alpha, beta), "lower")


@pytest.mark.filterwarnings("ignore:batch family leaves interior vertices uncovered")
@PROPERTY_SETTINGS
@given(data=st.data())
def test_assumption_a1_matches_brute_force(data):
    """Each interior vertex is covered by the first batch whose active edges hold all its edges."""
    graph = data.draw(graphs())
    partition = data.draw(partitions(graph))
    family = data.draw(families(partition.n_parts))
    witnesses, violations = {}, []
    for v in sorted(graph.interior_vertices):
        touching = {e for e, edge in enumerate(graph.edges) if v in (edge.tail, edge.head)}
        covering = [
            j
            for j, batch in enumerate(family.batches)
            if touching <= set().union(*(partition.parts[i] for i in batch))
        ]
        if covering:
            witnesses[v] = covering[0]
        else:
            violations.append(v)
    report = check_assumption_A1(partition, family.batches)
    assert report.holds == (not violations)
    assert report.witnesses == witnesses
    assert report.violations == tuple(violations)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_full_solve_energy_does_not_increase_without_data(data):
    """u^T M u of the implicit full solves never grows for a > 0, b = 0, p >= 0 and zero f, g."""
    graph = data.draw(graphs())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    length = np.array([edge.length for edge in graph.edges])
    # random vertex values, zero at the Dirichlet vertices, plus a random sine pair per edge
    r = rng.standard_normal(graph.n_vertices)
    r[list(graph.boundary_vertices)] = 0.0
    sines = rng.standard_normal((graph.n_edges, 2))

    def y0(e, x):
        s = np.asarray(x, dtype=float) / length[e]
        tail, head = r[graph.edges[e].tail], r[graph.edges[e].head]
        return tail + (head - tail) * s + sines[e] @ np.sin(np.pi * np.outer([1.0, 2.0], s))

    base = problem_data(graph)
    zero = lambda e, x: np.zeros_like(np.asarray(x, dtype=float))
    coeffs = g.CoefficientSet(a=base.a, b=zero, p=base.p, y0=y0)
    for scheme in (g.IMPLICIT_EULER, g.CRANK_NICOLSON):
        traj = g.run_full(graph, MESH, coeffs, scheme, dt=DT, t_final=0.5)
        energy = mass_norms_sq(fem.mass_matrix(graph, MESH, traj.dofmap), traj.states)
        assert energy[0] > 0.0
        assert np.all(np.diff(energy) <= 1e-12 * energy[0]), scheme.label
