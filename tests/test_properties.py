"""Solver invariants on generated graphs: trees, cycles and parallel edges.

Each example draws a graph with non-unit edge lengths, a random partition
of its edges and, for the multi-batch property, a random batch family.
Meshes and horizons are coarse so the whole module runs in seconds.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (
    SLICE_SCHEMES,
    assert_same_arrays,
    batch_load,
    mass_matrix,
    mass_norms_sq,
    reference_batch_system,
    reference_growth_rate,
    reference_states,
    reference_step_matrices,
    reference_continuity_residual,
    reference_convection_vertex_sums,
    reference_dof_split,
    reference_kirchhoff_residual,
    reference_load,
    reference_lower_coefficients,
    reference_vertex_values,
    squared_errors,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_manufactured import reference_squared_error

import graphrbm as g
from graphrbm import fem, manufactured
from graphrbm.decomposition import (
    batch_view,
    check_assumption_A1,
    sample_interior_points,
    verify_unbiased,
    zeta_weights,
)
from graphrbm.engine import BLOWUP_FACTOR, RbmConfig, RbmRuntime
from graphrbm.manufactured import (
    LAMBDA_ELEMENTS_PER_EDGE,
    TWO_PI,
    InconsistentConstraints,
    L2ErrorEvaluator,
    ManufacturedSolution,
    lambda_profile,
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
def graphs(draw, kinds=("tree", "cycle", "parallel")):
    """A tree (leaves are boundary), a cycle with any boundary, or a path with doubled edges."""
    kind = draw(st.sampled_from(kinds))
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


@pytest.mark.filterwarnings("ignore:batch family leaves interior vertices uncovered")
@PROPERTY_SETTINGS
@given(data=st.data())
def test_fused_steps_match_two_matvec_recurrence(data):
    """Stored states of run_rbm and run_full against the two-matvec step loop, to 1e-12 of max |oracle|.

    Draws a separable or callable source, zero or nonzero g, and the
    snapshot stride; five windows of two steps leave a tail at stride 3.
    """
    graph = data.draw(graphs())
    partition = data.draw(partitions(graph))
    family = data.draw(families(partition.n_parts))
    coeffs = problem_data(graph)
    if data.draw(st.booleans(), label="callable source"):
        separable = coeffs.f
        coeffs = dataclasses.replace(coeffs, f=lambda e, x, t: separable(e, x, t))
    if data.draw(st.booleans(), label="g is None"):
        coeffs = dataclasses.replace(coeffs, g=None)
    stride = data.draw(st.sampled_from([1, 3]), label="stride")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    runtime = RbmRuntime(graph, partition, family, MESH, coeffs)
    whole = g.SubgraphPartition(graph, [range(graph.n_edges)])
    one_batch = g.batch_family([{0}], [1.0], 1)
    full_runtime = RbmRuntime(graph, whole, one_batch, MESH, coeffs)
    for scheme in ALL_SCHEMES:
        config = RbmConfig(h=2 * DT, dt=DT, t_final=0.5, scheme=scheme, seed=seed, snapshot_stride=stride)
        rbm = g.run_rbm(graph, partition, family, MESH, coeffs, config, runtime=runtime)
        full = g.run_full(graph, MESH, coeffs, scheme, dt=DT, t_final=0.5, snapshot_stride=stride)
        for traj, oracle in (
            (rbm, reference_states(runtime, rbm.schedule.omegas, 2, scheme, DT, 2 * stride)),
            (full, reference_states(full_runtime, [0], 10, scheme, DT, stride)),
        ):
            times, states = oracle
            what = (scheme.label, traj.config["kind"])
            assert np.array_equal(traj.times, times), what
            scale = np.abs(states).max()
            assert np.abs(traj.states - states).max() <= 1e-12 * scale, what


def sparsity(matrix):
    """The stored positions of a matrix, row by row in column order."""
    canonical = matrix.tocsr(copy=True)
    canonical.sum_duplicates()
    canonical.sort_indices()
    return canonical.indptr.tolist(), canonical.indices.tolist()


def assert_close(got, expected, what, rtol=1e-13):
    scale = np.abs(expected).max(initial=0.0)
    assert np.abs(got - expected).max(initial=0.0) <= rtol * scale, what


@pytest.mark.filterwarnings("ignore:batch family leaves interior vertices uncovered")
@PROPERTY_SETTINGS
@given(data=st.data())
def test_batch_systems_equal_scaled_part_sums(data):
    """Every batch system against the per-edge assembly of its parts, scaled by 1/pi.

    The step matrices lhs_ff and W that ``runtime.step_matrices`` slices
    out of the runtime's step pair must match ``imex_theta`` on those sparse reference operators
    to 1e-14 relative, with their stored positions, W's load columns the
    reference load of each source term to 1e-13.  The runtime builds one
    pair per (scheme, dt), which every batch slices once, and again for
    runs, which every realization and window length share; each batch's
    growth bound is that of its own element blocks, and its edges are its
    view's active edges.
    """
    graph = data.draw(graphs())
    partition = data.draw(partitions(graph))
    family = data.draw(families(partition.n_parts))
    coeffs = problem_data(graph)
    runtime = RbmRuntime(graph, partition, family, MESH, coeffs)
    dofmap = runtime.dofmap
    n_dirichlet = len(dofmap.dirichlet_dofs)
    # the same source, hidden behind a plain callable: integrated per call
    unseparated = fem.assemble(
        graph, MESH, dataclasses.replace(coeffs, f=lambda e, x, t: coeffs.f(e, x, t))
    )
    with mock.patch.object(fem, "step_pair", wraps=fem.step_pair) as built:
        for j in range(family.n_batches):
            system = runtime.system(j)
            # the system's edges are its view's active edges, sorted
            assert system.edges.tolist() == sorted(batch_view(partition, family.batches, j).active_edges)
            free, interface, exterior = system.free, system.interface, system.exterior
            n_free, n_fixed = len(free), len(free) + len(interface)
            constrained = np.concatenate([interface, exterior])
            expected = reference_batch_system(
                graph, partition, family, MESH, dofmap, coeffs, j, free, constrained
            )
            factor = g.zeta_weights(partition, family, j)
            vectors = [
                reference_load(graph, MESH, dofmap, lambda e, x, t, s=space: s(e, x), 0.0, factor)[free]
                for space, _ in coeffs.f.terms
            ]
            # each exterior column of the reference goes to its Dirichlet column of W, at t0 and at t1
            to_dirichlet = sp.csr_matrix(
                (np.ones(len(exterior)), (np.arange(len(exterior)), np.searchsorted(dofmap.dirichlet_dofs, exterior))),
                shape=(len(exterior), n_dirichlet),
            )
            for scheme in ALL_SCHEMES:
                for dt in (DT, 0.3):
                    lhs, rhs = imex_theta(scheme, *expected, dt)
                    want = sp.hstack(
                        [
                            rhs[:, :n_free],
                            rhs[:, n_free:n_fixed] - lhs[:, n_free:n_fixed],
                            rhs[:, n_fixed:] @ to_dirichlet,
                            -lhs[:, n_fixed:] @ to_dirichlet,
                            sp.csr_matrix(np.column_stack(vectors)),
                        ],
                        format="csr",
                    )
                    lhs_ff, w = runtime.step_matrices(runtime.system(j), scheme, dt)
                    what = (j, scheme.label, dt)
                    # lhs_ff goes to SuperLU as it is; W multiplies by rows
                    assert (lhs_ff.format, w.format) == ("csc", "csr"), what
                    # the factor nnz, and so the memory proxy, follows the pattern
                    for got, reference in ((lhs_ff, lhs[:, :n_free]), (w, want)):
                        assert got.shape == reference.shape, what
                        assert sparsity(got) == sparsity(reference), what
                    assert_close(lhs_ff.toarray(), lhs[:, :n_free].toarray(), what, rtol=1e-14)
                    w, want = w.toarray(), want.toarray()
                    n_loads = len(vectors)
                    assert_close(w[:, :-n_loads], want[:, :-n_loads], what, rtol=1e-14)
                    assert_close(w[:, -n_loads:], want[:, -n_loads:], (what, "load"))
            assert runtime.growth_rate(j) == reference_growth_rate(runtime, j), j
            # a separable source is its term vectors alone; only the callable one is integrated per call
            assert system.load is None
            assert len(runtime.term_vectors) == len(vectors)
            for k, vector in enumerate(vectors):
                assert_close(runtime.term_vectors[k][free], vector, (j, "term", k))
            unseparated_load = fem.LoadEvaluator(unseparated, runtime.factor, system.edges, system.free)
            for t in (0.0, 0.37):
                want = reference_load(graph, MESH, dofmap, coeffs.f, t, factor)
                assert_close(batch_load(runtime, system, t), want[system.free], (j, t))
                assert_close(unseparated_load(t), want[system.free], (j, t, "callable"))
        # every batch has sliced every pair, so none is kept
        assert built.call_count == 2 * len(ALL_SCHEMES) and not runtime._pairs
        for h, seed in ((DT, 1), (2 * DT, 2), (2 * DT, 3)):
            config = RbmConfig(h=h, dt=DT, t_final=4 * DT, scheme=g.CRANK_NICOLSON, seed=seed)
            g.run_rbm(graph, partition, family, MESH, coeffs, config, runtime=runtime)
        assert built.call_count == 2 * len(ALL_SCHEMES) + 1


@pytest.mark.filterwarnings("ignore:batch family leaves interior vertices uncovered")
@PROPERTY_SETTINGS
@given(data=st.data())
def test_cold_and_warm_runtimes_store_bitwise_equal_states(data):
    """A covering schedule on a fresh runtime and on one that ran another window length first: equal bits."""
    graph = data.draw(graphs(kinds=["tree"]))
    partition = data.draw(partitions(graph))
    family = data.draw(families(partition.n_parts))
    coeffs = problem_data(graph)
    n_windows = 2 * family.n_batches
    covering = g.SampledSchedule(omegas=np.arange(n_windows) % family.n_batches, seed=0)
    warm = RbmRuntime(graph, partition, family, MESH, coeffs)
    for scheme in ALL_SCHEMES:
        other = RbmConfig(h=2 * DT, dt=DT, t_final=8 * DT, scheme=scheme, seed=1)
        g.run_rbm(graph, partition, family, MESH, coeffs, other, runtime=warm)
        config = RbmConfig(h=DT, dt=DT, t_final=n_windows * DT, scheme=scheme, seed=0)
        cold = g.run_rbm(graph, partition, family, MESH, coeffs, config, schedule=covering)
        warmed = g.run_rbm(graph, partition, family, MESH, coeffs, config, schedule=covering, runtime=warm)
        assert np.array_equal(cold.times, warmed.times), scheme.label
        assert np.array_equal(cold.states, warmed.states), scheme.label


@pytest.mark.filterwarnings("ignore:batch family leaves interior vertices uncovered")
@PROPERTY_SETTINGS
@given(data=st.data())
def test_step_matrices_and_dof_split_equal_their_public_definitions(data):
    """Every batch's dof split is the all-dof mask's, and its (lhs_ff, W) SciPy's public slice of the pair, bit for bit."""
    graph = data.draw(graphs())
    partition = data.draw(partitions(graph))
    family = data.draw(families(partition.n_parts))
    runtime = RbmRuntime(graph, partition, family, MESH, problem_data(graph))
    for j in range(family.n_batches):
        free, n_active = reference_dof_split(runtime.dofmap, batch_view(partition, family.batches, j))
        system = runtime.system(j)
        assert system.free.dtype == free.dtype and np.array_equal(system.free, free), j
        assert system.n_active == n_active, j
    for scheme in SLICE_SCHEMES:
        pair = fem.step_pair(runtime.elements, runtime.factor, scheme, DT)
        for j in range(family.n_batches):
            system = runtime.system(j)
            got = system.step_matrices(pair, runtime.term_vectors)
            want = reference_step_matrices(system, pair, runtime.term_vectors)
            for matrix, got_one, want_one in zip(("lhs_ff", "W"), got, want):
                assert_same_arrays(got_one, want_one, (scheme.label, j, matrix))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_batch_dofs_equal_sorted_set_definitions(data):
    """Each batch system's dof split against its definitions as sorted sets."""
    graph = data.draw(graphs())
    partition = data.draw(partitions(graph))
    family = data.draw(families(partition.n_parts))
    runtime = RbmRuntime(graph, partition, family, MESH, problem_data(graph))
    for j in range(family.n_batches):
        view = batch_view(partition, family.batches, j)
        system = runtime.system(j)
        active = set(view.vertices)
        for e in view.active_edges:
            active |= set(runtime.dofmap.edge_dofs(e).tolist())
        free = active - view.interface - view.exterior_boundary
        assert system.free.dtype == np.intp, j
        assert system.free.tolist() == sorted(free), j
        assert system.interface.tolist() == sorted(view.interface), j
        assert system.exterior.tolist() == sorted(view.exterior_boundary), j
        split = np.concatenate([system.free, system.interface, system.exterior])
        assert sorted(split.tolist()) == sorted(active), j
        assert system.n_active == len(active), j


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
    dofmap = fem.DofMap(graph, MESH)
    evaluator = L2ErrorEvaluator(fem.Elements(dofmap, fem.GAUSS3), solution)
    interpolant = fem.interpolate(dofmap, solution.w)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    times = np.array([0.1, 0.37, 0.8])
    # states near the exact solution, where the error form must not lose digits
    states = np.sin(TWO_PI * times)[:, None] * interpolant + 1e-3 * rng.standard_normal(
        (len(times), dofmap.n_dofs)
    )
    stacked = squared_errors(evaluator, states, times)
    for k, (u, t) in enumerate(zip(states, times)):
        want = reference_squared_error(graph, MESH, dofmap, solution, u, t)
        for got in (stacked[k], evaluator.squared_error(u[None, :], [t])[0]):
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
        energy = mass_norms_sq(mass_matrix(graph, MESH, traj.dofmap), traj.states)
        assert energy[0] > 0.0
        assert np.all(np.diff(energy) <= 1e-12 * energy[0]), scheme.label


@pytest.mark.filterwarnings("ignore:batch family leaves interior vertices uncovered")
@PROPERTY_SETTINGS
@given(data=st.data())
def test_growing_solutions_raise_no_false_alarm(data):
    """Implicit Euler runs with p <= -60 and convection grow past BLOWUP_FACTOR times their data, and return.

    p = -60 outgrows the diffusion of the shortest graphs drawn by far; a
    raise of NumericalBlowup here is a false alarm.
    """
    graph = data.draw(graphs())
    partition = data.draw(partitions(graph))
    family = data.draw(families(partition.n_parts))
    rate = data.draw(st.floats(min_value=60.0, max_value=70.0), label="-p")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    reaction = lambda e, x: np.full_like(np.asarray(x, dtype=float), -rate)
    coeffs = dataclasses.replace(problem_data(graph), p=reaction)
    dt, t_final = 0.005, 0.75
    config = RbmConfig(h=2 * dt, dt=dt, t_final=t_final, scheme=g.IMPLICIT_EULER, seed=seed)
    for traj in (
        g.run_full(graph, MESH, coeffs, g.IMPLICIT_EULER, dt=dt, t_final=t_final),
        g.run_rbm(graph, partition, family, MESH, coeffs, config),
    ):
        # past the limit of a run that may not grow, so the guard weighs the growth allowance
        scale = np.abs(traj.states[0]).max() + max(np.abs(coeffs.g(t)).max() for t in traj.times)
        assert np.abs(traj.states).max() > BLOWUP_FACTOR * scale, traj.config["kind"]


def plain(fn):
    """``fn`` without its table form, so ``fem.on_edges`` calls it once per edge."""
    return lambda e, x: fn(e, x)


def random_solution(data, graph):
    """Quartics with drawn coefficients and the stock diffusion; no vertex condition needed."""
    n = graph.n_edges
    poly = np.array(data.draw(st.lists(leading, min_size=5 * n, max_size=5 * n))).reshape(n, 5)
    return ManufacturedSolution(
        graph, poly, manufactured.diffusion_coefficient, manufactured.diffusion_coefficient_dx
    )


@PROPERTY_SETTINGS
@given(data=st.data())
def test_manufactured_tables_equal_per_edge_calls(data):
    """Every manufactured edge function's table form is bitwise its per-edge calls, on all edges or any subset."""
    graph = data.draw(graphs())
    solution = random_solution(data, graph)
    c = data.draw(st.floats(min_value=0.5, max_value=2.0))
    edge_b = lambda e, x: 0.4 * np.sin(c * np.asarray(x) - e)  # noqa: E731
    functions = [
        solution.w,
        solution.w_dx,
        solution.w_dxx,
        manufactured.diffusion_coefficient,
        manufactured.diffusion_coefficient_dx,
        manufactured.convection_coefficient,
        manufactured.reaction_coefficient,
        g.derive_data(solution).f.terms[1][0],
        g.derive_data(solution, b=edge_b).f.terms[1][0],  # a plain b inside the table form
    ]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    subset = data.draw(st.lists(st.integers(0, graph.n_edges - 1), min_size=1, max_size=graph.n_edges))
    for edges in (np.arange(graph.n_edges), np.array(subset)):
        x = rng.uniform(0.0, 2.0, size=(len(edges), data.draw(st.integers(1, 7))))
        for k, fn in enumerate(functions):
            want = np.array([fn(int(e), x[i]) for i, e in enumerate(edges)])
            assert np.array_equal(fn.on_edges(edges, x), want), k
            assert np.array_equal(fem.on_edges(fn, edges, x), want), k


@PROPERTY_SETTINGS
@given(data=st.data())
def test_per_edge_path_gives_bitwise_the_table_results(data):
    """assemble, interpolate, L2ErrorEvaluator and lambda_profile with every function wrapped in a plain lambda."""
    graph = data.draw(graphs())
    partition = data.draw(partitions(graph))
    family = data.draw(families(partition.n_parts))
    solution = random_solution(data, graph)
    coeffs = g.derive_data(solution)
    per_edge = dataclasses.replace(
        coeffs,
        a=plain(coeffs.a),
        b=plain(coeffs.b),
        p=plain(coeffs.p),
        f=g.SeparableSource(terms=tuple((plain(space), time) for space, time in coeffs.f.terms)),
    )
    plain_solution = ManufacturedSolution(graph, solution.poly, plain(solution.a), plain(solution.a_dx))
    for name in ("w", "w_dx", "w_dxx"):
        setattr(plain_solution, name, plain(getattr(solution, name)))
    dofmap = fem.DofMap(graph, MESH)
    table, loop = (fem.assemble(graph, MESH, c) for c in (coeffs, per_edge))
    for got, want in zip((table.stiffness, table.lower, *table.term_loads),
                         (loop.stiffness, loop.lower, *loop.term_loads)):
        assert_bitwise(got, want, "assemble")
    assert_bitwise(
        fem.interpolate(dofmap, solution.w),
        fem.interpolate(dofmap, plain(solution.w)),
        "interpolate",
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    states, times = rng.standard_normal((3, dofmap.n_dofs)), np.array([0.1, 0.37, 0.8])
    errors = [squared_errors(L2ErrorEvaluator(fem.Elements(dofmap, fem.GAUSS3), s), states, times)
              for s in (solution, plain_solution)]
    assert_bitwise(*errors, "L2 error")
    t_grid = np.linspace(0.0, 1.0, 11)
    profiles = [lambda_profile(s, c, partition, family, t_grid).values
                for s, c in ((solution, coeffs), (plain_solution, per_edge))]
    assert_bitwise(*profiles, "lambda profile")
