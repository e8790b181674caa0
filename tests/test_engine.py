import dataclasses
import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from conftest import constant_coefficients

import graphrbm as g
from graphrbm import engine, fem
from graphrbm.decomposition import batch_view
from graphrbm.engine import (
    BLOWUP_FACTOR,
    GridMismatch,
    NumericalBlowup,
    RbmConfig,
    RbmRuntime,
    ScheduleMismatch,
    sample_schedule,
)
from graphrbm.harness import InvalidSpec
from graphrbm.manufactured import L2ErrorEvaluator


@pytest.fixture(scope="module")
def coarse_mesh():
    return g.Mesh(20)


def test_schedule_single_batch_constant():
    sched = sample_schedule(50, [1.0], seed=5)
    assert np.all(sched.omegas == 0)
    assert sched.n_windows == 50


def test_schedule_deterministic(option2):
    a = sample_schedule(1000, option2.probs, seed=99)
    b = sample_schedule(1000, option2.probs, seed=99)
    assert np.array_equal(a.omegas, b.omegas)
    c = sample_schedule(1000, option2.probs, seed=100)
    assert not np.array_equal(a.omegas, c.omegas)


def test_schedule_frequencies(option2):
    n = 100_000
    sched = sample_schedule(n, option2.probs, seed=2718)
    freq = np.bincount(sched.omegas, minlength=5) / n
    three_sigma = 3.0 * np.sqrt(0.2 * 0.8 / n)
    assert np.abs(freq - 0.2).max() <= three_sigma


def test_forced_equivalence_coarse(demo, partition, single_batch, problem, coarse_mesh):
    full = g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.01, t_final=0.2)
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=g.IMPLICIT_EULER, seed=1)
    rbm = g.run_rbm(demo, partition, single_batch, coarse_mesh, problem, config)
    for k, t in enumerate(rbm.times):
        assert np.abs(rbm.states[k] - full.state_at(t)).max() <= 1e-12


def test_freeze_and_interface_invariants(demo, partition, option1, problem, coarse_mesh):
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.3, scheme=g.IMPLICIT_EULER, seed=8)
    runtime = RbmRuntime(demo, partition, option1, coarse_mesh, problem)
    traj = g.run_rbm(demo, partition, option1, coarse_mesh, problem, config, runtime=runtime)
    dm = runtime.dofmap
    for k, j in enumerate(traj.schedule.omegas):
        view = batch_view(partition, option1.batches, int(j))
        before, after = traj.states[k], traj.states[k + 1]
        # dofs interior to inactive edges are bit-identical across the window
        for e in range(demo.n_edges):
            if e not in view.active_edges:
                dofs = dm.edge_dofs(e)[1:-1]
                assert np.array_equal(before[dofs], after[dofs])
        # interface vertices hold their frozen values exactly
        for v in view.interface:
            assert after[v] == before[v]
        # vertices outside the active subgraph are frozen too
        for v in range(demo.n_vertices):
            if v not in view.vertices:
                assert after[v] == before[v]


def test_exterior_boundary_values_exact(demo, partition, option2, problem, coarse_mesh):
    config = RbmConfig(h=0.01, dt=0.01, t_final=0.3, scheme=g.CRANK_NICOLSON, seed=12)
    runtime = RbmRuntime(demo, partition, option2, coarse_mesh, problem)
    traj = g.run_rbm(demo, partition, option2, coarse_mesh, problem, config, runtime=runtime)
    for k, j in enumerate(traj.schedule.omegas):
        t_end = traj.times[k + 1]
        view = batch_view(partition, option2.batches, int(j))
        expected = problem.g(t_end)
        for v in view.exterior_boundary:
            assert traj.states[k + 1][v] == expected[v]


def test_zero_data_zero_trajectory(demo, partition, option2, coarse_mesh):
    coeffs = constant_coefficients(a=1.0, p=0.5)
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=g.IMPLICIT_EULER, seed=4)
    traj = g.run_rbm(demo, partition, option2, coarse_mesh, coeffs, config)
    assert np.all(traj.states == 0.0)
    full = g.run_full(demo, coarse_mesh, coeffs, g.IMPLICIT_EULER, dt=0.01, t_final=0.2)
    assert np.all(full.states == 0.0)


def test_parabolic_decay(demo, coarse_mesh, rng):
    # no source, no convection or reaction, zero boundary: the L2 norm decays
    values = rng.standard_normal(demo.n_edges * 5)

    def y0(e, x):
        interior = np.interp(x, np.linspace(0, 1, 5), values[5 * e : 5 * e + 5])
        return interior * x * (1.0 - x)  # vanish at the vertices

    coeffs = constant_coefficients(a=1.0)
    coeffs.y0 = y0
    traj = g.run_full(demo, coarse_mesh, coeffs, g.IMPLICIT_EULER, dt=0.01, t_final=0.3)
    mass = fem.mass_matrix(demo, coarse_mesh, traj.dofmap)
    norms = [s @ (mass @ s) for s in traj.states]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_seed_determinism(demo, partition, option2, problem, coarse_mesh):
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=g.IMPLICIT_EULER, seed=77)
    a = g.run_rbm(demo, partition, option2, coarse_mesh, problem, config)
    b = g.run_rbm(demo, partition, option2, coarse_mesh, problem, config)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.schedule.omegas, b.schedule.omegas)
    other = RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=g.IMPLICIT_EULER, seed=78)
    c = g.run_rbm(demo, partition, option2, coarse_mesh, problem, other)
    assert not np.array_equal(a.states, c.states)


def test_schedule_validation(demo, partition, option2, problem, coarse_mesh):
    with pytest.raises(ScheduleMismatch):
        g.run_rbm(
            demo, partition, option2, coarse_mesh, problem,
            RbmConfig(h=0.015, dt=0.01, t_final=0.3, scheme=g.IMPLICIT_EULER, seed=1),
        )
    with pytest.raises(ScheduleMismatch):
        g.run_rbm(
            demo, partition, option2, coarse_mesh, problem,
            RbmConfig(h=0.02, dt=0.01, t_final=0.25, scheme=g.IMPLICIT_EULER, seed=1),
        )
    short = sample_schedule(3, option2.probs, seed=1)
    with pytest.raises(ScheduleMismatch):
        g.run_rbm(
            demo, partition, option2, coarse_mesh, problem,
            RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=g.IMPLICIT_EULER, seed=1),
            schedule=short,
        )


def test_a1_warning_for_uncovered_family(demo, partition, problem, coarse_mesh):
    family = g.batch_family([{0}, {1}, {2}, {3}], [0.25] * 4, partition.n_parts)
    config = RbmConfig(h=0.01, dt=0.01, t_final=0.05, scheme=g.IMPLICIT_EULER, seed=2)
    with pytest.warns(RuntimeWarning, match="uncovered"):
        g.run_rbm(demo, partition, family, coarse_mesh, problem, config)


def test_estimate_errors_against_baseline_self(demo, problem, coarse_mesh):
    full = g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.01, t_final=0.2)
    summary = g.estimate_errors([full], baseline=full)
    assert summary.error1 == 0.0
    assert summary.error2 == 0.0
    assert summary.variance == 0.0
    assert summary.n_realizations == 1


def test_estimate_errors_single_realization(demo, partition, option2, problem, solution, coarse_mesh):
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=g.IMPLICIT_EULER, seed=3)
    traj = g.run_rbm(demo, partition, option2, coarse_mesh, problem, config)
    summary = g.estimate_errors([traj], solution=solution)
    ev = L2ErrorEvaluator(traj.graph, traj.mesh, traj.dofmap, solution)
    sup = max(ev.squared_error(traj.states[k], t) for k, t in enumerate(traj.times))
    assert np.isclose(summary.error1, sup, rtol=1e-12)
    assert summary.variance == 0.0


def test_estimate_errors_grid_mismatch(demo, partition, option2, problem, coarse_mesh):
    c1 = RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=g.IMPLICIT_EULER, seed=3)
    c2 = RbmConfig(h=0.04, dt=0.01, t_final=0.2, scheme=g.IMPLICIT_EULER, seed=3)
    t1 = g.run_rbm(demo, partition, option2, coarse_mesh, problem, c1)
    t2 = g.run_rbm(demo, partition, option2, coarse_mesh, problem, c2)
    with pytest.raises(GridMismatch):
        g.estimate_errors([t1, t2], baseline=t1)
    with pytest.raises(g.SolverError):
        g.estimate_errors([], baseline=t1)
    with pytest.raises(g.SolverError):
        g.estimate_errors([t1])


def test_estimate_errors_mean_of_constant_shift(demo, problem, coarse_mesh, solution):
    # two states shifted symmetrically around the baseline: error2 vanishes,
    # error1 is the common squared distance
    full = g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.01, t_final=0.1)
    up = g.RbmTrajectory(
        full.graph, full.mesh, full.dofmap, full.times, full.states + 1e-3,
        None, full.config, full.stats,
    )
    down = g.RbmTrajectory(
        full.graph, full.mesh, full.dofmap, full.times, full.states - 1e-3,
        None, full.config, full.stats,
    )
    summary = g.estimate_errors([up, down], baseline=full)
    mass = fem.mass_matrix(demo, coarse_mesh, full.dofmap)
    ones = np.ones(full.states.shape[1])
    expected = 1e-6 * (ones @ (mass @ ones))
    assert np.isclose(summary.error1, expected, rtol=1e-10)
    assert summary.error2 <= 1e-22
    # identical norms in both realizations: zero sample variance
    assert summary.variance <= 1e-18


def test_full_solver_error_magnitude(demo, solution, problem):
    # canonical configuration: the discretization error against the exact
    # solution is small but nonzero; the exact magnitude depends on the
    # solved lower polynomial coefficients, so only the scale is pinned
    traj = g.run_full(demo, g.Mesh(100), problem, g.IMPLICIT_EULER, dt=0.002, t_final=1.0)
    summary = g.estimate_errors([traj], solution=solution)
    assert 0.0 < summary.error1 < 1e-2


def test_trajectory_time_index(demo, problem, coarse_mesh):
    traj = g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.05, t_final=0.2)
    assert traj.time_index(0.1) == 2
    with pytest.raises(GridMismatch):
        traj.time_index(0.123)


def test_snapshot_stride(demo, partition, option2, problem, coarse_mesh):
    config = RbmConfig(h=0.01, dt=0.01, t_final=0.1, scheme=g.IMPLICIT_EULER, seed=6, snapshot_stride=4)
    traj = g.run_rbm(demo, partition, option2, coarse_mesh, problem, config)
    assert np.allclose(traj.times, [0.0, 0.04, 0.08, 0.1])
    full = g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.01, t_final=0.1, snapshot_stride=4)
    assert np.allclose(full.times, [0.0, 0.04, 0.08, 0.1])


@pytest.mark.parametrize("stride", [0, -1])
def test_snapshot_stride_below_one_rejected(demo, problem, coarse_mesh, stride):
    with pytest.raises(InvalidSpec, match="snapshot stride"):
        RbmConfig(h=0.01, dt=0.01, t_final=0.1, scheme=g.IMPLICIT_EULER, seed=6, snapshot_stride=stride)
    with pytest.raises(InvalidSpec, match="snapshot stride"):
        g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.01, t_final=0.1, snapshot_stride=stride)


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_seed_outside_philox_key_rejected(seed):
    with pytest.raises(InvalidSpec, match="seed"):
        RbmConfig(h=0.01, dt=0.01, t_final=0.1, scheme=g.IMPLICIT_EULER, seed=seed)


def test_largest_seed_draws_a_schedule(option2):
    config = RbmConfig(h=0.01, dt=0.01, t_final=0.1, scheme=g.IMPLICIT_EULER, seed=2**128 - 1)
    assert sample_schedule(10, option2.probs, config.seed).n_windows == 10


def test_runtime_reuse_bitwise_identical(demo, partition, option2, problem, coarse_mesh):
    runtime = RbmRuntime(demo, partition, option2, coarse_mesh, problem)
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=g.SEMI_IMPLICIT, seed=21)
    a = g.run_rbm(demo, partition, option2, coarse_mesh, problem, config, runtime=runtime)
    b = g.run_rbm(demo, partition, option2, coarse_mesh, problem, config)
    assert np.array_equal(a.states, b.states)


def test_runtime_of_another_problem_rejected(demo, partition, option1, option2, problem, coarse_mesh):
    runtime = RbmRuntime(demo, partition, option1, coarse_mesh, problem)
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.04, scheme=g.IMPLICIT_EULER, seed=2)
    # an equal mesh object is accepted; the other four must be the same objects
    g.run_rbm(demo, partition, option1, g.Mesh(coarse_mesh.nodes_per_edge), problem, config, runtime=runtime)
    other_coeffs = dataclasses.replace(problem)
    for args in (
        (demo, partition, option2, coarse_mesh, problem),
        (demo, g.demo_partition(demo), option1, coarse_mesh, problem),
        (g.demo_graph(), partition, option1, coarse_mesh, problem),
        (demo, partition, option1, g.Mesh(10), problem),
        (demo, partition, option1, coarse_mesh, other_coeffs),
    ):
        with pytest.raises(InvalidSpec, match="runtime was built for another"):
            g.run_rbm(*args, config, runtime=runtime)


def test_stats_track_active_sizes(demo, partition, option2, problem, coarse_mesh):
    # one runtime keeps one factored step per (j, scheme, dt) it has run, and evicts none
    runtime = RbmRuntime(demo, partition, option2, coarse_mesh, problem)
    keys = set()
    for scheme in (g.IMPLICIT_EULER, g.CRANK_NICOLSON):
        config = RbmConfig(h=0.01, dt=0.01, t_final=0.2, scheme=scheme, seed=13)
        traj = g.run_rbm(demo, partition, option2, coarse_mesh, problem, config, runtime=runtime)
        assert traj.stats["n_dofs"] == 10 * 20 + 10
        assert traj.stats["max_active_dofs"] <= traj.stats["n_dofs"]
        assert traj.stats["max_factor_nnz"] > 0
        keys |= {(int(j), scheme.label, 0.01) for j in traj.schedule.omegas}
        assert traj.stats["n_factorizations"] == len(keys)
    assert set(runtime.workspace) == keys


def test_single_batch_equals_full_with_callable_source(demo, partition, single_batch, problem, solution, coarse_mesh):
    # a source that is not a SeparableSource is integrated once per step
    coeffs = dataclasses.replace(problem, f=lambda e, x, t: solution.w(e, x) * (1.0 + np.cos(3.0 * t)))
    full = g.run_full(demo, coarse_mesh, coeffs, g.CRANK_NICOLSON, dt=0.01, t_final=0.2)
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=g.CRANK_NICOLSON, seed=4)
    rbm = g.run_rbm(demo, partition, single_batch, coarse_mesh, coeffs, config)
    for k, t in enumerate(rbm.times):
        assert np.abs(rbm.states[k] - full.state_at(t)).max() <= 1e-12


def test_runtime_computes_convection_sums_once(demo, partition, option2, problem, coarse_mesh, monkeypatch):
    calls = []
    original = fem.convection_vertex_sums

    def counted(graph, b):
        calls.append(graph)
        return original(graph, b)

    monkeypatch.setattr(fem, "convection_vertex_sums", counted)
    coeffs = dataclasses.replace(problem, b=lambda e, x: np.full_like(np.asarray(x, dtype=float), 0.3))
    runtime = RbmRuntime(demo, partition, option2, coarse_mesh, coeffs)
    assert len(calls) == 1
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.04, scheme=g.IMPLICIT_EULER, seed=3)
    for _ in range(2):
        with pytest.warns(RuntimeWarning, match="nonzero vertex sums"):
            g.run_rbm(demo, partition, option2, coarse_mesh, coeffs, config, runtime=runtime)
    assert len(calls) == 1
    # without a runtime, and in run_full, each run computes them itself
    with pytest.warns(RuntimeWarning, match="nonzero vertex sums"):
        g.run_rbm(demo, partition, option2, coarse_mesh, coeffs, config)
    with pytest.warns(RuntimeWarning, match="nonzero vertex sums"):
        g.run_full(demo, coarse_mesh, coeffs, g.IMPLICIT_EULER, dt=0.01, t_final=0.04)
    assert len(calls) == 3


@pytest.mark.parametrize("value", [0.0, -0.01, float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["dt", "h", "t_final"])
def test_time_lengths_must_be_positive_and_finite(demo, partition, option2, problem, coarse_mesh, field, value):
    lengths = {"dt": 0.01, "h": 0.02, "t_final": 0.04, field: value}
    config = RbmConfig(scheme=g.IMPLICIT_EULER, seed=1, **lengths)
    with pytest.raises(InvalidSpec, match="positive finite"):
        g.run_rbm(demo, partition, option2, coarse_mesh, problem, config)
    if field != "h":
        with pytest.raises(InvalidSpec, match="positive finite"):
            g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, lengths["dt"], lengths["t_final"])


def reactive(solution):
    """The manufactured data with p = 400: siem's explicit reaction blows up at dt = 0.01."""
    return g.derive_data(solution, p=lambda e, x: np.full_like(np.asarray(x, dtype=float), 400.0))


def test_blowup_raises_in_run_full(demo, solution, coarse_mesh):
    with pytest.raises(NumericalBlowup, match="exceeds 1e\\+06 times the data scale"):
        g.run_full(demo, coarse_mesh, reactive(solution), g.SEMI_IMPLICIT, dt=0.01, t_final=1.0)


def test_blowup_raises_in_run_rbm(demo, partition, option2, solution, coarse_mesh):
    config = RbmConfig(h=0.01, dt=0.01, t_final=1.0, scheme=g.SEMI_IMPLICIT, seed=0)
    with pytest.raises(NumericalBlowup, match="exceeds 1e\\+06 times the data scale"):
        g.run_rbm(demo, partition, option2, coarse_mesh, reactive(solution), config)
    # the implicit scheme is stable on the same data
    config = dataclasses.replace(config, scheme=g.IMPLICIT_EULER)
    g.run_rbm(demo, partition, option2, coarse_mesh, reactive(solution), config)


def test_growing_solution_is_not_a_blowup(demo, partition, option2, coarse_mesh):
    """p = -40 makes the true solution grow about e^40 over [0, 1]; stable runs of it must return."""
    coeffs = dataclasses.replace(
        constant_coefficients(p=-40.0), y0=lambda e, x: np.ones_like(np.asarray(x, dtype=float))
    )
    for scheme in (g.IMPLICIT_EULER, g.CRANK_NICOLSON, g.SEMI_IMPLICIT):
        traj = g.run_full(demo, coarse_mesh, coeffs, scheme, dt=0.01, t_final=1.0)
        # past the limit of a run that may not grow
        assert np.abs(traj.states[-1]).max() > BLOWUP_FACTOR * np.abs(traj.states[0]).max()
        config = RbmConfig(h=0.02, dt=0.01, t_final=1.0, scheme=scheme, seed=0)
        traj = g.run_rbm(demo, partition, option2, coarse_mesh, coeffs, config)
        assert np.isfinite(traj.states).all()


def test_nonfinite_state_raises(demo, partition, option2, solution, coarse_mesh):
    # siem steps p = 400 explicitly: each step multiplies the fast mode by about -3 until it
    # overflows; p > 0 makes the operators dissipative, so the growth allowance stays 1
    reactive = g.derive_data(solution, p=lambda e, x: np.full_like(np.asarray(x, dtype=float), 400.0))
    with pytest.raises(NumericalBlowup, match="t=6.52 has non-finite entries"):
        g.run_full(demo, coarse_mesh, reactive, g.SEMI_IMPLICIT, dt=0.01, t_final=8.0)
    config = RbmConfig(h=0.02, dt=0.01, t_final=8.0, scheme=g.SEMI_IMPLICIT, seed=1)
    with pytest.raises(NumericalBlowup, match="non-finite entries"):
        g.run_rbm(demo, partition, option2, coarse_mesh, reactive, config)


def test_nonfinite_initial_state_is_invalid_spec(demo, partition, option2, problem, coarse_mesh):
    def nan_on_edge_3(e, x):
        return np.full_like(np.asarray(x, dtype=float), np.nan if e == 3 else 0.0)

    coeffs = dataclasses.replace(problem, y0=nan_on_edge_3)
    with pytest.raises(InvalidSpec, match="initial state y0 is not finite on edge 3"):
        g.run_full(demo, coarse_mesh, coeffs, g.IMPLICIT_EULER, dt=0.01, t_final=0.04)
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.04, scheme=g.IMPLICIT_EULER, seed=1)
    with pytest.raises(InvalidSpec, match="initial state y0 is not finite on edge 3"):
        g.run_rbm(demo, partition, option2, coarse_mesh, coeffs, config)


def test_cached_steps_keep_w_but_not_lhs_ff(demo, partition, option2, problem, coarse_mesh, monkeypatch):
    fused = fem.ReducedOperators.step_matrices
    built = []

    def recording(system, pair):
        lhs_ff, w = fused(system, pair)
        built.append((weakref.ref(lhs_ff), w))
        return lhs_ff, w

    monkeypatch.setattr(fem.ReducedOperators, "step_matrices", recording)
    runtime = RbmRuntime(demo, partition, option2, coarse_mesh, problem)
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=g.IMPLICIT_EULER, seed=4)
    traj = g.run_rbm(demo, partition, option2, coarse_mesh, problem, config, runtime=runtime)
    gc.collect()
    used = np.unique(traj.schedule.omegas)
    assert len(built) == len(used) == len(runtime.workspace)
    assert all(ref() is None for ref, _ in built)
    # a lookup of a cached key is a hit, so it never calls build
    entries = [runtime.workspace.factorization((int(j), "ie", 0.01), None) for j in used]
    assert sorted(id(entry.rhs) for entry in entries) == sorted(id(w) for _, w in built)


def test_step_pair_goes_once_every_batch_has_its_step(demo, partition, option2, problem, coarse_mesh):
    runtime = RbmRuntime(demo, partition, option2, coarse_mesh, problem)
    n = option2.n_batches
    config = RbmConfig(h=0.01, dt=0.01, t_final=0.01 * n, scheme=g.IMPLICIT_EULER, seed=0)

    def run(omegas, runtime=runtime):
        schedule = g.SampledSchedule(omegas=omegas, seed=0)
        return g.run_rbm(demo, partition, option2, coarse_mesh, problem, config, schedule, runtime=runtime)

    with mock.patch.object(fem, "step_pair", wraps=fem.step_pair) as built:
        run(np.zeros(n, dtype=int))
        assert built.call_count == 1 and len(runtime._pairs) == 1  # batches 1.. still slice it
        first = run(np.arange(n))
        assert built.call_count == 1 and not runtime._pairs  # every batch has its step; nothing reads the pair
        again = run(np.arange(n))
        assert built.call_count == 1 and np.array_equal(first.states, again.states)
    assert np.array_equal(first.states, run(np.arange(n), runtime=None).states)


@pytest.mark.parametrize("callable_source", [False, True])
def test_only_a_callable_source_is_integrated_per_call(
    demo, partition, option2, problem, coarse_mesh, monkeypatch, callable_source
):
    calls = []
    call = fem.LoadEvaluator.__call__

    def counting(load, t):
        calls.append(t)
        return call(load, t)

    monkeypatch.setattr(fem.LoadEvaluator, "__call__", counting)
    coeffs = problem
    if callable_source:
        coeffs = dataclasses.replace(problem, f=lambda e, x, t: problem.f(e, x, t))
    runtime = RbmRuntime(demo, partition, option2, coarse_mesh, coeffs)
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.1, scheme=g.CRANK_NICOLSON, seed=2)
    g.run_rbm(demo, partition, option2, coarse_mesh, coeffs, config, runtime=runtime)
    loads = [runtime.system(j).load for j in range(option2.n_batches)]
    if callable_source:
        assert all(isinstance(load, fem.LoadEvaluator) for load in loads)
        # Crank-Nicolson reads F at each window's start and at every step's end
        assert len(calls) == 5 + 10
    else:
        assert loads == [None] * option2.n_batches
        assert calls == []


def invalid_data(problem, n_vertices):
    """Problem data that break the tabulated g or time factors, with the message each must raise."""
    good_g = problem.g
    space, time = problem.f.terms[0]
    nan_at = 0.03

    def nan_g(t):
        return good_g(t) * (np.nan if abs(t - nan_at) < 1e-12 else 1.0)

    def nan_factor(t):
        return np.nan if abs(t - nan_at) < 1e-12 else time(t)

    return [
        (dataclasses.replace(problem, g=lambda t: good_g(t)[:-1]),
         f"g at t=0 has shape \\({n_vertices - 1},\\), expected \\({n_vertices},\\)"),
        (dataclasses.replace(problem, g=nan_g), "g at t=0.03 is not finite"),
        (dataclasses.replace(problem, f=g.SeparableSource(terms=((space, nan_factor), *problem.f.terms[1:]))),
         "time factor 0 of the source at t=0.03 is not finite"),
    ]


@pytest.mark.parametrize("case", range(3))
def test_invalid_tabulated_data_rejected(demo, partition, option2, problem, coarse_mesh, case):
    coeffs, message = invalid_data(problem, demo.n_vertices)[case]
    with pytest.raises(InvalidSpec, match=message):
        g.run_full(demo, coarse_mesh, coeffs, g.CRANK_NICOLSON, dt=0.01, t_final=0.04)
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.04, scheme=g.CRANK_NICOLSON, seed=1)
    with pytest.raises(InvalidSpec, match=message):
        g.run_rbm(demo, partition, option2, coarse_mesh, coeffs, config)


def test_drive_table_built_once_per_key_and_read_only(demo, partition, option2, problem, coarse_mesh, monkeypatch):
    built = []
    original = engine._drive_table
    monkeypatch.setattr(engine, "_drive_table", lambda *args: built.append(args[1:]) or original(*args))
    runtime = RbmRuntime(demo, partition, option2, coarse_mesh, problem)
    configs = [
        RbmConfig(h=0.02, dt=dt, t_final=0.2, scheme=g.CRANK_NICOLSON, seed=seed)
        for seed, dt in ((1, 0.01), (2, 0.01), (3, 0.005))
    ]
    runs = [g.run_rbm(demo, partition, option2, coarse_mesh, problem, c, runtime=runtime) for c in configs]
    assert built == [(0.5, 0.01, 20), (0.5, 0.005, 40)]
    table = runtime.drive(0.5, 0.01, 20)
    assert table is runtime.drive(0.5, 0.01, 20) and len(built) == 2
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0
    # a shared table gives bitwise the states of a fresh runtime
    fresh = g.run_rbm(demo, partition, option2, coarse_mesh, problem, configs[1])
    assert fresh.states.tobytes() == runs[1].states.tobytes()


def test_study_cells_share_one_drive_table_per_theta(demo, partition, option2, solution, monkeypatch):
    built = []
    original = engine._drive_table
    monkeypatch.setattr(engine, "_drive_table", lambda *args: built.append(args[1:]) or original(*args))
    spec = g.ExperimentSpec(
        graph=demo, partition=partition, family=option2,
        schemes=[g.IMPLICIT_EULER, g.CRANK_NICOLSON], dt=0.01, t_final=0.2,
        h_list=[0.02, 0.04], realizations=2, seed=3, solution=solution, nodes_per_edge=10,
    )
    assert len(g.run_study(spec)) == 4
    assert built == [(1.0, 0.01, 20), (0.5, 0.01, 20)]


def test_failed_drive_table_is_not_kept(demo, partition, option2, problem, coarse_mesh):
    calls = []

    def first_call_nan(t):
        calls.append(t)
        return problem.g(t) * (np.nan if len(calls) == 1 else 1.0)

    coeffs = dataclasses.replace(problem, g=first_call_nan)
    runtime = RbmRuntime(demo, partition, option2, coarse_mesh, coeffs)
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.04, scheme=g.CRANK_NICOLSON, seed=1)
    with pytest.raises(InvalidSpec, match="g at t=0 is not finite"):
        g.run_rbm(demo, partition, option2, coarse_mesh, coeffs, config, runtime=runtime)
    traj = g.run_rbm(demo, partition, option2, coarse_mesh, coeffs, config, runtime=runtime)
    assert np.isfinite(traj.states).all()
