import numpy as np
import pytest

import graphrbm as g
from graphrbm import fem
from graphrbm.decomposition import batch_view
from graphrbm.engine import (
    GridMismatch,
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
    coeffs = fem.constant_coefficients(a=1.0, p=0.5)
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

    coeffs = fem.constant_coefficients(a=1.0)
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


def test_trajectory_time_index_and_hash(demo, problem, coarse_mesh):
    traj = g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.05, t_final=0.2)
    assert traj.time_index(0.1) == 2
    with pytest.raises(GridMismatch):
        traj.time_index(0.123)
    assert len(traj.config_hash) == 16
    other = g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.05, t_final=0.25)
    assert traj.config_hash != other.config_hash


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


def test_stats_track_active_sizes(demo, partition, option2, problem, coarse_mesh):
    config = RbmConfig(h=0.01, dt=0.01, t_final=0.2, scheme=g.IMPLICIT_EULER, seed=13)
    traj = g.run_rbm(demo, partition, option2, coarse_mesh, problem, config)
    assert traj.stats["n_dofs"] == 10 * 20 + 10
    assert traj.stats["max_active_dofs"] <= traj.stats["n_dofs"]
    assert traj.stats["max_factor_nnz"] > 0
    seen = set(int(j) for j in traj.schedule.omegas)
    assert traj.stats["n_factorizations"] == len(seen)
