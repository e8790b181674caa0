import dataclasses
import gc
import re
import weakref
from unittest import mock

import numpy as np
import pytest
from conftest import constant_coefficients, mass_matrix, squared_errors, wilkinson_growth
from test_manufactured import binary_tree

import graphrbm as g
from graphrbm import engine, fem, manufactured, timestep
from graphrbm.decomposition import batch_view
from graphrbm.engine import (
    BLOWUP_FACTOR,
    EngineError,
    ErrorAccumulator,
    GridMismatch,
    NumericalBlowup,
    RbmConfig,
    RbmRuntime,
    sample_schedule,
)
from graphrbm.harness import InvalidSpec
from graphrbm.manufactured import L2ErrorEvaluator
from graphrbm.timestep import SingularSystem


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

    coeffs = dataclasses.replace(constant_coefficients(a=1.0), y0=y0)
    traj = g.run_full(demo, coarse_mesh, coeffs, g.IMPLICIT_EULER, dt=0.01, t_final=0.3)
    mass = mass_matrix(demo, coarse_mesh, traj.dofmap)
    norms = [s @ (mass @ s) for s in traj.states]
    assert all(b < a for a, b in zip(norms, norms[1:]))


@pytest.mark.parametrize(
    "scheme",
    [g.IMPLICIT_EULER, g.CRANK_NICOLSON, g.theta_method(0.75), g.SEMI_IMPLICIT],
    ids=lambda scheme: scheme.label,
)
def test_every_scheme_steps_its_recurrence(demo, scheme):
    # no boundary vertex, a = p = 1, b = 0, y0 = 1: K 1 = 0 and P = M, so u_n = rho^n 1 with
    # rho = (1 - (1 - theta) dt) / (1 + theta dt), or 1 - dt for siem, whose C + P is explicit
    graph = g.MetricGraph(demo.edges, ())
    coeffs = dataclasses.replace(
        constant_coefficients(a=1.0, p=1.0), y0=lambda e, x: np.ones_like(np.asarray(x, dtype=float))
    )
    dt = 1e-3
    traj = g.run_full(graph, g.Mesh(5), coeffs, scheme, dt=dt, t_final=1.0)
    theta = scheme.theta_value
    rho = 1.0 - dt if scheme.name == "siem" else (1.0 - (1.0 - theta) * dt) / (1.0 + theta * dt)
    expected = rho ** np.rint(traj.times / dt)
    assert len(traj.times) == 1001
    assert np.abs(traj.states - expected[:, None]).max() <= 1e-12


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
    with pytest.raises(InvalidSpec, match="window length h: 0.015 is not a positive integer multiple of 0.01"):
        g.run_rbm(
            demo, partition, option2, coarse_mesh, problem,
            RbmConfig(h=0.015, dt=0.01, t_final=0.3, scheme=g.IMPLICIT_EULER, seed=1),
        )
    with pytest.raises(InvalidSpec, match="t_final: 0.25 is not a positive integer multiple of 0.02"):
        g.run_rbm(
            demo, partition, option2, coarse_mesh, problem,
            RbmConfig(h=0.02, dt=0.01, t_final=0.25, scheme=g.IMPLICIT_EULER, seed=1),
        )
    short = sample_schedule(3, option2.probs, seed=1)
    with pytest.raises(InvalidSpec, match="schedule has 3 windows, expected 10"):
        g.run_rbm(
            demo, partition, option2, coarse_mesh, problem,
            RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=g.IMPLICIT_EULER, seed=1),
            schedule=short,
        )
    for first in (-1, option2.n_batches):
        schedule = g.SampledSchedule(omegas=np.array([first] + [0] * 9), seed=1)
        with pytest.raises(InvalidSpec, match="schedule contains batch indices out of range"):
            g.run_rbm(
                demo, partition, option2, coarse_mesh, problem,
                RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=g.IMPLICIT_EULER, seed=1),
                schedule=schedule,
            )


def test_schedule_seed_must_be_an_integer(option2):
    # int() would truncate 1.9, so the schedule was seed 1's
    with pytest.raises(InvalidSpec, match="seed must be an integer, not 1.9"):
        sample_schedule(10, option2.probs, 1.9)
    assert np.array_equal(sample_schedule(10, option2.probs, np.int64(1)).omegas, sample_schedule(10, option2.probs, 1).omegas)


def test_schedule_window_count_must_be_a_nonnegative_integer(option2):
    # int() would truncate 2.9, so the schedule had 2 windows
    with pytest.raises(InvalidSpec, match="the window count must be an integer, not 2.9"):
        sample_schedule(2.9, option2.probs, 0)
    with pytest.raises(InvalidSpec, match="the window count must not be negative, got -1"):
        sample_schedule(-1, option2.probs, 0)
    assert np.array_equal(sample_schedule(np.int64(3), option2.probs, 0).omegas, sample_schedule(3, option2.probs, 0).omegas)


@pytest.mark.parametrize("probs", [[-0.5, 1.5], [float("nan"), 1.0], [float("inf"), 1.0], [0.0, 0.0], []])
def test_schedule_probabilities_must_be_finite_nonnegative_with_a_positive_sum(probs):
    # NumPy's own ValueError ("Probabilities are not non-negative", "... contain NaN") ended these before
    with pytest.raises(InvalidSpec, match="probabilities must be finite and non-negative with a positive sum"):
        sample_schedule(4, probs, 0)


def test_schedule_of_valid_probabilities_draws_with_probs_over_their_sum(option1):
    probs = [0.1, 0.2, 0.0, 0.3, 0.15, 0.25]
    for seed in (0, 5, 2**100):
        want = np.random.Generator(np.random.Philox(key=seed)).choice(6, size=40, p=np.asarray(probs) / sum(probs))
        assert np.array_equal(sample_schedule(40, probs, seed).omegas, want)
        assert np.array_equal(sample_schedule(40, option1.probs, seed).omegas, sample_schedule(40, option1.probs.tolist(), seed).omegas)


def test_schedule_takes_only_a_1d_integer_array(demo, partition, option2, problem, coarse_mesh):
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.06, scheme=g.IMPLICIT_EULER, seed=1)

    def run(omegas):
        schedule = g.SampledSchedule(omegas=omegas, seed=1)
        return g.run_rbm(demo, partition, option2, coarse_mesh, problem, config, schedule)

    # a bool array would run as batches 1 and 0, since True == 1 as a key
    for omegas in (np.array([0.0, 1.0, 4.0]), np.array([True, False, True]), np.array([[0, 1, 4]])):
        with pytest.raises(InvalidSpec, match=re.escape(f"dtype {omegas.dtype} and shape {omegas.shape}")):
            run(omegas)
    assert run([0, 1, 4]).states.tobytes() == run(np.array([0, 1, 4])).states.tobytes()


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
    ev = L2ErrorEvaluator(fem.Elements(traj.dofmap, fem.GAUSS3), solution)
    # the max of the one row, in the accumulator's blocks; the mean of one realization is that realization
    assert summary.error1 == summary.error2 == squared_errors(ev, traj.states, traj.times).max()
    assert summary.n_realizations == 1 and summary.variance == 0.0


def test_estimate_errors_grid_mismatch(demo, partition, option2, problem, coarse_mesh):
    c1 = RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=g.IMPLICIT_EULER, seed=3)
    c2 = RbmConfig(h=0.04, dt=0.01, t_final=0.2, scheme=g.IMPLICIT_EULER, seed=3)
    t1 = g.run_rbm(demo, partition, option2, coarse_mesh, problem, c1)
    t2 = g.run_rbm(demo, partition, option2, coarse_mesh, problem, c2)
    with pytest.raises(GridMismatch):
        g.estimate_errors([t1, t2], baseline=t1)
    coarse = g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.04, t_final=0.2)
    with pytest.raises(GridMismatch, match="baseline grid does not cover the stored times"):
        g.estimate_errors([t1], baseline=coarse)
    with pytest.raises(g.SolverError):
        g.estimate_errors([], baseline=t1)
    with pytest.raises(g.SolverError):
        g.estimate_errors([t1])


def test_estimate_errors_rejects_a_run_made_with_a_sink(demo, partition, option2, problem, solution, coarse_mesh):
    # a run that hands its states to a sink keeps none, as a reference or as a realization
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.1, scheme=g.IMPLICIT_EULER, seed=3)
    kept = g.run_rbm(demo, partition, option2, coarse_mesh, problem, config)
    streamed = g.run_rbm(demo, partition, option2, coarse_mesh, problem, config, sink=lambda t, u: None)
    full = g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.01, t_final=0.1)
    with pytest.raises(GridMismatch, match=r"run 1 holds states of shape \(0, 210\), expected \(6, 210\)"):
        g.estimate_errors([kept, streamed], solution=solution)
    with pytest.raises(GridMismatch, match="run 0 holds states of shape"):
        g.estimate_errors([streamed], baseline=full)
    with pytest.raises(GridMismatch, match=r"the baseline holds states of shape \(0, 210\)"):
        g.estimate_errors([kept], baseline=streamed)
    acc = ErrorAccumulator(kept.times, L2ErrorEvaluator(fem.Elements(kept.dofmap, fem.GAUSS3), solution))
    acc.add(kept)
    with pytest.raises(GridMismatch, match="the run kept no states, so it has none to add"):
        acc.add(streamed)
    assert acc.summary().n_realizations == 1


def test_state_at_of_a_run_made_with_a_sink_says_it_kept_no_states(demo, partition, option2, problem):
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.1, scheme=g.IMPLICIT_EULER, seed=3)
    streamed = g.run_rbm(demo, partition, option2, g.Mesh(10), problem, config, sink=lambda t, u: None)
    with pytest.raises(GridMismatch, match="the run kept no states, so it has none at time 0.04"):
        streamed.state_at(0.04)
    with pytest.raises(GridMismatch, match="not on the stored grid"):
        streamed.state_at(0.05)


def test_estimate_errors_takes_one_reference_not_both(demo, partition, option2, problem, solution, coarse_mesh):
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.1, scheme=g.IMPLICIT_EULER, seed=3)
    run = g.run_rbm(demo, partition, option2, coarse_mesh, problem, config)
    full = g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.01, t_final=0.1)
    with pytest.raises(EngineError, match="a manufactured solution or a baseline trajectory, not both"):
        g.estimate_errors([run], solution=solution, baseline=full)


def test_estimate_errors_rejects_a_run_on_another_mesh(demo, partition, option2, problem, solution, coarse_mesh):
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.1, scheme=g.IMPLICIT_EULER, seed=3)
    runs = [g.run_rbm(demo, partition, option2, mesh, problem, config) for mesh in (coarse_mesh, g.Mesh(12))]
    with pytest.raises(GridMismatch, match=r"run 1 holds states of shape \(6, 130\), expected \(6, 210\)"):
        g.estimate_errors(runs, solution=solution)


def test_estimate_errors_rejects_a_baseline_on_another_mesh(demo, partition, option2, problem, coarse_mesh):
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.1, scheme=g.IMPLICIT_EULER, seed=3)
    run = g.run_rbm(demo, partition, option2, coarse_mesh, problem, config)
    full = g.run_full(demo, g.Mesh(12), problem, g.IMPLICIT_EULER, dt=0.01, t_final=0.1)
    with pytest.raises(GridMismatch, match=r"the baseline holds states of shape \(11, 130\), expected \(11, 210\)"):
        g.estimate_errors([run], baseline=full)


def test_estimate_errors_mean_of_constant_shift(demo, problem, coarse_mesh, solution):
    # two states shifted symmetrically around the baseline: error2 vanishes,
    # error1 is the common squared distance
    full = g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.01, t_final=0.1)
    up = g.RbmTrajectory(
        full.dofmap, full.times, full.states + 1e-3,
        None, full.config, full.stats,
    )
    down = g.RbmTrajectory(
        full.dofmap, full.times, full.states - 1e-3,
        None, full.config, full.stats,
    )
    summary = g.estimate_errors([up, down], baseline=full)
    mass = mass_matrix(demo, coarse_mesh, full.dofmap)
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


# a float stride would list stored times that no step reaches, with no state stored at them
@pytest.mark.parametrize("stride", [0, -1, 2.5])
def test_snapshot_stride_below_one_rejected(demo, problem, coarse_mesh, stride):
    with pytest.raises(InvalidSpec, match="snapshot stride"):
        RbmConfig(h=0.01, dt=0.01, t_final=0.1, scheme=g.IMPLICIT_EULER, seed=6, snapshot_stride=stride)
    with pytest.raises(InvalidSpec, match="snapshot stride"):
        g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.01, t_final=0.1, snapshot_stride=stride)


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_seed_outside_philox_key_rejected(seed):
    with pytest.raises(InvalidSpec, match="seed"):
        RbmConfig(h=0.01, dt=0.01, t_final=0.1, scheme=g.IMPLICIT_EULER, seed=seed)


@pytest.mark.parametrize("seed", [1.9, 1.0, "3", None])
def test_config_seed_must_be_an_integer(seed):
    # int() would truncate 1.9, so the run drew seed 1's schedule while its config read 1.9
    with pytest.raises(InvalidSpec, match=re.escape(f"seed must be an integer, not {seed!r}")):
        RbmConfig(h=0.01, dt=0.01, t_final=0.1, scheme=g.IMPLICIT_EULER, seed=seed)
    config = RbmConfig(h=0.01, dt=0.01, t_final=0.1, scheme=g.IMPLICIT_EULER, seed=np.uint64(3))
    assert type(config.seed) is int and config.seed == 3


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


def test_coefficients_are_frozen():
    # a runtime keeps what it computed from its coefficient set, which it knows only as the same
    # object, so that object cannot change; a variant is a new set (dataclasses.replace)
    coeffs = constant_coefficients(a=1.0, p=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        coeffs.p = coeffs.a


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
        keys |= {(int(j), scheme, 0.01) for j in traj.schedule.omegas}
        assert len(runtime.workspace) == len(keys)
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


def test_nonfinite_state_stops_the_run_where_it_is_stored(demo, partition, option2, solution, coarse_mesh, monkeypatch):
    reactive = g.derive_data(solution, p=lambda e, x: np.full_like(np.asarray(x, dtype=float), 400.0))
    with pytest.raises(NumericalBlowup, match="t=6.52 has non-finite entries"):
        g.run_full(demo, coarse_mesh, reactive, g.SEMI_IMPLICIT, dt=0.01, t_final=80.0)
    windows = []
    advance = engine._advance
    monkeypatch.setattr(engine, "_advance", lambda *args: windows.append(args[1]) or advance(*args))
    counts = []
    for t_final in (8.0, 80.0):
        config = RbmConfig(h=0.02, dt=0.01, t_final=t_final, scheme=g.SEMI_IMPLICIT, seed=1)
        with pytest.raises(NumericalBlowup, match="non-finite entries"):
            g.run_rbm(demo, partition, option2, coarse_mesh, reactive, config)
        counts.append(len(windows))
        windows.clear()
    # the longer horizon's schedule begins with the shorter one's, and neither run steps on
    assert counts[0] == counts[1] < 400


def test_nonfinite_initial_state_is_invalid_spec(demo, partition, option2, problem, coarse_mesh):
    def nan_on_edge_3(e, x):
        return np.full_like(np.asarray(x, dtype=float), np.nan if e == 3 else 0.0)

    coeffs = dataclasses.replace(problem, y0=nan_on_edge_3)
    with pytest.raises(InvalidSpec, match="initial state y0 is not finite on edge 3"):
        g.run_full(demo, coarse_mesh, coeffs, g.IMPLICIT_EULER, dt=0.01, t_final=0.04)
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.04, scheme=g.IMPLICIT_EULER, seed=1)
    with pytest.raises(InvalidSpec, match="initial state y0 is not finite on edge 3"):
        g.run_rbm(demo, partition, option2, coarse_mesh, coeffs, config)


def test_schemes_that_print_alike_share_no_step(demo, partition, option2, problem):
    mesh = g.Mesh(10)
    first, second = g.theta_method(0.6), g.theta_method(0.6000001)
    assert first.label == second.label

    def run(scheme, runtime):
        config = RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=scheme, seed=3)
        return g.run_rbm(demo, partition, option2, mesh, problem, config, runtime=runtime)

    runtime = RbmRuntime(demo, partition, option2, mesh, problem)
    run(first, runtime)
    assert run(second, runtime).states.tobytes() == run(second, None).states.tobytes()


def test_cached_steps_keep_w_but_not_lhs_ff(demo, partition, option2, problem, coarse_mesh, monkeypatch):
    fused = fem.ReducedOperators.step_matrices
    built = []

    def recording(system, pair, term_vectors):
        lhs_ff, w = fused(system, pair, term_vectors)
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
    entries = [runtime.workspace.factorization((int(j), g.IMPLICIT_EULER, 0.01), None) for j in used]
    assert sorted(id(entry.rhs) for entry in entries) == sorted(id(w) for _, w in built)


def growing_steps(monkeypatch):
    """Give every batch step a Wilkinson-growth lhs_ff of its size; returns the list of the systems built."""
    step_matrices = fem.ReducedOperators.step_matrices
    built = []

    def growth(system, pair, term_vectors):
        lhs_ff, w = step_matrices(system, pair, term_vectors)
        built.append(system)
        return wilkinson_growth(lhs_ff.shape[0]), w

    monkeypatch.setattr(fem.ReducedOperators, "step_matrices", growth)
    return built


def test_factor_check_raises_before_a_stepped_state_is_stored(demo, partition, option2, problem, coarse_mesh, monkeypatch):
    built = growing_steps(monkeypatch)
    runtime = RbmRuntime(demo, partition, option2, coarse_mesh, problem)
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=g.IMPLICIT_EULER, seed=4)
    # the full batch first: its 206 free dofs grow the factor's last column to 2^205, while
    # the column order SuperLU picks solves the singletons' smaller matrices accurately
    full = option2.n_batches - 1
    schedule = g.SampledSchedule(omegas=np.full(10, full), seed=0)
    for run in range(2):
        stored = []
        with pytest.raises(SingularSystem, match="residual"):
            g.run_rbm(demo, partition, option2, coarse_mesh, problem, config, schedule, runtime=runtime,
                      sink=lambda t, u: stored.append(t))
        # the initial state only: the first step's solve raised before its state was stored
        assert stored == [0.0]
        # the failed factor stays under its key, so the next run builds nothing and fails again
        assert list(runtime.workspace) == [(full, g.IMPLICIT_EULER, 0.01)] and len(built) == 1
    call = engine._Snapshots.__call__
    stored = []
    monkeypatch.setattr(engine._Snapshots, "__call__", lambda store, u: stored.append(store._next) or call(store, u))
    with pytest.raises(SingularSystem, match="residual"):
        g.run_full(demo, coarse_mesh, problem, g.CRANK_NICOLSON, dt=0.01, t_final=0.2)
    assert stored == [0]


def test_a_failed_factor_slices_its_step_pair_once(demo, partition, option2, problem, coarse_mesh, monkeypatch):
    # a failed full-batch factor is kept, so a later run on it slices no step and the pair,
    # sliced once by each of the five batches in the first run, is not rebuilt and left resident
    growing_steps(monkeypatch)
    pairs = []
    step_pair = fem.step_pair
    monkeypatch.setattr(fem, "step_pair", lambda *args: pairs.append(args) or step_pair(*args))
    runtime = RbmRuntime(demo, partition, option2, coarse_mesh, problem)
    config = RbmConfig(h=0.01, dt=0.01, t_final=0.05, scheme=g.IMPLICIT_EULER, seed=0)
    for omegas, kept in (([0, 1, 2, 3, 4], 5), ([4, 0, 0, 0, 0], 1)):
        stored = []
        schedule = g.SampledSchedule(omegas=np.array(omegas), seed=0)
        with pytest.raises(SingularSystem, match="residual"):
            g.run_rbm(demo, partition, option2, coarse_mesh, problem, config, schedule, runtime=runtime,
                      sink=lambda t, u: stored.append(t))
        # the singletons step; the full batch's first step raises
        assert len(stored) == kept
    assert len(pairs) == 1 and not runtime._pairs


def test_a_factor_superlu_rejects_slices_its_step_pair_once(demo, partition, option2, problem, coarse_mesh, monkeypatch):
    # SuperLU refuses the full batch's all-zero lhs_ff; the refusal stays under its key, so later
    # runs on that batch slice nothing and the pair, sliced once by each batch, is not rebuilt
    step_matrices = fem.ReducedOperators.step_matrices

    def zeroed(system, pair, term_vectors):
        lhs_ff, w = step_matrices(system, pair, term_vectors)
        if len(system.edges) == demo.n_edges:
            lhs_ff.data[:] = 0.0
        return lhs_ff, w

    monkeypatch.setattr(fem.ReducedOperators, "step_matrices", zeroed)
    pairs = []
    step_pair = fem.step_pair
    monkeypatch.setattr(fem, "step_pair", lambda *args: pairs.append(args) or step_pair(*args))
    runtime = RbmRuntime(demo, partition, option2, coarse_mesh, problem)
    config = RbmConfig(h=0.01, dt=0.01, t_final=0.05, scheme=g.IMPLICIT_EULER, seed=0)
    for omegas in ([0, 1, 2, 3, 4], [4, 0, 0, 0, 0], [4, 0, 0, 0, 0]):
        schedule = g.SampledSchedule(omegas=np.array(omegas), seed=0)
        with pytest.raises(SingularSystem, match="Factor is exactly singular"):
            g.run_rbm(demo, partition, option2, coarse_mesh, problem, config, schedule, runtime=runtime)
    assert len(pairs) == 1 and not runtime._pairs


def test_factor_check_of_zero_data_solves_a_times_one(demo, partition, option2, coarse_mesh, monkeypatch):
    # zero data give every step an all-zero right side, which a broken factor solves exactly
    zero = constant_coefficients()
    assert not g.run_full(demo, coarse_mesh, zero, g.IMPLICIT_EULER, dt=0.01, t_final=0.02).states.any()
    growing_steps(monkeypatch)
    with pytest.raises(SingularSystem, match="residual"):
        g.run_full(demo, coarse_mesh, zero, g.IMPLICIT_EULER, dt=0.01, t_final=0.02)


def test_a_new_factor_takes_one_checked_solve_then_the_plain_one(demo, partition, option2, problem, coarse_mesh, monkeypatch):
    calls = []
    checked = timestep.FactoredStep.solve
    monkeypatch.setattr(timestep.FactoredStep, "solve", lambda entry, b: calls.append(entry) or checked(entry, b))
    g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.01, t_final=0.2)
    assert len(calls) == 1
    calls.clear()
    # four steps per window: after each new factor's first step the window runs on SuperLU's own solve
    runtime = RbmRuntime(demo, partition, option2, coarse_mesh, problem)
    for seed in (4, 5):
        config = RbmConfig(h=0.04, dt=0.01, t_final=0.4, scheme=g.CRANK_NICOLSON, seed=seed)
        g.run_rbm(demo, partition, option2, coarse_mesh, problem, config, runtime=runtime)
    assert sorted(map(id, calls)) == sorted(map(id, runtime.workspace.values()))
    assert all(entry.lhs is None for entry in calls)


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

    def raising_g(error):
        def raising(t):
            raise error("no boundary data")

        return raising

    return [
        (dataclasses.replace(problem, g=raising_g(TypeError)), "g at t=0 is not numeric: no boundary data"),
        (dataclasses.replace(problem, g=raising_g(ValueError)), "g at t=0 is not numeric: no boundary data"),
        (dataclasses.replace(problem, g=lambda t: good_g(t)[:-1]),
         f"g at t=0 has shape \\({n_vertices - 1},\\), expected \\({n_vertices},\\)"),
        (dataclasses.replace(problem, g=nan_g), "g at t=0.03 is not finite"),
        (dataclasses.replace(problem, f=g.SeparableSource(terms=((space, nan_factor), *problem.f.terms[1:]))),
         "time factor 0 of the source at t=0.03 is not finite"),
    ]


@pytest.mark.parametrize("case", range(5))
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
    table, boundary = runtime.drive(0.5, 0.01, 20)
    assert table is runtime.drive(0.5, 0.01, 20)[0] and len(built) == 2
    n_boundary = 2 * len(runtime.dofmap.dirichlet_dofs)
    assert boundary == np.abs(table[:, :n_boundary]).max()
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


def tree_problem(rng):
    """A depth-5 binary tree with a random manufactured solution, two parts and three batches."""
    tree = binary_tree(5)
    alpha, beta = rng.uniform(-5.0, 5.0, size=(2, tree.n_edges))
    solution = g.build_solution(tree, alpha, beta)
    partition = g.SubgraphPartition(tree, [set(range(0, tree.n_edges, 2)), set(range(1, tree.n_edges, 2))])
    family = g.batch_family([{0}, {1}, {0, 1}], [0.25, 0.25, 0.5], 2)
    return tree, partition, family, solution


def test_sink_takes_the_stored_states(demo, partition, option2, problem, coarse_mesh):
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=g.CRANK_NICOLSON, seed=6, snapshot_stride=3)
    args = (demo, partition, option2, coarse_mesh, problem, config)
    stacked = g.run_rbm(*args)
    taken = []
    streamed = g.run_rbm(*args, sink=lambda t, u: taken.append((t, u.copy())))
    assert streamed.states.shape == (0, stacked.stats["n_dofs"])
    assert np.array_equal(streamed.times, stacked.times) and streamed.stats == stacked.stats
    assert np.array_equal(streamed.schedule.omegas, stacked.schedule.omegas)
    assert np.array_equal([t for t, _ in taken], stacked.times)
    assert np.array_equal(np.array([u for _, u in taken]), stacked.states)
    assert np.array_equal(engine.stored_times(config), stacked.times)


@pytest.mark.parametrize("scheme", [g.IMPLICIT_EULER, g.CRANK_NICOLSON, g.SEMI_IMPLICIT, g.theta_method(0.7)])
@pytest.mark.parametrize("name", ["demo", "tree"])
def test_step_record_product_is_bitwise_w_z(name, scheme, demo, partition, option2, solution, rng):
    """A step record's ``matvec`` into its zeroed ``b`` is ``W @ z`` bit for bit, for every cached step.

    The record calls SciPy's private ``csr_matvec``; this pins it to the
    public product on the installed SciPy.
    """
    if name == "demo":
        graph, part, family, sol = demo, partition, option2, solution
    else:
        graph, part, family, sol = tree_problem(rng)
    runtime = RbmRuntime(graph, part, family, g.Mesh(7), g.derive_data(sol))
    dt = 0.01
    records = [engine._StepRecord(runtime, j, scheme, dt) for j in range(family.n_batches)]
    assert len(runtime.workspace) == family.n_batches
    for j, record in enumerate(records):
        w = runtime.workspace[(j, scheme, dt)].rhs
        z = rng.standard_normal(w.shape[1]) * 10.0 ** rng.uniform(-3.0, 3.0, w.shape[1])
        record.z[:] = z
        record.b.fill(0.0)
        record.matvec()
        assert record.b.tobytes() == (w @ z).tobytes()


@pytest.mark.parametrize("source", ["separable", "callable"])
def test_each_run_owns_its_scratch(source, demo, partition, option2, problem, coarse_mesh):
    """A run started on the same runtime inside another run leaves the outer run's states bitwise as they are alone.

    The inner run starts from the outer run's sink at every stored time
    and, for a callable source, from inside the outer run's load, between
    its W z and its solve.
    """
    armed = []  # holds an entry while the outer run may start an inner one

    def nest():
        if armed:
            armed.pop()
            try:
                g.run_rbm(demo, partition, option2, coarse_mesh, coeffs, dataclasses.replace(config, seed=8), runtime=runtime)
            finally:
                armed.append(True)

    def source_nesting(e, x, t):
        if e == 0:
            nest()
        return problem.f(e, x, t)

    coeffs = problem if source == "separable" else dataclasses.replace(problem, f=source_nesting)
    runtime = RbmRuntime(demo, partition, option2, coarse_mesh, coeffs)
    config = RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=g.CRANK_NICOLSON, seed=7)
    alone = g.run_rbm(demo, partition, option2, coarse_mesh, coeffs, config, runtime=runtime)
    taken = []

    def sink(t, u):
        taken.append(u.copy())
        nest()

    armed.append(True)
    g.run_rbm(demo, partition, option2, coarse_mesh, coeffs, config, runtime=runtime, sink=sink)
    assert np.array(taken).tobytes() == alone.states.tobytes()


def test_runtime_builds_each_batch_view_once(demo, partition, option1, problem, coarse_mesh, monkeypatch):
    views = []

    def counted(partition, batches, j):
        views.append(j)
        return batch_view(partition, batches, j)

    monkeypatch.setattr(engine, "batch_view", counted)
    runtime = RbmRuntime(demo, partition, option1, coarse_mesh, problem)
    n = option1.n_batches
    config = RbmConfig(h=0.01, dt=0.01, t_final=0.01 * n, scheme=g.IMPLICIT_EULER, seed=0)
    schedule = g.SampledSchedule(omegas=np.arange(n), seed=0)
    g.run_rbm(demo, partition, option1, coarse_mesh, problem, config, schedule, runtime=runtime)
    assert views == list(range(n))
    assert runtime.a1_report == g.check_assumption_A1(partition, option1.batches)


def summary_of(evaluator, trajs):
    """(error1, error2, variance) of whole trajectories, each evaluated block by block."""
    err2 = np.array([squared_errors(evaluator, traj.states, traj.times) for traj in trajs])
    n = len(trajs)
    mean = sum(traj.states for traj in trajs) / n
    variance = (err2.sum(axis=0) - np.sqrt(err2).sum(axis=0) ** 2 / n) / (n - 1)
    return err2.mean(axis=0).max(), squared_errors(evaluator, mean, trajs[0].times).max(), variance.max()


@pytest.mark.parametrize("rows", [1, 4, 11])
@pytest.mark.parametrize("name", ["demo", "tree"])
def test_streamed_realizations_give_the_errors_of_whole_trajectories(
    name, rows, demo, partition, option2, solution, monkeypatch, rng
):
    """11 stored states, streamed in blocks of 1, 4 (the last block holds 3) and 11."""
    if name == "demo":
        graph, part, family, sol = demo, partition, option2, solution
    else:
        graph, part, family, sol = tree_problem(rng)
    mesh = g.Mesh(3)
    coeffs = g.derive_data(sol)
    runtime = RbmRuntime(graph, part, family, mesh, coeffs)
    stacked = L2ErrorEvaluator(fem.Elements(runtime.dofmap, fem.GAUSS3), sol)
    table = runtime.elements.elements
    # the widest scratch row: the dofs, or the element chains (a node more per chain than elements)
    chains = 1 + np.count_nonzero(table.pair[1:, 0] != table.pair[:-1, 1])
    monkeypatch.setattr(manufactured, "ERROR_BLOCK", rows * 8 * max(len(table.pair) + chains, table.n_dofs))
    evaluator = L2ErrorEvaluator(table, sol)
    assert evaluator.block_rows == rows
    configs = [RbmConfig(h=0.02, dt=0.01, t_final=0.2, scheme=g.CRANK_NICOLSON, seed=s) for s in range(3)]
    times = engine.stored_times(configs[0])
    assert len(times) == 11
    streamed, added = ErrorAccumulator(times, evaluator), ErrorAccumulator(times, evaluator)
    trajs = []
    for config in configs:
        args = (graph, part, family, mesh, coeffs, config)
        g.run_rbm(*args, runtime=runtime, sink=streamed.store)
        trajs.append(g.run_rbm(*args, runtime=runtime))
        added.add(trajs[-1])
    got = streamed.summary()
    assert got.n_realizations == 3
    # the same blocks give the same numbers bitwise, streamed, added or reduced from the stacked errors
    assert added.summary() == got
    assert (got.error1, got.error2, got.variance) == summary_of(evaluator, trajs)
    # blocks of another size sum in another order, so only to rounding
    for value, expected in zip((got.error1, got.error2, got.variance), summary_of(stacked, trajs)):
        assert abs(value - expected) <= 1e-13 * abs(expected), (value, expected)
    assert streamed.summary() == got  # summary leaves the record and the state sum as they were


def test_accumulator_matches_times_within_the_relative_tolerance(demo, problem, solution, coarse_mesh):
    # past t = 1 a stored time may be off by TIME_MATCH_TOL * t, which is more than TIME_MATCH_TOL
    traj = g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.5, t_final=2.0)
    shifted = traj.times * (1.0 + 0.7 * engine.TIME_MATCH_TOL)
    assert np.all((shifted - traj.times)[traj.times > 1.0] > engine.TIME_MATCH_TOL)
    evaluator = L2ErrorEvaluator(fem.Elements(traj.dofmap, fem.GAUSS3), solution)
    exact, added, stored = (ErrorAccumulator(traj.times, evaluator) for _ in range(3))
    exact.add(traj)
    added.add(g.RbmTrajectory(traj.dofmap, shifted, traj.states, None, traj.config, traj.stats))
    for t, u in zip(shifted.tolist(), traj.states):
        stored.store(t, u)
    assert added.summary() == stored.summary() == exact.summary()
    # beyond the tolerance a time is off the grid, and the realization is left unfinished
    for t, u in zip(traj.times[:-1].tolist(), traj.states):
        stored.store(t, u)
    with pytest.raises(GridMismatch, match="is not time 4 of the accumulator grid"):
        stored.store(2.0 + 3.0 * engine.TIME_MATCH_TOL, traj.states[-1])
    with pytest.raises(EngineError, match="a realization stopped before its last stored time"):
        stored.summary()
    with pytest.raises(EngineError, match="no realizations accumulated"):
        ErrorAccumulator(traj.times, evaluator).summary()


def test_accumulator_restarted_on_a_longer_grid_sums_as_a_fresh_one(demo, problem, solution, coarse_mesh):
    short = g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.05, t_final=0.1)
    long = g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.05, t_final=0.2)
    evaluator = L2ErrorEvaluator(fem.Elements(long.dofmap, fem.GAUSS3), solution)
    restarted, fresh = ErrorAccumulator(short.times, evaluator), ErrorAccumulator(long.times, evaluator)
    restarted.add(short)
    restarted.restart(long.times)  # a grid longer than the state sum it holds
    restarted.add(long)
    fresh.add(long)
    assert restarted.summary() == fresh.summary()


def test_baseline_reference_takes_exact_grid_rows(demo, problem, coarse_mesh):
    full = g.run_full(demo, coarse_mesh, problem, g.IMPLICIT_EULER, dt=0.1, t_final=0.2)
    reference = engine._BaselineReference(fem.Elements(full.dofmap, fem.GAUSS3), full, full.times)
    assert np.array_equal(reference.squared_error(full.states, full.times), np.zeros(3))
    # each row is compared with the baseline state of its own time
    assert reference.squared_error(full.states[2:], [0.1])[0] > 0.0
    for t in (0.05, 0.1 + 1e-6, 0.3):
        with pytest.raises(GridMismatch, match=re.escape(f"time {t} not on the stored grid")):
            reference.squared_error(full.states[:1], [t])
