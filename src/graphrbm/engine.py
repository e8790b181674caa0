"""Windowed freeze-and-evolve solver and the deterministic baseline.

The randomized run splits [0, T] into windows of length h (an integer
multiple of the inner step dt).  Per window one batch is sampled; the
state on inactive edges is frozen at its window-start values, the
rescaled operators on the active subgraph advance over the window with
interface vertices held at their frozen values and exterior boundary
vertices following the Dirichlet data, and the pieces glue through the
shared vertex dofs.  The deterministic baseline ``run_full`` is the
one-part, one-batch run: one part holds every edge and one batch holds
that part, so pi = 1, nothing is rescaled, no vertex is frozen, and one
window covers all of [0, T].  Both entry points share one runtime type
and one loop.

Each edge is integrated once per runtime (``fem.assemble``), and every
batch's operators and load are scaled sums of those element data: the
active edges' K and C + P blocks and source loads times 1/pi of their
part, the mass unscaled.  Nothing is integrated inside the time loop
except a source that is not separable.  Systems are cached per batch and
steps per (batch, scheme, dt), all a window's matrices depend on; a cached
step is the factor of lhs_ff and W below, and lhs_ff is not kept.

Every active system keeps its operators as element blocks.  Per (batch,
scheme, dt) it combines them with ``timestep.imex_theta`` and sums them,
one COO->CSR each, into lhs_ff (free rows and columns) and one fused
matrix W over the columns

    [free | interface | Dirichlet at t0 | Dirichlet at t1 | load terms],

holding rhs_ff, rhs_fi - lhs_fi, rhs_fD, -lhs_fD and the separable load
term vectors V.  One step of every scheme is then

    lhs_ff u1 = W z (+ dt (theta F1 + (1 - theta) F0) for a callable source),
    z = [u_f | u_if | g_D(t0) | g_D(t1) | dt (theta tau(t1) + (1 - theta) tau(t0))],

one matvec and one solve: u_if are the window-frozen interface values and
the rest of z is one row of a drive table that the runtime fills once per
(theta, dt, step count), calling g and each time factor tau once per step
time, and shares, read-only, with every run of that key.  The
Dirichlet columns are numbered over all of the graph's Dirichlet dofs, so
one drive row serves every batch; an exterior dof takes g(t1) from it
after the step, never the stored u, since an exterior vertex outside the
batches of the last windows still holds a stale value.  A run whose
stored states are not finite, or exceed BLOWUP_FACTOR times the scale of
its data and the growth its operators allow, raises NumericalBlowup
(``_check_growth``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import fem
from .decomposition import (
    BatchFamily,
    SubgraphPartition,
    batch_family,
    batch_view,
    check_assumption_A1,
    zeta_weights,
)
from .errors import NumericalError, SolverError
from .fem import (
    CoefficientSet,
    DofMap,
    LoadEvaluator,
    Mesh,
    reduce_operators,
    restrict_to_batch,
)
from .graph import MetricGraph
from .manufactured import (
    L2ErrorEvaluator,
    ManufacturedSolution,
    mass_norms_sq,
    stacked_squared_error,
)
from .timestep import SchemeKind, StepWorkspace, factor_nnz, imex_theta

TIME_MATCH_TOL = 1e-9
CONVECTION_SUM_TOL = 1e-10
# stored states may reach this multiple of the data scale times G (``_check_growth``)
BLOWUP_FACTOR = 1e6


class EngineError(SolverError):
    pass


class InvalidSpec(EngineError):
    pass


class ScheduleMismatch(InvalidSpec):
    pass


class GridMismatch(EngineError):
    pass


class NumericalBlowup(EngineError, NumericalError):
    pass


# a schedule's seed is the 128-bit key of its Philox generator
SEED_BITS = 128


def _check_snapshot_stride(stride: int) -> None:
    if stride < 1:
        raise InvalidSpec(f"snapshot stride must be at least 1, got {stride}")


@dataclass(frozen=True)
class RbmConfig:
    """Window length h, inner step dt, horizon, scheme and seed for one run."""

    h: float
    dt: float
    t_final: float
    scheme: SchemeKind
    seed: int
    snapshot_stride: int = 1

    def __post_init__(self):
        _check_snapshot_stride(self.snapshot_stride)
        if not 0 <= self.seed < 2**SEED_BITS:
            raise InvalidSpec(f"seed must lie in [0, 2**{SEED_BITS}), got {self.seed}")


@dataclass(frozen=True)
class SampledSchedule:
    """The drawn batch index per window, reproducible from the seed."""

    omegas: np.ndarray
    seed: int

    @property
    def n_windows(self) -> int:
        return len(self.omegas)


def sample_schedule(n_windows: int, probs, seed: int) -> SampledSchedule:
    """Draw the i.i.d. batch schedule with a counter-based generator."""
    probs = np.asarray(probs, dtype=float)
    rng = np.random.Generator(np.random.Philox(key=seed))
    omegas = rng.choice(len(probs), size=int(n_windows), p=probs / probs.sum())
    return SampledSchedule(omegas=omegas.astype(int), seed=int(seed))


class RbmTrajectory:
    """Stored states on the full dof vector at selected times.

    Vertex continuity is built into the dof map, so every stored state
    is a conforming P1 function on the whole graph.
    """

    def __init__(self, graph, mesh, dofmap, times, states, schedule, config, stats):
        self.graph = graph
        self.mesh = mesh
        self.dofmap = dofmap
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.schedule = schedule
        self.config = dict(config)
        self.stats = dict(stats)

    def state_at(self, t: float) -> np.ndarray:
        idx = self.time_index(t)
        return self.states[idx]

    def time_index(self, t: float) -> int:
        hits = np.flatnonzero(np.abs(self.times - t) <= TIME_MATCH_TOL * max(1.0, abs(t)))
        if hits.size == 0:
            raise GridMismatch(f"time {t} not on the stored grid")
        return int(hits[0])


def _count_steps(total: float, step: float, total_name: str, step_name: str) -> int:
    """How many steps of length ``step`` make ``total``; both must be positive finite numbers."""
    for name, value in ((total_name, total), (step_name, step)):
        if not (math.isfinite(value) and value > 0.0):
            raise InvalidSpec(f"{name} must be a positive finite number, got {value}")
    n = round(total / step)
    if n < 1 or abs(n * step - total) > TIME_MATCH_TOL * max(1.0, abs(total)):
        raise ScheduleMismatch(f"{total_name}: {total} is not a positive integer multiple of {step}")
    return int(n)


class _ActiveSystem:
    """Reduced operators and a free-restricted load for one active subgraph.

    ``operators`` (``fem.ReducedOperators``) holds the element blocks of M,
    K and C + P and their places in the fused step matrix W, whose constrained
    columns are ``interface_dofs`` and then the graph's Dirichlet dofs at
    the step's start and end; ``exterior_columns`` places each of
    ``exterior_dofs`` among those Dirichlet dofs.
    """

    def __init__(self, operators, load, n_active, interface_dofs, exterior_dofs, exterior_columns):
        self.operators = operators
        self.free = operators.free
        self.load = load
        self.n_active = int(n_active)
        self.interface_dofs = np.asarray(interface_dofs, dtype=int)
        self.exterior_dofs = np.asarray(exterior_dofs, dtype=int)
        self.exterior_columns = np.asarray(exterior_columns, dtype=int)

    def fused_matrices(self, scheme: SchemeKind, dt: float):
        """(lhs_ff, W) of the IMEX-theta step of ``scheme``: see ``fem.ReducedOperators``."""
        lhs, rhs = imex_theta(scheme, *self.operators.blocks(), dt)
        return self.operators.fuse(lhs, rhs, self.load.term_vectors)


class RbmRuntime:
    """Shared immutable machinery for repeated runs of one problem.

    Holds the dof map, the element data of every edge (integrated once,
    in ``__init__``), the convection vertex sums, the per-batch reduced
    systems, the cached steps (factor and W) and the read-only drive tables
    per (theta, dt, n_steps).  All of it depends only on
    (graph, partition, family, mesh, coeffs), so independent realizations
    and different window lengths can share one runtime; reuse changes
    nothing but the setup cost.  ``run_full`` builds one over the
    one-part partition and its one-batch family.
    """

    def __init__(
        self,
        graph: MetricGraph,
        partition: SubgraphPartition,
        family: BatchFamily,
        mesh: Mesh,
        coeffs: CoefficientSet,
    ):
        self.graph = graph
        self.partition = partition
        self.family = family
        self.mesh = mesh
        self.coeffs = coeffs
        self.dofmap = DofMap(graph, mesh, graph.boundary_vertices)
        self.workspace = StepWorkspace()
        self.a1_report = check_assumption_A1(partition, family.batches)
        self.elements = fem.assemble(graph, mesh, self.dofmap, coeffs)
        self.convection_sums = fem.convection_vertex_sums(graph, coeffs.b)
        self._systems: dict[int, _ActiveSystem] = {}
        self._drives: dict[tuple[float, float, int], np.ndarray] = {}

    def drive(self, theta: float, dt: float, n_steps: int) -> np.ndarray:
        """The read-only ``_drive_table`` of (theta, dt, n_steps), built on first use; a failed one is not kept."""
        key = (theta, dt, n_steps)
        table = self._drives.get(key)
        if table is None:
            table = _drive_table(self, theta, dt, n_steps)
            table.flags.writeable = False
            self._drives[key] = table
        return table

    def system(self, j: int) -> _ActiveSystem:
        system = self._systems.get(j)
        if system is None:
            view = batch_view(self.partition, self.family.batches, j)
            bdofs = restrict_to_batch(self.dofmap, view)
            factor = zeta_weights(self.partition, self.family, j)
            dirichlet = self.dofmap.dirichlet_dofs
            operators = reduce_operators(
                self.elements, bdofs.free, bdofs.interface_dofs, dirichlet, factor
            )
            load = LoadEvaluator(self.elements, factor, bdofs.free)
            system = _ActiveSystem(
                operators,
                load,
                n_active=len(bdofs.active),
                interface_dofs=bdofs.interface_dofs,
                exterior_dofs=bdofs.exterior_dofs,
                exterior_columns=np.searchsorted(dirichlet, bdofs.exterior_dofs),
            )
            self._systems[j] = system
        return system


def _advance(runtime, j, scheme, dt, u, first, last, every, snapshots, drive):
    """Advance u in place from global step ``first`` to ``last`` on batch j's active subgraph.

    Each step s solves lhs_ff x = W z (+ dt F for a callable source) with
    z = [u_f | u_if | drive[s - 1]]: the interface values stay at what ``u``
    holds on entry, and the drive row brings g at both ends of the step
    and the load weights.  Only the free and exterior dofs of the system
    are ever written, which freezes everything outside the active subgraph
    exactly; an exterior value is g(s dt), read off the drive row.  After
    each step s with ``s % every == 0`` the pair (s dt, copy of u) joins
    ``snapshots``; u itself is written only then and after step ``last``.
    Returns the system's active dof count, its factor nnz and, for a
    callable source, the sum over the steps of max |dt F| (0 otherwise).
    """
    system = runtime.system(j)
    key = (j, scheme.label, dt)
    step = runtime.workspace.factorization(key, lambda: system.fused_matrices(scheme, dt))
    w = step.rhs
    n_free = len(system.free)
    n_fixed = n_free + len(system.interface_dofs)
    exterior = system.exterior_dofs
    exterior_t1 = len(runtime.dofmap.dirichlet_dofs) + system.exterior_columns
    theta = scheme.theta_value
    callable_source = runtime.elements.source is not None
    f_prev = system.load(first * dt) if callable_source and theta != 1.0 else None
    forced = 0.0
    z = np.empty(w.shape[1])
    z[n_free:n_fixed] = u[system.interface_dofs]
    x = u[system.free]
    for s in range(first + 1, last + 1):
        z[:n_free] = x
        z[n_fixed:] = drive[s - 1]
        b = w @ z
        if callable_source:
            f_next = system.load(s * dt)
            if f_prev is None:
                load = dt * f_next
            else:
                load = dt * (theta * f_next + (1.0 - theta) * f_prev)
                f_prev = f_next
            b += load
            forced += np.abs(load).max(initial=0.0)
        x = step.solve(b)
        snapshot = s % every == 0
        if snapshot or s == last:
            u[system.free] = x
            u[exterior] = drive[s - 1, exterior_t1]
            if snapshot:
                snapshots.append((s * dt, u.copy()))
    return system.n_active, factor_nnz(step), forced


def _tabulate(fn, times, name: str, shape: tuple) -> np.ndarray:
    """``fn(t)`` at every time, stacked; InvalidSpec names ``name`` and t unless each is finite of ``shape``."""
    try:
        table = np.array([fn(t) for t in times], dtype=float)
    except (TypeError, ValueError):
        table = None
    if table is None or table.shape != (len(times), *shape):
        for t in times:  # call again to name the first bad value
            try:
                value = np.asarray(fn(t), dtype=float)
            except (TypeError, ValueError) as exc:
                raise InvalidSpec(f"{name} at t={t:g} is not numeric: {exc}") from exc
            if value.shape != shape:
                raise InvalidSpec(f"{name} at t={t:g} has shape {value.shape}, expected {shape}")
        raise InvalidSpec(f"{name} does not give values of shape {shape}")
    finite = np.isfinite(table.reshape(len(times), -1)).all(axis=1)
    if not finite.all():
        raise InvalidSpec(f"{name} at t={times[int(np.argmin(finite))]:g} is not finite")
    return table


def _drive_table(runtime, theta: float, dt: float, n_steps: int) -> np.ndarray:
    """The data of every step, one row per step, with g and each time factor called once per step time.

    Row s - 1 is [g(t_{s-1}) | g(t_s) at the Dirichlet dofs | dt (theta tau(t_s) +
    (1 - theta) tau(t_{s-1}))], tau the time factors of a separable source.
    g must give a finite array of n_vertices entries and each time factor
    a finite number, else InvalidSpec.
    """
    coeffs = runtime.coeffs
    dirichlet = runtime.dofmap.dirichlet_dofs
    times = [s * dt for s in range(n_steps + 1)]
    if coeffs.g is None:
        boundary = np.zeros((n_steps + 1, len(dirichlet)))
    else:
        boundary = _tabulate(coeffs.g, times, "g", (runtime.graph.n_vertices,))[:, dirichlet]
    factors = [
        _tabulate(fn, times, f"time factor {k} of the source", ())
        for k, fn in enumerate(runtime.elements.time_fns)
    ]
    factors = np.column_stack(factors) if factors else np.empty((n_steps + 1, 0))
    loads = dt * (theta * factors[1:] + (1.0 - theta) * factors[:-1])
    return np.hstack([boundary[:-1], boundary[1:], loads])


def _check_growth(runtime, traj, drive, omegas, n_sub, theta, dt, forced) -> None:
    """Raise NumericalBlowup if a stored state is not finite or max |u| exceeds the run's limit.

    limit = BLOWUP_FACTOR * G * (max |u(0)| + max |g(t_s)| + L / (min_e dx_e / 2)),
    with L the load the run applied, summed over the steps as max |dt F|,
    over a lower bound of every lumped mass entry (the integral of a hat
    function).  A separable load is bounded term by term by the tabulated
    weights times max |V_k| over the batches run; a callable one comes as
    ``forced``, measured in the step loop.  G is the growth the steps allow
    a fastest mode: the product over the windows of rho^n_sub, where
    rho = max(e^x, (1 + (1 - theta) x) / (1 - theta x)) and x = dt times
    the batch's ``growth_rate``; a window with theta x >= 1 lifts the limit.
    G = 1 when every batch's operators are dissipative.  The limit is only
    formed when max |u| exceeds BLOWUP_FACTOR * (max |u(0)| + max |g(t_s)|).
    """
    states = traj.states
    hi, lo = float(states.max()), float(states.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        finite = np.isfinite(states).all(axis=1)
        t = traj.times[int(np.argmin(finite))]
        raise NumericalBlowup(f"the stored state at t={t:g} has non-finite entries")
    peak = max(hi, -lo)
    n_boundary = 2 * len(runtime.dofmap.dirichlet_dofs)
    scale = np.abs(states[0]).max(initial=0.0) + np.abs(drive[:, :n_boundary]).max(initial=0.0)
    if peak <= BLOWUP_FACTOR * scale:
        return
    used, windows = np.unique(omegas, return_counts=True)
    systems = [runtime.system(int(j)) for j in used]
    term_peaks = np.zeros(drive.shape[1] - n_boundary)
    log_growth = 0.0
    for system, count in zip(systems, windows):
        peaks = [np.abs(v).max(initial=0.0) for v in system.load.term_vectors]
        term_peaks = np.maximum(term_peaks, peaks)
        x = dt * system.operators.growth_rate
        if theta * x >= 1.0:
            return
        log_rho = max(x, math.log((1.0 + (1.0 - theta) * x) / (1.0 - theta * x)))
        log_growth += count * n_sub * log_rho
    forced += float(np.abs(drive[:, n_boundary:]).sum(axis=0) @ term_peaks)
    scale += forced / (0.5 * runtime.elements.elements.dx.min())
    growth = math.exp(min(log_growth, 700.0))  # math.exp overflows past about 709
    limit = BLOWUP_FACTOR * scale * growth
    if peak <= limit:
        return
    t = traj.times[int(np.argmax(np.abs(states).max(axis=1) > limit))]
    raise NumericalBlowup(
        f"max |u| = {peak:.3e} exceeds {BLOWUP_FACTOR:g} times the data scale {scale:.3e} "
        f"times the growth allowance {growth:.3e}, first at t={t:g}"
    )


def _solve(runtime, omegas, n_sub, scheme, dt, every, schedule, config) -> RbmTrajectory:
    """Run window k on batch ``omegas[k]`` for n_sub steps from the initial state.

    Reads the data of every step off the runtime's drive table, rejects a
    non-finite y0, stores the state after global step s when ``s % every
    == 0`` or s is the last, and checks the stored states (``_check_growth``).
    """
    graph = runtime.graph
    worst = float(np.abs(runtime.convection_sums).max(initial=0.0))
    if worst > CONVECTION_SUM_TOL:
        warnings.warn(
            f"convection coefficient has nonzero vertex sums (max {worst:.2e}); "
            "energy estimates for the continuous problem do not apply",
            RuntimeWarning,
            stacklevel=3,
        )
    if not runtime.a1_report.holds:
        names = [graph.vertex_name(v) for v in runtime.a1_report.violations]
        warnings.warn(
            f"batch family leaves interior vertices uncovered: {names}; "
            "the randomized dynamics are inconsistent at those vertices",
            RuntimeWarning,
            stacklevel=3,
        )
    dofmap = runtime.dofmap
    n_steps = len(omegas) * n_sub
    drive = runtime.drive(scheme.theta_value, dt, n_steps)
    u = fem.interpolate(graph, runtime.mesh, dofmap, runtime.coeffs.y0)
    if not np.isfinite(u).all():
        bad = next(e for e in range(graph.n_edges) if not np.isfinite(u[dofmap.edge_dofs(e)]).all())
        raise InvalidSpec(f"the initial state y0 is not finite on edge {bad}")
    u[dofmap.dirichlet_dofs] = drive[0, : len(dofmap.dirichlet_dofs)]
    snapshots = [(0.0, u.copy())]
    max_active = max_nnz = 0
    forced = 0.0
    for k, j in enumerate(omegas):
        first, last = k * n_sub, (k + 1) * n_sub
        n_active, nnz, window_forced = _advance(
            runtime, int(j), scheme, dt, u, first, last, every, snapshots, drive
        )
        max_active = max(max_active, n_active)
        max_nnz = max(max_nnz, nnz)
        forced += window_forced
    if n_steps % every:
        snapshots.append((n_steps * dt, u.copy()))
    times, states = zip(*snapshots)
    stats = {
        "n_dofs": dofmap.n_dofs,
        "max_active_dofs": max_active,
        "max_factor_nnz": max_nnz,
        "n_factorizations": len(runtime.workspace),
    }
    traj = RbmTrajectory(graph, runtime.mesh, dofmap, times, states, schedule, config, stats)
    _check_growth(runtime, traj, drive, omegas, n_sub, scheme.theta_value, dt, forced)
    return traj


def run_full(
    graph: MetricGraph,
    mesh: Mesh,
    coeffs: CoefficientSet,
    scheme: SchemeKind,
    dt: float,
    t_final: float,
    snapshot_stride: int = 1,
) -> RbmTrajectory:
    """Deterministic solve on the whole graph; boundary vertices are Dirichlet.

    This is the randomized run of the one-part partition and its one-batch
    family over one window of all the steps: pi = 1, so nothing is
    rescaled, and no vertex is frozen.
    """
    n_steps = _count_steps(t_final, dt, "t_final", "dt")
    _check_snapshot_stride(snapshot_stride)
    whole = SubgraphPartition(graph, [range(graph.n_edges)])
    runtime = RbmRuntime(graph, whole, batch_family([{0}], [1.0], 1), mesh, coeffs)
    config = {
        "kind": "full",
        "scheme": scheme.label,
        "dt": dt,
        "t_final": t_final,
        "nodes_per_edge": mesh.nodes_per_edge,
        "snapshot_stride": snapshot_stride,
    }
    return _solve(runtime, [0], n_steps, scheme, dt, snapshot_stride, None, config)


def run_rbm(
    graph: MetricGraph,
    partition: SubgraphPartition,
    family: BatchFamily,
    mesh: Mesh,
    coeffs: CoefficientSet,
    config: RbmConfig,
    schedule: SampledSchedule | None = None,
    runtime: RbmRuntime | None = None,
) -> RbmTrajectory:
    """One realization of the randomized freeze-and-evolve solve.

    Passing a runtime built from the same problem reuses its element data,
    convection vertex sums, batch systems and factorizations across
    realizations.  The runtime must hold the very graph, partition, family
    and coeffs objects passed here and an equal mesh; InvalidSpec otherwise.
    """
    n_sub = _count_steps(config.h, config.dt, "window length h", "dt")
    n_windows = _count_steps(config.t_final, config.h, "t_final", "window length h")
    if runtime is None:
        runtime = RbmRuntime(graph, partition, family, mesh, coeffs)
    elif runtime.mesh != mesh or any(
        held is not given
        for held, given in zip(
            (runtime.graph, runtime.partition, runtime.family, runtime.coeffs),
            (graph, partition, family, coeffs),
        )
    ):
        raise InvalidSpec("runtime was built for another graph, partition, family, mesh or coeffs")
    if schedule is None:
        schedule = sample_schedule(n_windows, family.probs, config.seed)
    if schedule.n_windows != n_windows:
        raise ScheduleMismatch(
            f"schedule has {schedule.n_windows} windows, expected {n_windows}"
        )
    if np.any(schedule.omegas < 0) or np.any(schedule.omegas >= family.n_batches):
        raise ScheduleMismatch("schedule contains batch indices out of range")
    run_config = {
        "kind": "rbm",
        "scheme": config.scheme.label,
        "dt": config.dt,
        "h": config.h,
        "t_final": config.t_final,
        "seed": config.seed,
        "nodes_per_edge": mesh.nodes_per_edge,
        "snapshot_stride": config.snapshot_stride,
    }
    every = config.snapshot_stride * n_sub
    return _solve(
        runtime, schedule.omegas, n_sub, config.scheme, config.dt, every, schedule, run_config
    )


@dataclass(frozen=True)
class ErrorSummary:
    """Monte-Carlo error metrics over a set of realizations.

    error1: sup over stored times of the mean squared L2 error;
    error2: sup over stored times of the squared L2 error of the mean state;
    variance: sup over stored times of the sample variance of the L2 error norm.
    """

    error1: float
    error2: float
    variance: float
    n_realizations: int


class _BaselineReference:
    def __init__(self, trajectory: RbmTrajectory, baseline: RbmTrajectory, times: np.ndarray):
        self._mass = fem.mass_matrix(trajectory.graph, trajectory.mesh, trajectory.dofmap)
        try:
            idx = [baseline.time_index(t) for t in times]
        except GridMismatch as exc:
            raise GridMismatch(f"baseline grid does not cover the stored times: {exc}") from exc
        self._reference_states = baseline.states[idx]
        self._times = times

    def squared_error(self, state: np.ndarray, t):
        """|u - baseline(t)|^2 in the mass norm, for one state or a (k, n) stack."""
        return stacked_squared_error(self._squared_errors, state, t)

    def _squared_errors(self, states: np.ndarray, times: np.ndarray) -> np.ndarray:
        k = np.abs(self._times[None, :] - times[:, None]).argmin(axis=1)
        return mass_norms_sq(self._mass, states - self._reference_states[k])


class ErrorAccumulator:
    """Streaming accumulation of the Monte-Carlo error metrics.

    Keeps one running state sum (for the mean trajectory) and per-time
    scalar sums, so studies can discard each realization right after
    adding it.
    """

    def __init__(self, times: np.ndarray, reference):
        self.times = np.asarray(times, dtype=float)
        self.reference = reference
        self._sum_sq = np.zeros(len(self.times))
        self._sum_norm = np.zeros(len(self.times))
        self._state_sum = None
        self._count = 0

    def add(self, traj: RbmTrajectory) -> None:
        if len(traj.times) != len(self.times) or np.any(
            np.abs(traj.times - self.times) > TIME_MATCH_TOL
        ):
            raise GridMismatch("realization stored times differ from the accumulator grid")
        if self._state_sum is None:
            self._state_sum = np.zeros_like(traj.states)
        self._state_sum += traj.states
        err2 = self.reference.squared_error(traj.states, self.times)
        self._sum_sq += err2
        self._sum_norm += np.sqrt(err2)
        self._count += 1

    def summary(self) -> ErrorSummary:
        if self._count == 0:
            raise EngineError("no realizations accumulated")
        n = self._count
        mean_sq = self._sum_sq / n
        error1 = float(mean_sq.max())
        mean_states = self._state_sum / n
        error2 = self.reference.squared_error(mean_states, self.times).max()
        if n > 1:
            var = (self._sum_sq - self._sum_norm**2 / n) / (n - 1)
            variance = float(var.max())
        else:
            variance = 0.0
        return ErrorSummary(
            error1=error1, error2=float(error2), variance=variance, n_realizations=n
        )


def estimate_errors(
    runs,
    solution: ManufacturedSolution | None = None,
    baseline: RbmTrajectory | None = None,
) -> ErrorSummary:
    """Error metrics of one or more realizations against a reference.

    With a manufactured solution the L2 norms are continuous edgewise
    quadrature against the exact solution; with a baseline trajectory
    they are exact mass-matrix norms of the dof difference.  All runs
    must share the same stored time grid (GridMismatch otherwise).
    """
    runs = list(runs)
    if not runs:
        raise EngineError("need at least one realization")
    if solution is None and baseline is None:
        raise EngineError("need a manufactured solution or a baseline trajectory")
    times = runs[0].times
    if solution is not None:
        reference = L2ErrorEvaluator(runs[0].graph, runs[0].mesh, runs[0].dofmap, solution)
    else:
        reference = _BaselineReference(runs[0], baseline, times)
    acc = ErrorAccumulator(times, reference)
    for traj in runs:
        acc.add(traj)
    return acc.summary()
