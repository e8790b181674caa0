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
except a source that is not separable.  Systems and factorizations are
cached per batch and reused across windows because the window matrix only
depends on the batch, the scheme and dt.

Every active system keeps its operators as the free-dof rows over the
columns [free | constrained], the constrained columns being the interface
dofs followed by the exterior dofs.  One step of every scheme is the
IMEX-theta recurrence of ``timestep.imex_theta`` on that layout,

    lhs_ff u1 = rhs [u_f; c0] - lhs_fc c1 + dt (theta F1 + (1 - theta) F0),

with c(t) the window-frozen interface values followed by g_ext(t).  The
exterior part of c0 is g_ext(t0), never the stored u: an exterior vertex
outside the batches of the last windows still holds a stale value.
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
from .errors import SolverError
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


class EngineError(SolverError):
    pass


class InvalidSpec(EngineError):
    pass


class ScheduleMismatch(InvalidSpec):
    pass


class GridMismatch(EngineError):
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

    ``mass``, ``stiffness`` and ``lower`` (C + P) are the free-dof rows
    over the columns [free | constrained]; the constrained columns are
    ``interface_dofs`` followed by ``exterior_dofs``, so the constrained
    vector c(t) is the window-frozen interface values followed by
    g_ext(t); its exterior part at a window's start is g_ext(t0), not the
    stored state.
    """

    def __init__(self, reduced, load, n_active, interface_dofs, exterior_dofs):
        self.free = reduced.free
        self.mass = reduced.mass
        self.stiffness = reduced.stiffness
        self.lower = reduced.lower
        self.load = load
        self.n_active = int(n_active)
        self.interface_dofs = np.asarray(interface_dofs, dtype=int)
        self.exterior_dofs = np.asarray(exterior_dofs, dtype=int)

    def step_matrices(self, scheme: SchemeKind, dt: float):
        """(lhs_ff, lhs_fc, rhs) of the IMEX-theta step: lhs split into free and constrained columns."""
        lhs, rhs = imex_theta(scheme, self.mass, self.stiffness, self.lower, dt)
        n_free = len(self.free)
        return lhs[:, :n_free], lhs[:, n_free:], rhs


def _boundary_values(coeffs: CoefficientSet, n_vertices: int):
    if coeffs.g is None:
        zeros = np.zeros(n_vertices)
        return lambda t: zeros
    return coeffs.g


class RbmRuntime:
    """Shared immutable machinery for repeated runs of one problem.

    Holds the dof map, the element data of every edge (integrated once,
    in ``__init__``), the convection vertex sums, the per-batch reduced
    systems and the factorization cache.  All of it depends only on
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
        self.boundary_of_t = _boundary_values(coeffs, graph.n_vertices)
        self.workspace = StepWorkspace()
        self.a1_report = check_assumption_A1(partition, family.batches)
        self.elements = fem.assemble(graph, mesh, self.dofmap, coeffs)
        self.convection_sums = fem.convection_vertex_sums(graph, coeffs.b)
        self._systems: dict[int, _ActiveSystem] = {}

    def system(self, j: int) -> _ActiveSystem:
        system = self._systems.get(j)
        if system is None:
            view = batch_view(self.partition, self.family.batches, j)
            bdofs = restrict_to_batch(self.dofmap, view)
            weights = zeta_weights(self.partition, self.family, j)
            reduced = reduce_operators(self.elements, bdofs.free, bdofs.constrained, weights)
            load = LoadEvaluator(self.elements, weights, bdofs.free)
            system = _ActiveSystem(
                reduced,
                load,
                n_active=len(bdofs.active),
                interface_dofs=bdofs.interface_dofs,
                exterior_dofs=bdofs.exterior_dofs,
            )
            self._systems[j] = system
        return system


def _advance(runtime, j, scheme, dt, u, first, last, every, snapshots):
    """Advance u in place from global step ``first`` to ``last`` on batch j's active subgraph.

    The interface values are frozen at what ``u`` holds on entry and the
    exterior ones follow the Dirichlet data.  Only the free and exterior
    dofs of the system are ever written, which freezes everything outside
    the active subgraph exactly.  After each step s with ``s % every == 0``
    the pair (s dt, copy of u) joins ``snapshots``; u itself is written
    only then and after step ``last``.  Returns the system's active dof
    count and factor nnz.
    """
    system = runtime.system(j)
    key = (j, scheme.label, dt)
    workspace = runtime.workspace
    lhs_ff, lhs_fc, rhs = workspace.matrices(key, lambda: system.step_matrices(scheme, dt))
    lu = workspace.factorization(key, lambda: lhs_ff)
    boundary = runtime.boundary_of_t
    exterior = system.exterior_dofs
    theta = scheme.theta_value
    n_free = len(system.free)
    n_fixed = n_free + len(system.interface_dofs)
    t0 = first * dt
    x = np.concatenate([u[system.free], u[system.interface_dofs], boundary(t0)[exterior]])  # [u_f | c]
    f_prev = system.load(t0) if theta != 1.0 else None
    for s in range(first + 1, last + 1):
        t1 = s * dt
        b = rhs @ x
        x[n_fixed:] = boundary(t1)[exterior]
        b -= lhs_fc @ x[n_free:]
        f_next = system.load(t1)
        if f_prev is None:
            b += dt * f_next
        else:
            b += dt * (theta * f_next + (1.0 - theta) * f_prev)
            f_prev = f_next
        x[:n_free] = lu.solve(b)
        snapshot = s % every == 0
        if snapshot or s == last:
            u[system.free] = x[:n_free]
            u[exterior] = x[n_fixed:]
            if snapshot:
                snapshots.append((t1, u.copy()))
    return system.n_active, factor_nnz(lu)


def _solve(runtime, omegas, n_sub, scheme, dt, every, schedule, config) -> RbmTrajectory:
    """Run window k on batch ``omegas[k]`` for n_sub steps from the initial state.

    Stores the state after global step s when ``s % every == 0`` or s is
    the last step.
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
    u = fem.interpolate(graph, runtime.mesh, dofmap, runtime.coeffs.y0)
    u[dofmap.dirichlet_dofs] = runtime.boundary_of_t(0.0)[dofmap.dirichlet_dofs]
    snapshots = [(0.0, u.copy())]
    max_active = max_nnz = 0
    for k, j in enumerate(omegas):
        first, last = k * n_sub, (k + 1) * n_sub
        n_active, nnz = _advance(runtime, int(j), scheme, dt, u, first, last, every, snapshots)
        max_active = max(max_active, n_active)
        max_nnz = max(max_nnz, nnz)
    n_steps = len(omegas) * n_sub
    if n_steps % every:
        snapshots.append((n_steps * dt, u.copy()))
    times, states = zip(*snapshots)
    stats = {
        "n_dofs": dofmap.n_dofs,
        "max_active_dofs": max_active,
        "max_factor_nnz": max_nnz,
        "n_factorizations": len(runtime.workspace),
    }
    return RbmTrajectory(graph, runtime.mesh, dofmap, times, states, schedule, config, stats)


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
