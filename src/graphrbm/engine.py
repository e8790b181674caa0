"""Windowed freeze-and-evolve solver and the deterministic baseline.

The randomized run splits [0, T] into windows of length h (an integer
multiple of the inner step dt).  Per window one batch is sampled; the
state on inactive edges is frozen at its window-start values, the
rescaled operators on the active subgraph advance over the window with
interface vertices held at their frozen values and exterior boundary
vertices following the Dirichlet data, and the pieces glue through the
shared vertex dofs.  The deterministic baseline is the same inner
stepper applied to the full graph for all of [0, T].

Per-part operator matrices are assembled once and batch operators are
formed by scaling with the batch normalizers, so no re-quadrature
happens inside the time loop; factorizations are cached per batch and
reused across windows because the window matrix only depends on the
batch, the scheme and dt.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np

from . import fem
from .decomposition import (
    BatchFamily,
    SubgraphPartition,
    ZetaWeights,
    batch_view,
    check_assumption_A1,
    zeta_weights,
)
from .errors import SolverError
from .fem import (
    CoefficientSet,
    LoadEvaluator,
    Mesh,
    build_dofmap,
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
from .timestep import SchemeKind, StepWorkspace, factor_nnz

TIME_MATCH_TOL = 1e-9
CONVECTION_SUM_TOL = 1e-10


class EngineError(SolverError):
    pass


class ScheduleMismatch(EngineError):
    pass


class GridMismatch(EngineError):
    pass


class InvalidSpec(EngineError):
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

    @property
    def config_hash(self) -> str:
        text = repr(sorted(self.config.items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _count_steps(total: float, dt: float, what: str) -> int:
    n = round(total / dt)
    if n < 1 or abs(n * dt - total) > TIME_MATCH_TOL * max(1.0, abs(total)):
        raise ScheduleMismatch(f"{what}: {total} is not a positive integer multiple of {dt}")
    return int(n)


_DENSE_COLUMN_LIMIT = 64


def _column_block(matrix, positions):
    """Extract constrained columns; small blocks go dense for cheap matvecs."""
    if len(positions) == 0:
        return None
    block = matrix[:, positions]
    if len(positions) <= _DENSE_COLUMN_LIMIT:
        return np.asarray(block.todense())
    return block.tocsr()


class _ActiveSystem:
    """Reduced operator blocks and a free-restricted load for one active subgraph.

    The constrained couplings are split by role: interface columns
    multiply window-constant frozen values (lifted once per window),
    exterior columns multiply the time-dependent boundary data (applied
    per step).
    """

    def __init__(self, reduced, load, key, n_active, interface_dofs, exterior_dofs):
        self.free = reduced.free
        self.constrained = reduced.constrained
        self.m_ff = reduced.mass
        self.k_ff = reduced.stiffness
        self.cp_ff = (reduced.convection + reduced.reaction).tocsr()
        self.s_ff = (reduced.stiffness + self.cp_ff).tocsr()
        self.load = load
        self.key = key
        self.n_active = int(n_active)
        self.interface_dofs = np.asarray(interface_dofs, dtype=int)
        self.exterior_dofs = np.asarray(exterior_dofs, dtype=int)
        iface_pos = np.searchsorted(self.constrained, self.interface_dofs)
        ext_pos = np.searchsorted(self.constrained, self.exterior_dofs)
        s_fc = (reduced.stiffness_c + reduced.convection_c + reduced.reaction_c).tocsr()
        cp_fc = (reduced.convection_c + reduced.reaction_c).tocsr()
        self.m_ext = _column_block(reduced.mass_c, ext_pos)
        self.k_ext = _column_block(reduced.stiffness_c, ext_pos)
        self.cp_ext = _column_block(cp_fc, ext_pos)
        self.s_ext = _column_block(s_fc, ext_pos)
        self.k_if = _column_block(reduced.stiffness_c, iface_pos)
        self.cp_if = _column_block(cp_fc, iface_pos)
        self.s_if = _column_block(s_fc, iface_pos)

    def n_free(self) -> int:
        return len(self.free)


def _advance(system, scheme, u, start_step, n_steps, dt, g_ext, frozen, workspace, record=None):
    """Advance n_steps on the active subgraph in place; returns the factor nnz.

    ``g_ext(t)`` supplies the exterior boundary values, ``frozen`` the
    window-constant interface values.  Only the free and exterior dofs
    of the system are ever written (interface dofs already hold their
    frozen values), which freezes everything outside the active
    subgraph exactly.
    """
    t0 = start_step * dt
    u_f = u[system.free].copy()
    g_prev = g_ext(t0)

    def write_back(step_index: int, g_now) -> None:
        u[system.free] = u_f
        if system.m_ext is not None:
            u[system.exterior_dofs] = g_now
        if record is not None:
            record(step_index)

    if scheme.is_semi_implicit:
        lu = workspace.factorization(
            (system.key, scheme.label, dt), lambda: system.m_ff + dt * system.k_ff
        )
        base = np.zeros(system.n_free())
        if system.k_if is not None:
            base -= system.k_if @ frozen
            base -= system.cp_if @ frozen
        for i in range(n_steps):
            t1 = (start_step + i + 1) * dt
            g1 = g_ext(t1)
            f_next = system.load(t1) + base
            if system.k_ext is not None:
                f_next -= system.k_ext @ g1
                f_next -= system.cp_ext @ g_prev
            rhs = system.m_ff @ u_f
            rhs -= dt * (system.cp_ff @ u_f)
            rhs += dt * f_next
            if system.m_ext is not None:
                rhs -= system.m_ext @ (g1 - g_prev)
            u_f = lu.solve(rhs)
            g_prev = g1
            if record is not None or i == n_steps - 1:
                write_back(start_step + i + 1, g1)
        return factor_nnz(lu)

    theta = scheme.theta_value
    lu = workspace.factorization(
        (system.key, scheme.label, dt), lambda: system.m_ff + (dt * theta) * system.s_ff
    )
    base = np.zeros(system.n_free())
    if system.s_if is not None:
        base -= system.s_if @ frozen
    f_prev = None
    if theta != 1.0:
        f_prev = system.load(t0) + base
        if system.s_ext is not None:
            f_prev -= system.s_ext @ g_prev
    for i in range(n_steps):
        t1 = (start_step + i + 1) * dt
        g1 = g_ext(t1)
        f_next = system.load(t1) + base
        if system.s_ext is not None:
            f_next -= system.s_ext @ g1
        rhs = system.m_ff @ u_f
        rhs += (dt * theta) * f_next
        if system.m_ext is not None:
            rhs -= system.m_ext @ (g1 - g_prev)
        if theta != 1.0:
            rhs += (dt * (1.0 - theta)) * (f_prev - system.s_ff @ u_f)
            f_prev = f_next
        u_f = lu.solve(rhs)
        g_prev = g1
        if record is not None or i == n_steps - 1:
            write_back(start_step + i + 1, g1)
    return factor_nnz(lu)


def _boundary_values(coeffs: CoefficientSet, n_vertices: int):
    if coeffs.g is None:
        zeros = np.zeros(n_vertices)
        return lambda t: zeros
    return coeffs.g


def _warn_on_convection_sums(graph: MetricGraph, coeffs: CoefficientSet) -> None:
    sums = fem.convection_vertex_sums(graph, coeffs.b)
    worst = float(np.abs(sums).max(initial=0.0))
    if worst > CONVECTION_SUM_TOL:
        warnings.warn(
            f"convection coefficient has nonzero vertex sums (max {worst:.2e}); "
            "energy estimates for the continuous problem do not apply",
            RuntimeWarning,
            stacklevel=3,
        )


def _initial_state(graph, mesh, dofmap, coeffs, g_of_t) -> np.ndarray:
    u = fem.interpolate(graph, mesh, dofmap, coeffs.y0)
    u[dofmap.dirichlet_dofs] = g_of_t(0.0)[dofmap.dirichlet_dofs]
    return u


def run_full(
    graph: MetricGraph,
    mesh: Mesh,
    coeffs: CoefficientSet,
    scheme: SchemeKind,
    dt: float,
    t_final: float,
    snapshot_stride: int = 1,
) -> RbmTrajectory:
    """Deterministic solve on the whole graph; boundary vertices are Dirichlet."""
    n_steps = _count_steps(t_final, dt, "t_final")
    _check_snapshot_stride(snapshot_stride)
    _warn_on_convection_sums(graph, coeffs)
    dofmap = build_dofmap(graph, mesh, graph.boundary_vertices)
    ops = fem.assemble(graph, mesh, dofmap, coeffs)
    reduced = reduce_operators(ops, dofmap.free_dofs, dofmap.dirichlet_dofs)
    load = LoadEvaluator(graph, mesh, dofmap, coeffs.f, restrict=dofmap.free_dofs)
    system = _ActiveSystem(
        reduced,
        load,
        key="full",
        n_active=dofmap.n_dofs,
        interface_dofs=np.array([], dtype=int),
        exterior_dofs=dofmap.dirichlet_dofs,
    )
    g_of_t = _boundary_values(coeffs, graph.n_vertices)
    exterior_ids = system.exterior_dofs

    def g_ext(t: float) -> np.ndarray:
        return g_of_t(t)[exterior_ids]

    u = _initial_state(graph, mesh, dofmap, coeffs, g_of_t)
    times = [0.0]
    states = [u.copy()]

    def record(step_index: int) -> None:
        if step_index % snapshot_stride == 0 or step_index == n_steps:
            times.append(step_index * dt)
            states.append(u.copy())

    workspace = StepWorkspace()
    frozen = np.zeros(0)
    nnz = _advance(system, scheme, u, 0, n_steps, dt, g_ext, frozen, workspace, record=record)
    stats = {
        "n_dofs": dofmap.n_dofs,
        "max_active_dofs": dofmap.n_dofs,
        "max_factor_nnz": nnz,
        "n_factorizations": len(workspace),
    }
    config = {
        "kind": "full",
        "scheme": scheme.label,
        "dt": dt,
        "t_final": t_final,
        "nodes_per_edge": mesh.nodes_per_edge,
        "snapshot_stride": snapshot_stride,
    }
    return RbmTrajectory(graph, mesh, dofmap, times, states, None, config, stats)


class RbmRuntime:
    """Shared immutable machinery for repeated randomized runs.

    Holds the dof map, the per-part operator matrices, the per-batch
    reduced systems and the factorization cache.  All of it depends only
    on (graph, partition, family, mesh, coeffs), so independent
    realizations and different window lengths can share one runtime;
    reuse changes nothing but the setup cost.
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
        self.dofmap = build_dofmap(graph, mesh, graph.boundary_vertices)
        self.boundary_of_t = _boundary_values(coeffs, graph.n_vertices)
        self.workspace = StepWorkspace()
        self.a1_report = check_assumption_A1(partition, family.batches)
        self._part_ops = [
            fem.assemble(
                graph, mesh, self.dofmap, coeffs, weights=_part_indicator(partition, i, graph)
            )
            for i in range(partition.n_parts)
        ]
        self._systems: dict[int, _ActiveSystem] = {}
        self._g_ext: dict[int, object] = {}

    def system(self, j: int) -> _ActiveSystem:
        system = self._systems.get(j)
        if system is None:
            view = batch_view(self.partition, self.family.batches, j)
            bdofs = restrict_to_batch(self.dofmap, view)
            parts = sorted(self.family.batches[j])
            part_ops = self._part_ops
            mass = sum(part_ops[i].mass for i in parts).tocsr()
            scale = [1.0 / self.family.normalizers[i] for i in parts]
            stiffness = sum(s * part_ops[i].stiffness for s, i in zip(scale, parts)).tocsr()
            convection = sum(s * part_ops[i].convection for s, i in zip(scale, parts)).tocsr()
            reaction = sum(s * part_ops[i].reaction for s, i in zip(scale, parts)).tocsr()
            ops_j = fem.AssembledOperators(mass, stiffness, convection, reaction)
            reduced = reduce_operators(ops_j, bdofs.free, bdofs.constrained)
            load = LoadEvaluator(
                self.graph,
                self.mesh,
                self.dofmap,
                self.coeffs.f,
                weights=zeta_weights(self.partition, self.family, j),
                restrict=bdofs.free,
            )
            system = _ActiveSystem(
                reduced,
                load,
                key=("batch", j),
                n_active=len(bdofs.active),
                interface_dofs=bdofs.interface_dofs,
                exterior_dofs=bdofs.exterior_dofs,
            )
            self._systems[j] = system
        return system

    def exterior_values(self, j: int):
        g_ext = self._g_ext.get(j)
        if g_ext is None:
            ids = self.system(j).exterior_dofs
            boundary = self.boundary_of_t
            g_ext = lambda t: boundary(t)[ids]
            self._g_ext[j] = g_ext
        return g_ext


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

    Passing a runtime built from the same problem reuses the assembled
    operators and factorizations across realizations.
    """
    n_sub = _count_steps(config.h, config.dt, "window length h")
    n_windows = _count_steps(config.t_final, config.h, "t_final")
    _warn_on_convection_sums(graph, coeffs)
    if runtime is None:
        runtime = RbmRuntime(graph, partition, family, mesh, coeffs)
    if not runtime.a1_report.holds:
        names = [graph.vertex_name(v) for v in runtime.a1_report.violations]
        warnings.warn(
            f"batch family leaves interior vertices uncovered: {names}; "
            "the randomized dynamics are inconsistent at those vertices",
            RuntimeWarning,
            stacklevel=2,
        )
    if schedule is None:
        schedule = sample_schedule(n_windows, family.probs, config.seed)
    if schedule.n_windows != n_windows:
        raise ScheduleMismatch(
            f"schedule has {schedule.n_windows} windows, expected {n_windows}"
        )
    if np.any(schedule.omegas < 0) or np.any(schedule.omegas >= family.n_batches):
        raise ScheduleMismatch("schedule contains batch indices out of range")

    dofmap = runtime.dofmap
    g_of_t = runtime.boundary_of_t
    u = _initial_state(graph, mesh, dofmap, coeffs, g_of_t)
    times = [0.0]
    states = [u.copy()]
    workspace = runtime.workspace
    max_active = 0
    max_nnz = 0
    stride = config.snapshot_stride

    for k in range(n_windows):
        j = int(schedule.omegas[k])
        system = runtime.system(j)
        g_ext = runtime.exterior_values(j)
        frozen = u[system.interface_dofs]
        nnz = _advance(
            system, config.scheme, u, k * n_sub, n_sub, config.dt, g_ext, frozen, workspace
        )
        max_active = max(max_active, system.n_active)
        max_nnz = max(max_nnz, nnz)
        if (k + 1) % stride == 0 or k == n_windows - 1:
            times.append((k + 1) * n_sub * config.dt)
            states.append(u.copy())

    stats = {
        "n_dofs": dofmap.n_dofs,
        "max_active_dofs": max_active,
        "max_factor_nnz": max_nnz,
        "n_factorizations": len(workspace),
    }
    run_config = {
        "kind": "rbm",
        "scheme": config.scheme.label,
        "dt": config.dt,
        "h": config.h,
        "t_final": config.t_final,
        "seed": config.seed,
        "nodes_per_edge": mesh.nodes_per_edge,
        "snapshot_stride": stride,
    }
    return RbmTrajectory(graph, mesh, dofmap, times, states, schedule, run_config, stats)


def _part_indicator(partition: SubgraphPartition, i: int, graph: MetricGraph) -> ZetaWeights:
    factor = np.zeros(graph.n_edges)
    for e in partition.parts[i]:
        factor[e] = 1.0
    return ZetaWeights(batch_index=-1, edge_factor=factor, masked_vertices=frozenset())


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
    must share the same stored time grid.
    """
    runs = list(runs)
    if not runs:
        raise EngineError("need at least one realization")
    if solution is None and baseline is None:
        raise EngineError("need a manufactured solution or a baseline trajectory")
    times = runs[0].times
    for other in runs[1:]:
        if len(other.times) != len(times) or np.any(np.abs(other.times - times) > TIME_MATCH_TOL):
            raise GridMismatch("realizations do not share a common stored time grid")
    if solution is not None:
        reference = L2ErrorEvaluator(runs[0].graph, runs[0].mesh, runs[0].dofmap, solution)
    else:
        reference = _BaselineReference(runs[0], baseline, times)
    acc = ErrorAccumulator(times, reference)
    for traj in runs:
        acc.add(traj)
    return acc.summary()
