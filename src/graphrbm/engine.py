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

Each edge is integrated once per runtime (``fem.assemble``, whose element
table carries the runtime's one ``DofMap``), and its K, C + P and source
count with 1/pi of its part in every batch that holds it, so the runtime
hands ``assemble`` that factor per edge, which applies it once: the
element data hold the rescaled problem, with each separable source term's
vector V over all dofs, and no step, slice, load or growth bound takes a
factor.  The runtime sums one step pair L, R of the whole graph per
(scheme, dt) (``fem.step_pair``).  A batch is one system,
``fem.ReducedOperators``: the active edges its ``BatchView`` lists, its
dof split, and its step matrices lhs_ff and W, gathered from the free
rows of the pair and of each V.
Nothing is integrated inside the time loop except a source that is not
separable, which the system's ``load`` integrates per call.  Systems are
cached per batch and steps per (batch, scheme, dt); a cached step is the
factor of lhs_ff and W, and lhs_ff is kept only until the factor's first
solve has checked it; a scheme keys them by itself, never by its printed
label.  One step of every scheme is

    lhs_ff u1 = W z (+ dt (theta F1 + (1 - theta) F0) for a callable source),
    z = [u_f | u_if | g_D(t0) | g_D(t1) | dt (theta tau(t1) + (1 - theta) tau(t0))],

one matvec and one solve: u_if are the window-frozen interface values and
the rest of z is one row of a drive table that the runtime fills once per
(theta, dt, step count), calling g and each time factor tau once per step
time, and shares, read-only, with every run of that key.  The
Dirichlet columns are numbered over all of the graph's Dirichlet dofs, so
one drive row serves every batch; an exterior dof takes g(t1) from it
after the step, never the stored u, since an exterior vertex outside the
batches of the last windows still holds a stale value.

The first window of a run on a batch looks up its system and cached step
once and keeps them in a step record (``_StepRecord``) that the run owns,
with two scratch vectors z and b; its later windows read the record only.
W z is SciPy's CSR product routine written into b, bit for bit ``W @ z``
(which runs the same routine into a fresh zeroed array), so a step
allocates no product.  The scratch belongs to the run, never to the
runtime, so runs that share a runtime, one inside another's sink
included, never share a buffer.  Every step calls its cached step's
current ``solve``: a new factor's first one checks the factor
(``timestep.FactoredStep``), raising SingularSystem before that step's
state is stored, and then puts SuperLU's own in its place.

Each stored (t, u) goes to one store (``_Snapshots``) as it is reached:
by default it is written once into a preallocated (stored times x dofs)
array, the trajectory's ``states``; a caller's sink, such as a study's
``ErrorAccumulator.store``, which keeps each realization's squared errors
as one row, takes it instead, and the trajectory then holds no states.
The store takes each state's max |u| as it comes, so a non-finite state
raises NumericalBlowup at once, and a run whose stored states exceed
BLOWUP_FACTOR times the scale of its data and the growth its operators
allow raises it at the end (``_check_growth``).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy.sparse._sparsetools import csr_matvec

from . import fem
from .decomposition import (
    BatchFamily,
    SubgraphPartition,
    _a1_report,
    batch_family,
    batch_view,
    edge_factors,
)
from .errors import NumericalError, SolverError, integer, number
from .fem import GAUSS3, CoefficientSet, Elements, Mesh, reduce_operators
from .graph import MetricGraph, check_same_graph
from .manufactured import ElementMassNorms, L2ErrorEvaluator, ManufacturedSolution, checked_block
from .timestep import SchemeKind, StepWorkspace, factor_nnz

TIME_MATCH_TOL = 1e-9
CONVECTION_SUM_TOL = 1e-10
# stored states may reach this multiple of the data scale times G (``_check_growth``)
BLOWUP_FACTOR = 1e6


def _same_time(stored: float, t: float):
    """Whether the stored time (each of an array of them) is t: within TIME_MATCH_TOL * max(1, |t|)."""
    return abs(stored - t) <= TIME_MATCH_TOL * max(1.0, abs(t))


class EngineError(SolverError):
    pass


class InvalidSpec(EngineError):
    pass


class GridMismatch(EngineError):
    pass


class NumericalBlowup(EngineError, NumericalError):
    pass


# a schedule's seed is the 128-bit key of its Philox generator
SEED_BITS = 128


def _snapshot_stride(stride: int) -> int:
    stride = integer(stride, "snapshot stride", InvalidSpec)
    if stride < 1:
        raise InvalidSpec(f"snapshot stride must be at least 1, got {stride}")
    return stride


@dataclass(frozen=True)
class RbmConfig:
    """Window length h, inner step dt, horizon, scheme and seed for one run; seed and stride are held as Python ints."""

    h: float
    dt: float
    t_final: float
    scheme: SchemeKind
    seed: int
    snapshot_stride: int = 1

    def __post_init__(self):
        object.__setattr__(self, "snapshot_stride", _snapshot_stride(self.snapshot_stride))
        seed = integer(self.seed, "seed", InvalidSpec)
        if not 0 <= seed < 2**SEED_BITS:
            raise InvalidSpec(f"seed must lie in [0, 2**{SEED_BITS}), got {seed}")
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class SampledSchedule:
    """The drawn batch index per window, reproducible from the seed; ``run_rbm`` takes a 1-d integer array only."""

    omegas: np.ndarray
    seed: int

    @property
    def n_windows(self) -> int:
        return len(self.omegas)


def sample_schedule(n_windows: int, probs, seed: int) -> SampledSchedule:
    """Draw ``n_windows`` batches i.i.d. with ``probs / probs.sum()`` (finite, >= 0, sum > 0) from the Philox key ``seed``."""
    n_windows = integer(n_windows, "the window count", InvalidSpec)
    if n_windows < 0:
        raise InvalidSpec(f"the window count must not be negative, got {n_windows}")
    seed = integer(seed, "seed", InvalidSpec)
    probs = np.array([number(p, f"probability {j + 1}", InvalidSpec) for j, p in enumerate(probs)])
    if not (np.isfinite(probs).all() and (probs >= 0.0).all() and probs.sum() > 0.0):
        raise InvalidSpec(f"probabilities must be finite and non-negative with a positive sum, got {probs.tolist()}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    omegas = rng.choice(len(probs), size=n_windows, p=probs / probs.sum())
    return SampledSchedule(omegas=omegas.astype(int), seed=seed)


class RbmTrajectory:
    """Stored states on the full dof vector of ``dofmap`` at selected times.

    Vertex continuity is built into the dof map, so every stored state
    is a conforming P1 function on the whole graph; ``graph`` and ``mesh``
    are the dof map's.
    """

    def __init__(self, dofmap, times, states, schedule, config, stats):
        self.graph = dofmap.graph
        self.mesh = dofmap.mesh
        self.dofmap = dofmap
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.schedule = schedule
        self.config = dict(config)
        self.stats = dict(stats)

    def state_at(self, t: float) -> np.ndarray:
        """The stored state at time t; GridMismatch if t is off the grid or the run kept no states (a ``sink``)."""
        idx = self.time_index(t)
        if len(self.states) != len(self.times):
            raise GridMismatch(f"the run kept no states, so it has none at time {t}: it was made with a sink")
        return self.states[idx]

    def time_index(self, t: float) -> int:
        hits = np.flatnonzero(_same_time(self.times, t))
        if hits.size == 0:
            raise GridMismatch(f"time {t} not on the stored grid")
        return int(hits[0])


def _count_steps(total: float, step: float, total_name: str, step_name: str) -> int:
    """How many steps of length ``step`` make ``total``, both positive finite numbers (``errors.number``), in their own type."""
    for name, value in ((total_name, total), (step_name, step)):
        if not (math.isfinite(number(value, name, InvalidSpec)) and value > 0.0):
            raise InvalidSpec(f"{name} must be a positive finite number, got {value}")
    n = round(total / step)
    if n < 1 or not _same_time(n * step, total):
        raise InvalidSpec(f"{total_name}: {total} is not a positive integer multiple of {step}")
    return int(n)


class RbmRuntime:
    """Shared immutable machinery for repeated runs of one problem.

    Holds the dof map, the element data of every edge (integrated once,
    in ``__init__``, with each edge's 1/pi applied there), which hold each
    separable source term's vector over all dofs, the convection vertex
    sums, each batch's ``BatchView`` (built once, in ``__init__``, where
    the A1 report is read off them), the per-batch reduced systems, the
    step pairs per (scheme, dt) until every batch has sliced its step, the
    cached steps (factor and W) and the read-only drive tables per (theta,
    dt, n_steps), each with the largest |g| it holds.  All of it depends
    only on (graph, partition, family, mesh, coeffs), so independent
    realizations and different window lengths can share one runtime; reuse
    changes nothing but the setup cost.  ``run_full`` builds one over the
    one-part partition and its one-batch family; a partition of another graph is InvalidSpec.
    """

    def __init__(
        self,
        graph: MetricGraph,
        partition: SubgraphPartition,
        family: BatchFamily,
        mesh: Mesh,
        coeffs: CoefficientSet,
    ):
        check_same_graph(graph, "the runtime", partition.graph, "the partition", InvalidSpec)
        self.graph = graph
        self.partition = partition
        self.family = family
        self.mesh = mesh
        self.coeffs = coeffs
        edge_factor = edge_factors(partition, family)
        self.workspace = StepWorkspace()
        self._views = [batch_view(partition, family.batches, j) for j in range(family.n_batches)]
        self.a1_report = _a1_report(graph, self._views)
        self.elements = fem.assemble(graph, mesh, coeffs, edge_factor)
        self.dofmap = self.elements.elements.dofmap
        self.convection_sums = fem.convection_vertex_sums(graph, coeffs.b)
        self._systems: dict[int, fem.ReducedOperators] = {}
        # per (scheme, dt): [the graph's step pair, the batches yet to slice it]
        self._pairs: dict[tuple[SchemeKind, float], list] = {}
        self._drives: dict[tuple[float, float, int], tuple[np.ndarray, float]] = {}

    def drive(self, theta: float, dt: float, n_steps: int) -> tuple[np.ndarray, float]:
        """The read-only ``_drive_table`` of (theta, dt, n_steps) and the largest |g| it holds.

        Both are built on first use and kept for the runtime's life; a failed table is not kept.
        """
        key = (theta, dt, n_steps)
        entry = self._drives.get(key)
        if entry is None:
            table = _drive_table(self, theta, dt, n_steps)
            table.flags.writeable = False
            n_boundary = 2 * len(self.dofmap.dirichlet_dofs)
            entry = self._drives[key] = table, float(np.abs(table[:, :n_boundary]).max(initial=0.0))
        return entry

    def step_matrices(self, system: fem.ReducedOperators, scheme: SchemeKind, dt: float):
        """The (lhs_ff, W) of (scheme, dt) of a batch ``system``, for its cached step, sliced from ``fem.step_pair``.

        The pair is built on first use and goes once every batch has sliced it, as each
        does once: the workspace keeps each (batch, scheme, dt) step, one that fails its
        factor check included.
        """
        key = (scheme, dt)
        entry = self._pairs.get(key)
        if entry is None:
            entry = self._pairs[key] = [fem.step_pair(self.elements, scheme, dt), self.family.n_batches]
        matrices = system.step_matrices(entry[0], self.elements.term_vectors)
        entry[1] -= 1
        if not entry[1]:
            del self._pairs[key]  # no step reads it again
        return matrices

    def system(self, j: int) -> fem.ReducedOperators:
        """Batch j's system (``fem.ReducedOperators``), built on first use."""
        system = self._systems.get(j)
        if system is None:
            system = self._systems[j] = reduce_operators(self.elements, self._views[j])
        return system

    @cached_property
    def _edge_rates(self) -> np.ndarray:
        return fem.growth_rates(self.elements).reshape(self.graph.n_edges, -1).max(axis=1)

    def growth_rate(self, j: int) -> float:
        """Batch j's growth bound: the largest ``fem.growth_rates`` over its active elements, or 0."""
        active = self._edge_rates[self.system(j).edges]
        return max(0.0, float(active.max(initial=0.0)))


class _StepRecord:
    """Batch j's step in one run: everything its windows read, looked up once.

    The batch's ``system`` (``fem.ReducedOperators``: its dof split and
    load), its cached step (``entry``) and ``matvec``: SciPy's
    ``csr_matvec`` bound to W's CSR arrays and shape and to the run's own
    scratch ``z`` (W's width) and ``b`` (n_free).  ``matvec()`` adds W z
    into b, so after ``b.fill(0.0)`` b holds W z, bit for bit ``W @ z``,
    which runs the same routine into a fresh zeroed array.  The system
    and the step come through ``runtime.system`` and
    ``runtime.workspace.factorization``, once per run and batch; a factor
    miss slices its step from that same system.
    """

    __slots__ = ("system", "entry", "z", "b", "matvec")

    def __init__(self, runtime, j: int, scheme: SchemeKind, dt: float):
        system = runtime.system(j)
        step = runtime.workspace.factorization((j, scheme, dt), lambda: runtime.step_matrices(system, scheme, dt))
        w = step.rhs
        self.system, self.entry = system, step
        self.z, self.b = np.empty(w.shape[1]), np.empty(w.shape[0])
        self.matvec = partial(csr_matvec, *w.shape, w.indptr, w.indices, w.data, self.z, self.b)


def _advance(step, u, first, last, every, store, drive, dt, theta):
    """Advance u in place from global step ``first`` to ``last`` on the active subgraph of ``step``'s batch.

    Each step s solves lhs_ff x = W z (+ dt F for a callable source) with
    z = [u_f | u_if | drive[s - 1]]: the interface values stay at what ``u``
    holds on entry, and the drive row brings g at both ends of the step
    and the load weights.  z and W z are formed in the scratch of the
    run's ``_StepRecord``, W z by SciPy's CSR routine into the zeroed b,
    bitwise ``W @ z``, so a step allocates no product.  The solve is the
    cached step's ``solve``, read every step: a new factor's first one
    checks it and puts SuperLU's own in its place (``timestep.FactoredStep``),
    so the later steps of the same window call SuperLU directly.  Only the
    free and exterior dofs of the system are ever written, which freezes
    everything outside the active subgraph exactly; an exterior value is
    g(s dt), read off the drive row.  After
    each step s with ``s % every == 0`` u goes to ``store``; u itself is
    written only then and after step ``last``.
    Returns, for a callable source, the sum over the steps of max |dt F|
    (0 otherwise).
    """
    system, z, b, matvec, entry = step.system, step.z, step.b, step.matvec, step.entry
    free, exterior, exterior_t1, load = system.free, system.exterior, system.exterior_t1, system.load
    n_free = len(free)
    n_fixed = n_free + len(system.interface)
    f_prev = load(first * dt) if load is not None and theta != 1.0 else None
    forced = 0.0
    z[n_free:n_fixed] = u[system.interface]
    x = u[free]
    for s in range(first + 1, last + 1):
        z[:n_free] = x
        z[n_fixed:] = drive[s - 1]
        b.fill(0.0)
        matvec()
        if load is not None:
            f_next = load(s * dt)
            if f_prev is None:
                applied = dt * f_next
            else:
                applied = dt * (theta * f_next + (1.0 - theta) * f_prev)
                f_prev = f_next
            b += applied
            forced += np.abs(applied).max(initial=0.0)
        x = entry.solve(b)
        snapshot = s % every == 0
        if snapshot or s == last:
            u[free] = x
            u[exterior] = drive[s - 1, exterior_t1]
            if snapshot:
                store(u)
    return forced


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


def _stored_steps(n_steps: int, every: int) -> np.ndarray:
    """The global steps after which a run of ``n_steps`` stores its state: 0, every multiple of ``every``, and the last."""
    steps = np.arange(0, n_steps + 1, every)
    return steps if n_steps % every == 0 else np.append(steps, n_steps)


class _Snapshots:
    """The store of one run's stored states, called with u at each stored time in turn.

    Each state goes to ``sink(t, u)``, which must copy what it keeps, or,
    without a sink, is written once into ``states``, preallocated with one
    row per stored time (no rows with a sink).  ``peaks`` holds each state's
    max |u|, taken as it is stored; a state with a non-finite entry raises
    NumericalBlowup there, so the run steps no further.
    """

    def __init__(self, times: np.ndarray, n_dofs: int, sink):
        self.times = times
        self.peaks = np.empty(len(times))
        self.states = np.empty((len(times) if sink is None else 0, n_dofs))
        self._sink = sink
        self._times = times.tolist()
        self._next = 0

    def __call__(self, u: np.ndarray) -> None:
        k = self._next
        # the ufuncs' own reductions (ndarray.max and min add a Python layer), both NaN if u has one
        peak = max(float(np.maximum.reduce(u)), -float(np.minimum.reduce(u)))
        if not math.isfinite(peak):
            raise NumericalBlowup(f"the stored state at t={self._times[k]:g} has non-finite entries")
        self.peaks[k] = peak
        if self._sink is None:
            self.states[k] = u
        else:
            self._sink(self._times[k], u)
        self._next = k + 1


def _check_growth(runtime, stored, boundary, drive, omegas, n_sub, theta, dt, forced) -> None:
    """Raise NumericalBlowup if max |u| over the stored states exceeds the run's limit.

    limit = BLOWUP_FACTOR * G * (max |u(0)| + max |g(t_s)| + L / (min_e dx_e / 2)),
    with L the load the run applied, summed over the steps as max |dt F|,
    over a lower bound of every lumped mass entry (the integral of a hat
    function).  max |u| of each state comes from ``stored.peaks`` and
    max |g(t_s)| as ``boundary``, which the runtime's ``drive`` gives with
    the drive table.  A separable load is bounded term by term by the
    tabulated weights times max |V_k| at the free dofs of the batches run;
    a callable one comes as ``forced``, measured in the step loop.  G is the growth the steps allow
    a fastest mode: the product over the windows of rho^n_sub, where
    rho = max(e^x, (1 + (1 - theta) x) / (1 - theta x)) and x = dt times
    the batch's ``growth_rate``; a window with theta x >= 1 lifts the limit.
    G = 1 when every batch's operators are dissipative.  The limit is only
    formed when max |u| exceeds BLOWUP_FACTOR * (max |u(0)| + max |g(t_s)|).
    """
    state_peaks = stored.peaks
    peak = state_peaks.max()
    scale = state_peaks[0] + boundary
    if peak <= BLOWUP_FACTOR * scale:
        return
    n_boundary = 2 * len(runtime.dofmap.dirichlet_dofs)
    used, windows = np.unique(omegas, return_counts=True)
    term_peaks = np.zeros(drive.shape[1] - n_boundary)
    log_growth = 0.0
    for j, count in zip(used.tolist(), windows):
        free = runtime.system(j).free
        peaks = [np.abs(v[free]).max(initial=0.0) for v in runtime.elements.term_vectors]
        term_peaks = np.maximum(term_peaks, peaks)
        x = dt * runtime.growth_rate(j)
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
    t = stored.times[int(np.argmax(state_peaks > limit))]
    raise NumericalBlowup(
        f"max |u| = {peak:.3e} exceeds {BLOWUP_FACTOR:g} times the data scale {scale:.3e} "
        f"times the growth allowance {growth:.3e}, first at t={t:g}"
    )


def _solve(runtime, omegas, n_sub, scheme, dt, every, schedule, config, sink=None) -> RbmTrajectory:
    """Run window k on batch ``omegas[k]`` for n_sub steps from the initial state.

    Reads the data of every step off the runtime's drive table, rejects a
    non-finite y0, stores the state after global step s when ``s % every
    == 0`` or s is the last (``_Snapshots``, into ``sink`` when one is
    given), and checks the stored states (``_check_growth``).  The first
    window on each batch makes its ``_StepRecord``, which this run alone
    keeps and every later window on that batch reuses.
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
    theta = scheme.theta_value
    drive, boundary = runtime.drive(theta, dt, n_steps)
    u = fem.interpolate(dofmap, runtime.coeffs.y0)
    if not np.isfinite(u).all():
        bad = next(e for e in range(graph.n_edges) if not np.isfinite(u[dofmap.edge_dofs(e)]).all())
        raise InvalidSpec(f"the initial state y0 is not finite on edge {bad}")
    u[dofmap.dirichlet_dofs] = drive[0, : len(dofmap.dirichlet_dofs)]
    stored = _Snapshots(dt * _stored_steps(n_steps, every), dofmap.n_dofs, sink)
    stored(u)
    steps: dict[int, _StepRecord] = {}  # this run's, with its scratch
    forced = 0.0
    for k, j in enumerate(np.asarray(omegas).tolist()):
        step = steps.get(j)
        if step is None:
            step = steps[j] = _StepRecord(runtime, j, scheme, dt)
        forced += _advance(step, u, k * n_sub, (k + 1) * n_sub, every, stored, drive, dt, theta)
    if n_steps % every:
        stored(u)
    stats = {
        "n_dofs": dofmap.n_dofs,
        "max_active_dofs": max(step.system.n_active for step in steps.values()),
        "max_factor_nnz": max(factor_nnz(step.entry) for step in steps.values()),
    }
    _check_growth(runtime, stored, boundary, drive, omegas, n_sub, theta, dt, forced)
    return RbmTrajectory(dofmap, stored.times, stored.states, schedule, config, stats)


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
    snapshot_stride = _snapshot_stride(snapshot_stride)
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


def _windows(config: RbmConfig) -> tuple[int, int]:
    """(inner steps per window, windows in [0, T]) of ``config``."""
    n_sub = _count_steps(config.h, config.dt, "window length h", "dt")
    return n_sub, _count_steps(config.t_final, config.h, "t_final", "window length h")


def stored_times(config: RbmConfig) -> np.ndarray:
    """The times at which ``run_rbm`` stores a state of a run of ``config``, in order."""
    n_sub, n_windows = _windows(config)
    return config.dt * _stored_steps(n_windows * n_sub, config.snapshot_stride * n_sub)


def run_rbm(
    graph: MetricGraph,
    partition: SubgraphPartition,
    family: BatchFamily,
    mesh: Mesh,
    coeffs: CoefficientSet,
    config: RbmConfig,
    schedule: SampledSchedule | None = None,
    runtime: RbmRuntime | None = None,
    sink=None,
) -> RbmTrajectory:
    """One realization of the randomized freeze-and-evolve solve.

    Passing a runtime built from the same problem reuses its element data,
    convection vertex sums, batch systems and factorizations across
    realizations.  The runtime must hold the very graph, partition, family
    and coeffs objects passed here and an equal mesh; InvalidSpec otherwise.
    A ``sink(t, u)`` takes each stored state as it is reached, at the times
    of ``stored_times(config)``, and must copy what it keeps; the trajectory
    then holds its times, schedule, config and stats, and a (0, n_dofs)
    ``states``.
    """
    n_sub, n_windows = _windows(config)
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
    omegas = np.asarray(schedule.omegas)
    if omegas.dtype.kind not in "iu" or omegas.ndim != 1:
        raise InvalidSpec(
            "schedule batch indices must be a 1-d integer array, "
            f"got dtype {omegas.dtype} and shape {omegas.shape}"
        )
    if len(omegas) != n_windows:
        raise InvalidSpec(f"schedule has {len(omegas)} windows, expected {n_windows}")
    if np.any(omegas < 0) or np.any(omegas >= family.n_batches):
        raise InvalidSpec("schedule contains batch indices out of range")
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
    return _solve(runtime, omegas, n_sub, config.scheme, config.dt, every, schedule, run_config, sink)


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
    """|u - baseline(t)|^2 in the mass norm, from the mass blocks of the ``GAUSS3`` table ``elements`` (``ElementMassNorms``)."""

    def __init__(self, elements: Elements, baseline: RbmTrajectory, times: np.ndarray):
        self._mass = ElementMassNorms(elements)
        try:
            for t in times:
                baseline.time_index(t)
        except GridMismatch as exc:
            raise GridMismatch(f"baseline grid does not cover the stored times: {exc}") from exc
        self._baseline = baseline
        self.n_dofs = elements.n_dofs
        self.block_rows = self._mass.rows
        self._diff = np.empty((self.block_rows, self.n_dofs))

    def squared_error(self, states: np.ndarray, times) -> np.ndarray:
        """|u_i - baseline(t_i)|^2 in the mass norm per row of a (k, n) block; GridMismatch if t_i is off its grid."""
        states, times = checked_block(states, times, self.block_rows)
        k = [self._baseline.time_index(t) for t in times.tolist()]
        diff = self._diff[: len(states)]
        np.take(self._baseline.states, k, axis=0, out=diff, mode="clip")
        np.subtract(states, diff, out=diff)
        return np.maximum(self._mass(diff), 0.0)


class ErrorAccumulator:
    """Streaming accumulation of the Monte-Carlo error metrics on the stored times ``times``.

    A realization comes in one stored state at a time: ``store(t, u)`` is
    the sink a study hands ``run_rbm``, so no realization is ever held
    whole, and ``add(traj)`` stores each state of a whole trajectory in
    turn.  A state is copied into a block of ``reference.block_rows``
    states; each full block, and the last of a realization, is added to one
    running state sum (stored times x dofs) and goes to
    ``reference.squared_error``, which takes exactly one such block; its
    squared errors fill their slice of the realization's row of the record,
    one row per realization.  ``summary`` reduces the record and forms the
    mean state block by block in the same block array; these two are the
    only places that cut states into blocks.  ``restart`` empties both for
    a new grid and keeps the state sum's array, so one serves a whole study.
    ``seconds`` is the time spent in ``store``.
    """

    def __init__(self, times: np.ndarray, reference):
        self.reference = reference
        n, rows = reference.n_dofs, reference.block_rows
        self._state_sums = np.empty((len(times), n))
        self._block = np.empty((rows, n))
        self.seconds = 0.0
        self.restart(times)

    def restart(self, times: np.ndarray) -> None:
        """Drop every realization and take the grid ``times``; the state sum is reallocated only for a longer one."""
        self.times = np.asarray(times, dtype=float)
        self._grid = self.times.tolist()
        n_times = len(self.times)
        if n_times > len(self._state_sums):
            self._state_sums = np.empty((n_times, self.reference.n_dofs))
        self._state_sum = self._state_sums[:n_times]
        self._state_sum.fill(0.0)
        self._record = []
        self._next = 0

    def store(self, t: float, u: np.ndarray) -> None:
        """Add the next stored state u at time t of the current realization; u is read, not kept."""
        start = time.perf_counter()
        k = self._next
        if k >= len(self._grid) or not _same_time(self._grid[k], t):
            raise GridMismatch(f"stored time {t} is not time {k} of the accumulator grid")
        if k == 0:
            self._record.append(np.empty(len(self._grid)))
        rows = len(self._block)
        r = k % rows
        self._block[r] = u
        last = k + 1 == len(self._grid)
        if last or r + 1 == rows:
            block, stored = self._block[: r + 1], slice(k - r, k + 1)
            self._state_sum[stored] += block
            self._record[-1][stored] = self.reference.squared_error(block, self.times[stored])
        self._next = 0 if last else k + 1
        self.seconds += time.perf_counter() - start

    def add(self, traj: RbmTrajectory) -> None:
        """``store`` every state of a whole trajectory on the accumulator's grid."""
        if len(traj.times) != len(self._grid) or not all(map(_same_time, self._grid, traj.times.tolist())):
            raise GridMismatch("realization stored times differ from the accumulator grid")
        if len(traj.states) != len(traj.times):
            raise GridMismatch("the run kept no states, so it has none to add: it was made with a sink")
        for t, u in zip(traj.times, traj.states):
            self.store(t, u)

    def summary(self) -> ErrorSummary:
        if not self._record:
            raise EngineError("no realizations accumulated")
        if self._next:
            raise EngineError("a realization stopped before its last stored time")
        n = len(self._record)
        sum_sq = sum(self._record)  # row after row, in the order a running sum would add them
        error1 = float((sum_sq / n).max())
        error2 = 0.0
        for start in range(0, len(self.times), len(self._block)):
            rows = slice(start, start + len(self._block))
            mean = self._block[: len(self.times[rows])]
            np.divide(self._state_sum[rows], n, out=mean)
            error2 = max(error2, float(self.reference.squared_error(mean, self.times[rows]).max()))
        if n > 1:
            var = (sum_sq - sum(map(np.sqrt, self._record)) ** 2 / n) / (n - 1)
            variance = float(var.max())
        else:
            variance = 0.0
        return ErrorSummary(error1=error1, error2=error2, variance=variance, n_realizations=n)


def estimate_errors(
    runs,
    solution: ManufacturedSolution | None = None,
    baseline: RbmTrajectory | None = None,
) -> ErrorSummary:
    """Error metrics of one or more realizations against one reference.

    With a manufactured solution the L2 norms are continuous edgewise
    quadrature against the exact solution; with a baseline trajectory
    they are exact mass-matrix norms of the dof difference.  EngineError
    unless exactly one of the two is given.  All runs must share the same
    stored time grid, and each run and the baseline must hold one state
    per stored time on the first run's dofs, which a run made with a
    ``sink`` does not; GridMismatch, naming the run, otherwise.
    """
    runs = list(runs)
    if not runs:
        raise EngineError("need at least one realization")
    if solution is None and baseline is None:
        raise EngineError("need a manufactured solution or a baseline trajectory")
    if solution is not None and baseline is not None:
        raise EngineError("a manufactured solution or a baseline trajectory, not both")
    times, n_dofs = runs[0].times, runs[0].dofmap.n_dofs
    checked = [(f"run {k}", traj) for k, traj in enumerate(runs)]
    if solution is None:
        checked.append(("the baseline", baseline))
    for name, traj in checked:
        if traj.states.shape != (len(traj.times), n_dofs):
            raise GridMismatch(
                f"{name} holds states of shape {traj.states.shape}, expected "
                f"{(len(traj.times), n_dofs)}: one per stored time on run 0's dofs"
            )
    elements = Elements(runs[0].dofmap, GAUSS3)
    if solution is not None:
        reference = L2ErrorEvaluator(elements, solution)
    else:
        reference = _BaselineReference(elements, baseline, times)
    acc = ErrorAccumulator(times, reference)
    for traj in runs:
        acc.add(traj)
    return acc.summary()
