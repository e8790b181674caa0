"""One benchmark process: set up a workload, then time or trace its operations.

Run by ``run.py``, never by hand:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --role setup|measure|trace --spawned-at MONOTONIC_SECONDS

Set-up time runs from ``--spawned-at`` (the parent's clock when it started
this process) to the first timed operation, where ``setup`` stops.  Every
operation's time is scaled by a reference kernel timed beside it (see
``Reference``).
``measure`` goes on to time rounds of operations until ``--seconds`` have
passed; ``trace`` alternates untraced and traced rounds for per-layer
figures.  The last stdout line is
one JSON object for ``run.py``.

Every workload times the same four user-facing paths on its own problem:

* ``study``: one ``graphrbm study`` invocation through ``cli.main``,
  writing its CSV;
* ``full``: one ``engine.run_full`` (the ``solve`` path);
* ``warm``: one ``engine.run_rbm`` realization on a shared runtime whose
  every batch system and factorization was built during set-up;
* ``cold``: a fresh ``RbmRuntime`` plus one realization (the ``rbm`` path).

Realizations run on schedules the benchmark draws from its seed; a cold
realization reuses the schedule of the warm one with the same index, so
the two must agree.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import sparse  # noqa: E402
from scipy.sparse.linalg import splu  # noqa: E402

import problems  # noqa: E402
import graphrbm  # noqa: E402
import spans  # noqa: E402
from graphrbm import cli, engine, harness, manufactured  # noqa: E402
from graphrbm.decomposition import batch_family  # noqa: E402
from graphrbm.timestep import CRANK_NICOLSON, IMPLICIT_EULER, SchemeKind  # noqa: E402

# output checks
PIN_RTOL = 1e-9  # recorded deterministic outputs; leaves room for ~1e-13 reordering
AGREE_RTOL = 1e-9  # warm and cold runtimes on one schedule
# max |u| over max |y| across the stored states of a realization; seeded
# schedules gave 0.73-1.26, a run that never advances gives 0
AMPLITUDE_BAND = (0.5, 2.0)
JENSEN_RTOL = 1e-12
STUDY_BAND = 10.0  # Monte-Carlo aggregates stay within this factor of the recorded ones
SINGLE_BATCH_TOL = 1e-12
SINGLE_BATCH_STEPS = 10

MIN_ROUNDS = 2
OPS = ("study", "full", "warm", "cold")


@dataclass(frozen=True)
class Workload:
    name: str
    make_problem: Callable[[int], problems.Problem]
    scheme: SchemeKind
    dt: float
    h: float
    t_final: float
    full_stride: int  # inner steps between stored full-solve states
    rbm_stride: int  # windows between stored realization states
    study: tuple[str, ...]  # `graphrbm study` arguments besides --out; "{seed}" is the seed
    study_rows: int
    repeats: dict  # operations per round, besides one study
    # recorded seed-independent outputs: nodal error over max |exact|, sup in
    # time, of run_full and of the realization on the covering schedule, and
    # the memory proxy of every solve and realization
    full_error: float
    warmup_error: float
    mem_proxy: int
    rbm_error_max: float  # above every realization error seen on seeded schedules
    round_s: float  # nominal round length on a 2-vCPU VM; sets the traced round count
    study_pinned: dict = field(default_factory=dict)  # recorded study rows for --seed 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="demo-study",
            make_problem=lambda seed: problems.demo_problem(seed, 100),
            scheme=IMPLICIT_EULER,
            dt=0.002,
            h=0.004,
            t_final=1.0,
            full_stride=1,
            rbm_stride=1,
            study=(
                "--scheme", "ie,cn,siem", "--dt", "0.002", "--h", "0.002,0.004,0.008",
                "--t-final", "1", "--realizations", "2", "--seed", "{seed}",
            ),
            study_rows=9,
            repeats={"full": 4, "warm": 6, "cold": 4},
            full_error=0.005828326722665315,
            warmup_error=0.07532680552793292,
            mem_proxy=6196,
            rbm_error_max=0.75,
            round_s=4.0,
            study_pinned={
                "cn:0.002": (0.10385037487844823, 0.06359728451080965),
                "cn:0.004": (0.26209070527971207, 0.155773233068119),
                "cn:0.008": (0.47804109054834887, 0.2224117270254452),
                "ie:0.002": (0.1021159811444373, 0.0634356276822473),
                "ie:0.004": (0.25507669289692836, 0.15266985627555596),
                "ie:0.008": (0.47115185823161854, 0.23029534323374173),
                "siem:0.002": (0.10240314873359158, 0.06352363860111232),
                "siem:0.004": (0.2563556465673308, 0.15497799449134397),
                "siem:0.008": (0.47214062705190873, 0.2354493568923608),
            },
        ),
        Workload(
            name="tree-warm",
            make_problem=lambda seed: problems.tree_problem(seed, 9, 4, 50),
            scheme=IMPLICIT_EULER,
            dt=1e-3,
            h=2e-3,
            t_final=0.25,
            full_stride=25,
            rbm_stride=12,
            # a fixed study seed: with few windows over many batches, whether the
            # i.i.d. draws hit the full batch swings the cost of a study by a third
            study=(
                "--nodes-per-edge", "50", "--scheme", "ie", "--dt", "0.001", "--h", "0.002",
                "--t-final", "0.05", "--realizations", "2", "--snapshot-stride", "5",
                "--seed", "0",
            ),
            study_rows=1,
            repeats={"full": 2, "warm": 4, "cold": 1},
            full_error=0.11367670860697132,
            warmup_error=0.15022558912075706,
            mem_proxy=304641,
            rbm_error_max=0.75,
            round_s=6.5,
        ),
        Workload(
            name="tree-cold",
            make_problem=lambda seed: problems.tree_problem(seed, 9, 6, 20),
            scheme=CRANK_NICOLSON,
            dt=1e-3,
            h=1e-3,
            t_final=0.1,
            full_stride=10,
            rbm_stride=10,
            study=(
                "--nodes-per-edge", "20", "--scheme", "cn", "--dt", "0.001", "--h", "0.001",
                "--t-final", "0.02", "--realizations", "2", "--snapshot-stride", "5",
                "--seed", "0",
            ),
            study_rows=1,
            repeats={"full": 1, "warm": 6, "cold": 2},
            full_error=0.0668174928483266,
            warmup_error=0.368124552684678,
            mem_proxy=151341,
            rbm_error_max=0.8,
            round_s=4.3,
        ),
    )
}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
    }


def blas_threads() -> dict:
    """Thread counts the bundled OpenBLAS builds report, or the pinned setting."""
    out = {}
    site = Path(np.__file__).resolve().parent.parent
    for package, symbol in (
        ("numpy", "scipy_openblas_get_num_threads64_"),
        ("scipy", "scipy_openblas_get_num_threads"),
    ):
        for lib in sorted(site.glob(f"{package}.libs/libscipy_openblas*.so")):
            try:
                out[package] = int(getattr(ctypes.CDLL(str(lib)), symbol)())
            except (OSError, AttributeError):
                continue
    if not out:
        out["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return out


def _seconds(ns: int) -> float:
    return ns * spans.NS


class Reference:
    """A fixed kernel timed between operations, to scale their times to one machine speed.

    On the 2-vCPU VM the benchmark was tuned on, the same code runs up to
    50% slower for 30-130 s at a time, and CPU time slows with wall time, so
    run-to-run medians spread by more than any useful bound.  The kernel does
    what the workloads spend their time on, interpreter-bound numpy calls on
    small arrays and SuperLU solves with a factor of a few MB, and slows with
    them.  Over 20 s windows of a 240 s run on tree-warm, the interquartile
    range of window medians fell from 0.12-0.23 of the median to 0.05-0.11
    once each operation's time was divided by the kernel's time beside it.
    A reported time is ``elapsed * NOMINAL_S / kernel``: seconds on a machine
    that runs the kernel in NOMINAL_S.  The kernel calls no graphrbm code, so
    a change to graphrbm moves the reported times in full.
    """

    NOMINAL_S = 0.03
    GRID = 100  # 5-point Laplacian on a GRID x GRID grid; its factor has 0.65M nonzeros
    SOLVES = 10

    def __init__(self):
        self.small = np.random.default_rng(0).random(64)
        line = sparse.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(self.GRID, self.GRID))
        eye = sparse.identity(self.GRID)
        self.lu = splu((sparse.kron(line, eye) + sparse.kron(eye, line)).tocsc())
        self.rhs = np.ones(self.GRID**2)

    def seconds(self) -> float:
        start = time.perf_counter()
        x = self.small
        for _ in range(3000):
            x = np.sqrt(x * x + 1.0) - 0.5 * x
        for _ in range(self.SOLVES):
            self.lu.solve(self.rhs)
        return time.perf_counter() - start


class Session:
    """A workload's problem, warm runtime, operations and output checks."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.mem_proxy = 0
        self.round = 0
        self.reference: Reference | None = None
        self.kernel_s: list[float] = []
        self._profile = None
        self._warm_states: dict[int, np.ndarray] = {}
        OUT_DIR.mkdir(exist_ok=True)
        self.csv_path = OUT_DIR / f"study-{workload.name}.csv"

        w = workload
        p = w.make_problem(seed)
        self.problem = p
        if p.graph.n_edges != len(manufactured.DEMO_QUARTIC):
            # the CLI's built-in problem needs the demo graph; hand the study path
            # the generated problem instead
            cli._load_problem = lambda args: p.loader_tuple()
        self.n_windows = round(w.t_final / w.h)
        self.config = engine.RbmConfig(
            h=w.h, dt=w.dt, t_final=w.t_final, scheme=w.scheme, seed=seed,
            snapshot_stride=w.rbm_stride,
        )
        self.runtime = engine.RbmRuntime(p.graph, p.partition, p.family, p.mesh, p.coeffs)
        self.warmup = engine.run_rbm(
            p.graph, p.partition, p.family, p.mesh, p.coeffs, self.config,
            schedule=problems.covering_schedule(self.n_windows, p.family.n_batches),
            runtime=self.runtime,
        )

    # -- operations --------------------------------------------------------

    def plan(self) -> list[tuple[str, int]]:
        reps = {"study": 1, **self.workload.repeats}
        return [
            (op, i) for i in range(max(reps.values())) for op in OPS if i < reps[op]
        ]

    def schedule(self, i: int, round_: int | None = None):
        return problems.balanced_schedule(
            self.seed, self.n_windows, self.problem.family.n_batches,
            self.round if round_ is None else round_, i,
        )

    def _call(self, kind: str, i: int):
        p, w = self.problem, self.workload
        if kind == "study":
            study = [arg.replace("{seed}", str(self.seed)) for arg in w.study]
            argv = ["study", *study, "--out", str(self.csv_path)]
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        if kind == "full":
            return engine.run_full(
                p.graph, p.mesh, p.coeffs, w.scheme, w.dt, w.t_final,
                snapshot_stride=w.full_stride,
            )
        schedule = self.schedule(i)
        runtime = self.runtime
        if kind == "cold":
            runtime = engine.RbmRuntime(p.graph, p.partition, p.family, p.mesh, p.coeffs)
        return engine.run_rbm(
            p.graph, p.partition, p.family, p.mesh, p.coeffs, self.config,
            schedule=schedule, runtime=runtime,
        )

    def execute(self, kind: str, i: int, tracer: spans.Tracer | None = None) -> float | None:
        """Time one operation and check its output; returns seconds, or None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                result = self._call(kind, i)
            else:
                with tracer.span(f"op.{kind}"):
                    result = self._call(kind, i)
        except Exception as exc:  # an operation that raises is a failed operation
            self._fail(kind, f"raised {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        try:
            reason = self.verify(kind, i, result)
        except Exception as exc:  # a check that cannot run means the output is unusable
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            self._fail(kind, reason)
            return None
        return elapsed

    def kernel(self) -> float:
        if self.reference is None:
            self.reference = Reference()
        self.kernel_s.append(self.reference.seconds())
        return self.kernel_s[-1]

    def run_round(self, tracer: spans.Tracer | None = None) -> float:
        """Run one round; returns the sum of its scaled operation times."""
        total = 0.0
        before = self.kernel()
        for kind, i in self.plan():
            elapsed = self.execute(kind, i, tracer)
            after = self.kernel()
            if elapsed is not None:
                scaled = elapsed * Reference.NOMINAL_S / (0.5 * (before + after))
                self.samples[kind].append(scaled)
                total += scaled
            before = after
        self._warm_states.clear()
        self.round += 1
        return total

    def _fail(self, kind: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"round {self.round} {kind}: {reason}")

    def active_dof_fraction(self, rounds: list[int]) -> float:
        """Mean active dofs over n_dofs across the windows of the warm realizations of ``rounds``."""
        n_dofs = self.runtime.dofmap.n_dofs
        active = {}
        fractions = []
        for r in rounds:
            for i in range(self.workload.repeats["warm"]):
                for j in self.schedule(i, r).omegas:
                    if j not in active:
                        active[j] = self.runtime.system(int(j)).n_active / n_dofs
                    fractions.append(active[j])
        return float(np.mean(fractions))

    # -- output checks -----------------------------------------------------

    def _exact(self, traj) -> np.ndarray:
        """The manufactured solution y = w sin(2 pi t) at the nodes and stored times."""
        if self._profile is None:
            dofmap, sol = traj.dofmap, self.problem.solution
            profile = np.zeros(dofmap.n_dofs)
            for e in range(self.problem.graph.n_edges):
                profile[dofmap.edge_dofs(e)] = sol.w(e, dofmap.edge_nodes(e))
            self._profile = profile
        return np.outer(np.sin(2.0 * np.pi * traj.times), self._profile)

    def nodal_error(self, traj, exact: np.ndarray) -> float:
        """Sup over stored times of max |u - y| at the nodes, over max |w|."""
        return float(np.abs(traj.states - exact).max() / np.abs(self._profile).max())

    def verify(self, kind: str, i: int, result) -> str | None:
        if kind == "study":
            return self.verify_study(result)
        w = self.workload
        reason = self.verify_trajectory(result, w.full_error if kind == "full" else None)
        if reason is not None or kind == "full":
            return reason
        if kind == "warm":
            self._warm_states[i] = result.states
            return None
        partner = self._warm_states.get(i)
        if partner is not None:
            gap = float(np.abs(result.states - partner).max())
            if not gap <= AGREE_RTOL * float(np.abs(partner).max()):
                return f"cold and warm runtimes disagree by {gap:.3e} on one schedule"
        return None

    def verify_trajectory(self, traj, pinned_error: float | None) -> str | None:
        """Finite states, the recorded memory proxy, and the recorded nodal error if
        given, else an error below ``rbm_error_max`` and an amplitude within the band."""
        if not np.all(np.isfinite(traj.states)):
            return "non-finite stored state"
        w = self.workload
        proxy = harness.memory_proxy(traj.stats)
        self.mem_proxy = max(self.mem_proxy, proxy)
        if proxy != w.mem_proxy:
            return f"memory proxy {proxy} differs from the recorded {w.mem_proxy}"
        exact = self._exact(traj)
        err = self.nodal_error(traj, exact)
        if pinned_error is not None:
            if not math.isclose(err, pinned_error, rel_tol=PIN_RTOL):
                return f"nodal error {err!r} differs from the recorded {pinned_error!r}"
            return None
        if not err <= w.rbm_error_max:
            return f"nodal error {err:.3e} above {w.rbm_error_max}"
        amplitude = float(np.abs(traj.states).max() / np.abs(exact).max())
        low, high = AMPLITUDE_BAND
        if not low <= amplitude <= high:
            return f"max |u| is {amplitude:.3g} of max |y|, outside [{low}, {high}]"
        return None

    def verify_study(self, rc) -> str | None:
        if rc != cli.EXIT_OK:
            return f"cli.main returned {rc}"
        records = harness.read_csv(self.csv_path)
        w = self.workload
        if len(records) != w.study_rows:
            return f"{len(records)} CSV rows, expected {w.study_rows}"
        recorded = w.study_pinned
        for r in records:
            values = (r.error1, r.error2, r.variance)
            if not all(math.isfinite(v) for v in values) or r.error1 <= 0 or r.error2 <= 0:
                return f"{r.scheme} h={r.h}: errors not finite and positive: {values}"
            if r.variance < 0:
                return f"{r.scheme} h={r.h}: negative variance {r.variance}"
            if not r.error2 <= r.error1 * (1.0 + JENSEN_RTOL):
                return f"{r.scheme} h={r.h}: error2 {r.error2} above error1 {r.error1}"
            self.mem_proxy = max(self.mem_proxy, r.mem_proxy)
            ref = recorded.get(f"{r.scheme}:{r.h!r}")
            if ref is not None:
                for name, value, expected in zip(("error1", "error2"), values, ref):
                    if not expected / STUDY_BAND <= value <= expected * STUDY_BAND:
                        return f"{r.scheme} h={r.h}: {name} {value:.3e} outside the band of {expected:.3e}"
        return None

    def verify_after(self) -> None:
        """Untimed checks once per process: the warm-up realization and the single-batch identity."""
        self.attempted += 1
        reason = self.verify_trajectory(self.warmup, self.workload.warmup_error)
        if reason is not None:
            self._fail("warmup", reason)
        self.attempted += 1
        reason = single_batch_gap(self.problem, self.workload)
        if reason is not None:
            self._fail("single-batch", reason)


def single_batch_gap(problem: problems.Problem, w: Workload) -> str | None:
    """A family with one batch holding every part must reproduce run_full.

    The identity holds step by step, so ten steps check it as well as the
    whole horizon would.
    """
    p = problem
    n = p.partition.n_parts
    single = batch_family([set(range(n))], [1.0], n)
    t_final = SINGLE_BATCH_STEPS * w.dt
    config = engine.RbmConfig(h=w.dt, dt=w.dt, t_final=t_final, scheme=w.scheme, seed=0)
    full = engine.run_full(p.graph, p.mesh, p.coeffs, w.scheme, w.dt, t_final)
    rbm = engine.run_rbm(p.graph, p.partition, single, p.mesh, p.coeffs, config)
    gap = float(np.abs(rbm.states - full.states).max())
    scale = float(np.abs(full.states).max())
    if not gap <= SINGLE_BATCH_TOL * max(scale, 1.0):
        return f"single-batch run differs from run_full by {gap:.3e}"
    return None


# -- per-layer figures -------------------------------------------------------

# inclusive span time, seconds
LAYER_TIMES = {
    "engine.run_full.s": ("engine.run_full",),
    "engine.run_rbm.s": ("engine.run_rbm",),
    "engine.runtime_init.s": ("engine.runtime_init",),
    "engine.system_build.s": ("engine.system_build",),
    "timestep.factor.s": ("timestep.factor",),
    "timestep.solve.s": ("timestep.solve",),
    "fem.assemble.s": ("fem.assemble",),
    "fem.reduce.s": ("fem.reduce",),
    "fem.load_build.s": ("fem.load_build",),
    "fem.load_eval.s": ("fem.load_eval",),
    "fem.convection_sums.s": ("fem.convection_sums",),
    "decomposition.batch_view.s": ("decomposition.batch_view",),
    "manufactured.build_solution.s": ("manufactured.build_solution",),
    "manufactured.l2_error.s": ("manufactured.l2_error",),
    "graph.build.s": ("graph.build",),
}
# span time minus child spans, seconds
LAYER_SELF = {
    "cli.main.self_s": ("cli.main",),
    "harness.run_study.self_s": ("harness.run_study",),
    "engine.step.self_s": ("engine.run_full", "engine.run_rbm"),
    "engine.error_accumulate.self_s": ("engine.error_accumulate",),
}
# number of spans
LAYER_CALLS = {
    "timestep.solve.calls": "timestep.solve",
    "fem.assemble.calls": "fem.assemble",
    "fem.load_eval.calls": "fem.load_eval",
    "decomposition.batch_view.calls": "decomposition.batch_view",
    "manufactured.l2_error.calls": "manufactured.l2_error",
}
LAYER_COUNTS = (
    "engine.windows",
    "engine.steps",
    "engine.system.misses",
    "engine.system.hits",
    "timestep.factor.misses",
    "timestep.factor.hits",
    "timestep.solve.nnz_touched",
    "fem.assemble.edges_visited",
    "fem.assemble.edges_active",
)
LAYER_PEAKS = ("engine.snapshot_bytes", "timestep.factor.nnz_max")
# layers that rebuild per-runtime state; tree-cold is chosen so they dominate a cold realization
SETUP_LAYERS = {
    "fem.assemble",
    "fem.load_build",
    "fem.reduce",
    "engine.system_build",
    "engine.runtime_init",
}


# layers called once per inner step
STEP_LAYERS = ("timestep.solve", "fem.load_eval")


# what each workload is chosen to show; tree-cold's lower hit ratio than
# tree-warm's is read across two runs
PURPOSE = {
    "demo-study": {"study: l2_error + step self over study_s": lambda v: v > 0.5},
    "tree-warm": {
        "full: solve + step self over full_solve_s": lambda v: v > 0.5,
        "warm over full: factor nnz touched per solve": lambda v: v < 1.0,
    },
    "tree-cold": {"cold: set-up layers over rbm_cold_s": lambda v: v > 0.5},
}


class SpanTable:
    """Per-root sums of span time, self time and counts."""

    def __init__(self, tracer: spans.Tracer):
        self.tracer = tracer
        self.spans = tracer.spans
        own = spans.self_times(self.spans)
        self.incl: dict[int, Counter] = defaultdict(Counter)
        self.self_: dict[int, Counter] = defaultdict(Counter)
        self.calls: dict[int, Counter] = defaultdict(Counter)
        for (name, start, end, _, root), own_ns in zip(self.spans, own):
            self.incl[root][name] += end - start
            self.self_[root][name] += own_ns
            self.calls[root][name] += 1
        for root, total in self.self_.items():
            duration = self.incl[root][self.spans[root][0]]
            if sum(total.values()) != duration:
                raise RuntimeError(f"self times of root {root} do not add up to its duration")

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[4] == i and s[0] == name]

    def time(self, roots, names) -> float:
        return _seconds(sum(self.incl[r][n] for r in roots for n in names))

    def self_time(self, roots, names) -> float:
        return _seconds(sum(self.self_[r][n] for r in roots for n in names))

    def count(self, roots, name) -> int:
        return sum(self.tracer.counts[r][name] for r in roots)

    def n_calls(self, roots, name) -> int:
        return sum(self.calls[r][name] for r in roots)

    def peak(self, roots, name) -> int:
        return max((self.tracer.counts[r][name] for r in roots), default=0)


def layer_metrics(table: SpanTable, session: Session, traced_rounds: list[int],
                  overhead: float) -> tuple[dict, dict]:
    """Per-layer figures for set-up plus one average traced round, and the purpose checks."""
    setup = table.roots("setup")
    ops = {kind: table.roots(f"op.{kind}") for kind in OPS}
    rounds = [r for roots in ops.values() for r in roots]
    n = len(traced_rounds)

    def per_round(value_of):
        return value_of(setup) + value_of(rounds) / n

    metrics = {}
    for metric, names in LAYER_TIMES.items():
        metrics[metric] = per_round(lambda roots: table.time(roots, names))
    for metric, names in LAYER_SELF.items():
        metrics[metric] = per_round(lambda roots: table.self_time(roots, names))
    for metric, name in LAYER_CALLS.items():
        metrics[metric] = per_round(lambda roots: table.n_calls(roots, name))
    for name in LAYER_COUNTS:
        metrics[name] = per_round(lambda roots: table.count(roots, name))
    for name in LAYER_PEAKS:
        metrics[name] = table.peak(setup + rounds, name)
    hits, misses = metrics["timestep.factor.hits"], metrics["timestep.factor.misses"]
    metrics["timestep.factor.hit_ratio"] = hits / (hits + misses)

    def per_step(kind, run):
        """Step-loop time per inner step: solves, load evaluation and the run's own time.

        Set-up that run_full redoes on every call (assembly, reduction, load
        build) is left out, as a warm runtime has already paid for it.
        """
        loop = table.time(ops[kind], STEP_LAYERS) + table.self_time(ops[kind], (run,))
        return loop / table.count(ops[kind], "engine.steps")

    metrics["engine.step_cost_ratio"] = (
        per_step("warm", "engine.run_rbm") / per_step("full", "engine.run_full")
    )
    metrics["engine.active_dof_fraction"] = session.active_dof_fraction(traced_rounds)
    metrics["trace_overhead"] = overhead

    def share(kind, covered_ns):
        return _seconds(covered_ns) / table.time(ops[kind], (f"op.{kind}",))

    def nnz_per_solve(kind):
        return table.count(ops[kind], "timestep.solve.nnz_touched") / table.n_calls(
            ops[kind], "timestep.solve"
        )

    study_busy = sum(
        table.incl[r]["manufactured.l2_error"]
        + table.self_[r]["engine.run_full"]
        + table.self_[r]["engine.run_rbm"]
        for r in ops["study"]
    )
    full_busy = sum(
        table.incl[r]["timestep.solve"] + table.self_[r]["engine.run_full"] for r in ops["full"]
    )
    figures = {
        "study: l2_error + step self over study_s": share("study", study_busy),
        "full: solve + step self over full_solve_s": share("full", full_busy),
        "cold: set-up layers over rbm_cold_s": share(
            "cold", spans.covered(table.spans, SETUP_LAYERS, set(ops["cold"]))
        ),
        "warm over full: factor nnz touched per solve": nnz_per_solve("warm") / nnz_per_solve(
            "full"
        ),
        "timestep.factor.hit_ratio": metrics["timestep.factor.hit_ratio"],
    }
    claims = PURPOSE.get(session.workload.name, {})
    checks = {
        name: {"value": value, "holds": claims[name](value) if name in claims else None}
        for name, value in figures.items()
    }
    return metrics, checks


# -- entry point -------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(session: Session, seconds: float) -> dict:
    """Time rounds for ``seconds``; the peak resident set is read after the first round.

    Later rounds add only allocator fragmentation, and how many of them fit
    depends on the machine's speed.
    """
    deadline = time.perf_counter() + seconds
    session.run_round()
    rss = peak_rss_mb()
    while session.round < MIN_ROUNDS or time.perf_counter() < deadline:
        session.run_round()
    session.verify_after()
    return {
        "samples": {kind: session.samples[kind] for kind in OPS},
        "rounds": session.round,
        "peak_rss_mb": rss,
    }


def traced(session: Session, tracer: spans.Tracer, seconds: float) -> dict:
    """Alternate untraced and traced rounds; the traced ones give the per-layer figures.

    The round count depends only on --seconds, so counts repeat exactly for a seed.
    """
    pairs = max(MIN_ROUNDS, int(seconds // (2 * session.workload.round_s)))
    plain, with_spans, traced_rounds = [], [], []
    for k in range(pairs):
        for use_tracer in ((False, True) if k % 2 == 0 else (True, False)):
            if not use_tracer:
                plain.append(session.run_round())
                continue
            traced_rounds.append(session.round)
            tracer.install()
            try:
                with_spans.append(session.run_round(tracer))
            finally:
                tracer.uninstall()
    session.verify_after()
    overhead = median(with_spans) / median(plain) - 1.0
    table = SpanTable(tracer)
    metrics, checks = layer_metrics(table, session, traced_rounds, overhead)
    with open(OUT_DIR / f"spans-{session.workload.name}.jsonl", "w") as fh:
        for s in table.spans:
            fh.write(json.dumps(s) + "\n")
    return {"metrics": metrics, "checks": checks, "traced_rounds": len(traced_rounds)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    if Path(graphrbm.__file__).resolve().parent != ROOT / "src" / "graphrbm":
        raise SystemExit(f"graphrbm imported from {graphrbm.__file__}, not this checkout")
    workload = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.role == "trace" else None
    if tracer is None:
        session = Session(workload, args.seed)
    else:
        tracer.install()
        try:
            with tracer.span("setup"):
                session = Session(workload, args.seed)
        finally:
            tracer.uninstall()
    # set-up time is wall time, not scaled: its largest part on the trees, the dense
    # least-squares solve of build_solution, does not slow with the reference kernel
    out = {"setup_s": time.monotonic() - args.spawned_at}
    if args.role == "setup":
        print(json.dumps(out))
        return 0
    if tracer is None:
        out.update(measure(session, args.seconds))
    else:
        out.update(traced(session, tracer, args.seconds))
    out.update(
        kernel_s=median(session.kernel_s),
        mem_proxy=session.mem_proxy,
        attempted=session.attempted,
        failed=session.failed,
        failures=session.failures,
        env=environment(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
