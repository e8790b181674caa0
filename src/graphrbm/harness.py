"""Study orchestration: Monte-Carlo sweeps over the window length h.

For each h the study runs R independent randomized realizations,
estimates the error metrics against the exact manufactured solution, and
emits one CSV row per (scheme, h).  Error columns are bitwise
reproducible from the experiment description and master seed;
realization r draws its schedule from the 128-bit Philox key
(master_seed << 64) | r, so distinct (master_seed, r) pairs never share a
schedule.  Each trajectory's errors come from one call to a single
``L2ErrorEvaluator`` built per study.  Timing columns are wall-clock and
hardware dependent.

Memory is reported two ways: a deterministic proxy (max over windows of
active dof count plus factor nonzeros, the objects that dominate the
solver's footprint) and the OS peak resident set when available.  The
proxy is the authoritative number for assertions.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .decomposition import BatchFamily, SubgraphPartition
from .engine import (  # run_full is unused here, but perfbench/spans.py patches harness.run_full
    ErrorAccumulator,
    InvalidSpec,
    RbmConfig,
    RbmRuntime,
    _check_snapshot_stride,
    _count_steps,
    run_full,  # noqa: F401
    run_rbm,
)
from .errors import SolverError
from .fem import Mesh
from .graph import MetricGraph
from .manufactured import L2ErrorEvaluator, ManufacturedSolution, derive_data
from .timestep import SchemeKind

CSV_HEADER = (
    "scheme",
    "h",
    "dt",
    "realizations",
    "error1",
    "error2",
    "variance",
    "avg_time_s",
    "mem_proxy",
    "peak_rss_mb",
    "seed",
)

# the master seed fills the high half of each realization's 128-bit key
MASTER_SEED_BITS = 64


class DegenerateFit(SolverError):
    pass


@dataclass
class ExperimentSpec:
    """Everything one study needs; validated up front.

    ``solution`` is the manufactured solution the errors are measured against.
    """

    graph: MetricGraph
    partition: SubgraphPartition
    family: BatchFamily
    schemes: list[SchemeKind]
    dt: float
    t_final: float
    h_list: list[float]
    realizations: int
    seed: int
    solution: ManufacturedSolution
    nodes_per_edge: int = 100
    snapshot_stride: int = 1

    def validate(self) -> None:
        if self.solution is None:
            raise InvalidSpec("spec needs a manufactured solution as the error reference")
        if self.realizations < 1:
            raise InvalidSpec("need at least one realization")
        if not self.h_list:
            raise InvalidSpec("need at least one window length h")
        if not self.schemes:
            raise InvalidSpec("need at least one scheme")
        if not 0 <= self.seed < 2**MASTER_SEED_BITS:
            raise InvalidSpec(f"master seed must lie in [0, 2**{MASTER_SEED_BITS}), got {self.seed}")
        _check_snapshot_stride(self.snapshot_stride)
        # the step counts run_rbm takes, so a study fails before it builds anything
        for h in self.h_list:
            _count_steps(h, self.dt, "window length h", "dt")
            _count_steps(self.t_final, h, "t_final", "window length h")


@dataclass
class ExperimentRecord:
    """One CSV row: the Monte-Carlo metrics of a (scheme, h) cell.

    ``detail`` carries non-serialized extras (per-realization seeds and
    the dof count) and is excluded from equality so records round-trip
    losslessly through CSV.
    """

    scheme: str
    h: float
    dt: float
    realizations: int
    error1: float
    error2: float
    variance: float
    avg_time_s: float
    mem_proxy: int
    peak_rss_mb: float | None
    seed: int
    detail: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class BenchmarkResult:
    wall_seconds: float
    peak_rss_mb: float | None
    result: object


def _peak_rss_mb() -> float | None:
    try:
        import resource
    except ImportError:
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS
    import sys

    if sys.platform == "darwin":
        return usage / (1024.0 * 1024.0)
    return usage / 1024.0


def benchmark(fn) -> BenchmarkResult:
    """Wall-clock a closure and read the peak resident set after it."""
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return BenchmarkResult(wall_seconds=wall, peak_rss_mb=_peak_rss_mb(), result=result)


def memory_proxy(stats: dict) -> int:
    """Deterministic footprint proxy: max active dofs plus factor nonzeros."""
    return int(stats.get("max_active_dofs", 0)) + int(stats.get("max_factor_nnz", 0))


def realization_seed(master: int, r: int) -> int:
    """Philox key of realization r: the master seed in the high 64 bits, r in the low."""
    return (master << MASTER_SEED_BITS) | r


def run_study(spec: ExperimentSpec) -> list[ExperimentRecord]:
    """R randomized realizations per (scheme, h), one CSV record each."""
    spec.validate()
    coeffs = derive_data(spec.solution)
    mesh = Mesh(spec.nodes_per_edge)
    runtime = RbmRuntime(spec.graph, spec.partition, spec.family, mesh, coeffs)
    evaluator = L2ErrorEvaluator(spec.graph, mesh, runtime.dofmap, spec.solution)
    records = []
    for scheme in spec.schemes:
        for h in spec.h_list:
            seeds = [realization_seed(spec.seed, r) for r in range(spec.realizations)]
            acc = None
            walls = []
            rss = []
            proxy = 0
            for run_seed in seeds:
                config = RbmConfig(
                    h=h,
                    dt=spec.dt,
                    t_final=spec.t_final,
                    scheme=scheme,
                    seed=run_seed,
                    snapshot_stride=spec.snapshot_stride,
                )
                bench = benchmark(
                    lambda config=config: run_rbm(
                        spec.graph, spec.partition, spec.family, mesh, coeffs, config,
                        runtime=runtime,
                    )
                )
                traj = bench.result
                if acc is None:
                    acc = ErrorAccumulator(traj.times, evaluator)
                acc.add(traj)
                walls.append(bench.wall_seconds)
                if bench.peak_rss_mb is not None:
                    rss.append(bench.peak_rss_mb)
                proxy = max(proxy, memory_proxy(traj.stats))
            summary = acc.summary()
            records.append(
                ExperimentRecord(
                    scheme=scheme.label,
                    h=h,
                    dt=spec.dt,
                    realizations=spec.realizations,
                    error1=summary.error1,
                    error2=summary.error2,
                    variance=summary.variance,
                    avg_time_s=float(np.mean(walls)),
                    mem_proxy=proxy,
                    peak_rss_mb=max(rss) if rss else None,
                    seed=spec.seed,
                    detail={"seeds": seeds, "n_dofs": runtime.dofmap.n_dofs},
                )
            )
    records.sort(key=lambda r: (r.scheme, r.h))
    return records


def fit_slope(h_list, error_list) -> tuple[float, float]:
    """Ordinary least squares of log(error) against log(h).

    Returns (slope, intercept); raises DegenerateFit for fewer than three
    points, nonpositive data, or a degenerate abscissa.
    """
    h = np.asarray(h_list, dtype=float)
    err = np.asarray(error_list, dtype=float)
    if h.size < 3 or h.size != err.size:
        raise DegenerateFit("need at least three (h, error) pairs")
    if np.any(h <= 0.0) or np.any(err <= 0.0):
        raise DegenerateFit("log-log fit needs strictly positive data")
    x = np.log(h)
    y = np.log(err)
    x_centered = x - x.mean()
    denom = (x_centered**2).sum()
    if denom <= 0.0:
        raise DegenerateFit("all h values coincide")
    slope = float((x_centered * y).sum() / denom)
    intercept = float(y.mean() - slope * x.mean())
    return slope, intercept


def emit_csv(records, path) -> None:
    """Write records as CSV with a fixed header, sorted by (scheme, h)."""
    records = sorted(records, key=lambda r: (r.scheme, r.h))
    if not records:
        raise SolverError("no records to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.scheme,
                    repr(r.h),
                    repr(r.dt),
                    r.realizations,
                    repr(r.error1),
                    repr(r.error2),
                    repr(r.variance),
                    repr(r.avg_time_s),
                    r.mem_proxy,
                    "" if r.peak_rss_mb is None else repr(r.peak_rss_mb),
                    r.seed,
                ]
            )


def read_csv(path) -> list[ExperimentRecord]:
    """Parse a study CSV back into records (inverse of emit_csv)."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise SolverError(f"unexpected CSV header {header}")
        for row in reader:
            out.append(
                ExperimentRecord(
                    scheme=row[0],
                    h=float(row[1]),
                    dt=float(row[2]),
                    realizations=int(row[3]),
                    error1=float(row[4]),
                    error2=float(row[5]),
                    variance=float(row[6]),
                    avg_time_s=float(row[7]),
                    mem_proxy=int(row[8]),
                    peak_rss_mb=None if row[9] == "" else float(row[9]),
                    seed=int(row[10]),
                )
            )
    return out
