"""Study orchestration: Monte-Carlo sweeps over the window length h.

For each h the study runs R independent randomized realizations,
estimates the error metrics against the exact manufactured solution, and
emits one CSV row per (scheme, h).  Error columns are bitwise
reproducible from the experiment description and master seed;
realization r draws its schedule from the 128-bit Philox key
(master_seed << 64) | r, so distinct (master_seed, r) pairs never share a
schedule.  No realization is held whole: ``run_rbm`` hands each stored
state to the study's one ``ErrorAccumulator`` (its sink), which adds it to
one state sum of (stored times x dofs), reused and zeroed per (scheme, h)
cell, and keeps one row of squared errors per realization, evaluated in
blocks by one ``L2ErrorEvaluator`` on the runtime's own element table in
scratch of at most ``manufactured.ERROR_BLOCK`` bytes per array.  Timing
columns are wall-clock and hardware dependent; ``avg_time_s`` is the mean
time of a realization's solve, the accumulator's own time taken out.

Memory is reported two ways: a deterministic proxy (max over windows of
active dof count plus factor nonzeros, the objects that dominate the
solver's footprint) and the OS peak resident set when available, read
once per (scheme, h) cell after its last realization.  The proxy is the
authoritative number for assertions.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .decomposition import BatchFamily, SubgraphPartition
from .engine import (  # run_full is unused here, but perfbench/spans.py patches harness.run_full
    ErrorAccumulator,
    InvalidSpec,
    RbmConfig,
    RbmRuntime,
    run_full,  # noqa: F401
    run_rbm,
    stored_times,
)
from .errors import SolverError, integer
from .fem import Mesh
from .graph import MetricGraph, check_same_graph
from .manufactured import L2ErrorEvaluator, ManufacturedSolution, derive_data
from .timestep import SchemeKind


def _float_or_none(cell: str) -> float | None:
    return None if cell == "" else float(cell)


# the study CSV's columns in order, each with how its cell reads back; a float
# is written as its repr and None as an empty cell
_CSV_COLUMNS = {
    "scheme": str,
    "h": float,
    "dt": float,
    "realizations": int,
    "error1": float,
    "error2": float,
    "variance": float,
    "avg_time_s": float,
    "mem_proxy": int,
    "peak_rss_mb": _float_or_none,
    "seed": int,
}
CSV_HEADER = tuple(_CSV_COLUMNS)

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

    def validate(self) -> dict[float, np.ndarray]:
        """Check the spec before a study builds anything and return ``{h: stored times}``; InvalidSpec otherwise.

        The seed and the realization count must be integers, kept as Python ints; the solution must be on the graph.
        """
        if self.solution is None:
            raise InvalidSpec("spec needs a manufactured solution as the error reference")
        check_same_graph(self.graph, "the study", self.solution.graph, "the solution", InvalidSpec)
        self.realizations = integer(self.realizations, "realizations", InvalidSpec)
        if self.realizations < 1:
            raise InvalidSpec("need at least one realization")
        if not self.h_list:
            raise InvalidSpec("need at least one window length h")
        if not self.schemes:
            raise InvalidSpec("need at least one scheme")
        # each (scheme label, h) is one CSV row, so neither may repeat
        for name, values in (("scheme", [s.label for s in self.schemes]), ("window length h", self.h_list)):
            repeated = [v for k, v in enumerate(values) if v in values[:k]]
            if repeated:
                raise InvalidSpec(f"{name} {repeated[0]} is given more than once; each names its own CSV rows")
        self.seed = integer(self.seed, "master seed", InvalidSpec)
        if not 0 <= self.seed < 2**MASTER_SEED_BITS:
            raise InvalidSpec(f"master seed must lie in [0, 2**{MASTER_SEED_BITS}), got {self.seed}")
        # stored_times checks the stride and step counts as run_rbm does
        return {h: stored_times(self._config(self.schemes[0], h, 0)) for h in self.h_list}

    def _config(self, scheme: SchemeKind, h: float, seed: int) -> RbmConfig:
        """The config of one realization of (scheme, h) drawn with ``seed``."""
        return RbmConfig(
            h=h, dt=self.dt, t_final=self.t_final, scheme=scheme, seed=seed,
            snapshot_stride=self.snapshot_stride,
        )


@dataclass
class ExperimentRecord:
    """One CSV row: the Monte-Carlo metrics of a (scheme, h) cell, its fields the columns of CSV_HEADER."""

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


def memory_proxy(stats: dict) -> int:
    """Deterministic footprint proxy: max active dofs plus factor nonzeros."""
    return int(stats["max_active_dofs"]) + int(stats["max_factor_nnz"])


def realization_seed(master: int, r: int) -> int:
    """Philox key of realization r: the master seed in the high 64 bits, r in the low."""
    return (master << MASTER_SEED_BITS) | r


def run_study(spec: ExperimentSpec) -> list[ExperimentRecord]:
    """R randomized realizations per (scheme, h), one CSV record each, streamed into one ErrorAccumulator."""
    grids = spec.validate()
    coeffs = derive_data(spec.solution)
    mesh = Mesh(spec.nodes_per_edge)
    runtime = RbmRuntime(spec.graph, spec.partition, spec.family, mesh, coeffs)
    evaluator = L2ErrorEvaluator(runtime.elements.elements, spec.solution)
    acc = ErrorAccumulator(max(grids.values(), key=len), evaluator)
    records = []
    for scheme in spec.schemes:
        for h in spec.h_list:
            acc.restart(grids[h])
            walls = []
            proxy = 0
            for r in range(spec.realizations):
                run_config = spec._config(scheme, h, realization_seed(spec.seed, r))
                stored_s = acc.seconds
                start = time.perf_counter()
                traj = run_rbm(
                    spec.graph, spec.partition, spec.family, mesh, coeffs, run_config,
                    runtime=runtime, sink=acc.store,
                )
                walls.append(time.perf_counter() - start - (acc.seconds - stored_s))
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
                    peak_rss_mb=_peak_rss_mb(),  # ru_maxrss never falls, so once per cell
                    seed=spec.seed,
                )
            )
    records.sort(key=lambda r: (r.scheme, r.h))
    return records


def fit_slope(h_list, error_list) -> tuple[float, float]:
    """Ordinary least squares of log(error) against log(h).

    Returns (slope, intercept); raises DegenerateFit for fewer than three
    points, nonpositive or non-finite data, or a degenerate abscissa.
    """
    h = np.asarray(h_list, dtype=float)
    err = np.asarray(error_list, dtype=float)
    if h.size < 3 or h.size != err.size:
        raise DegenerateFit("need at least three (h, error) pairs")
    if not all(np.all(np.isfinite(v) & (v > 0.0)) for v in (h, err)):
        raise DegenerateFit("log-log fit needs finite, strictly positive data")
    x = np.log(h)
    y = np.log(err)
    x_centered = x - x.mean()
    denom = (x_centered**2).sum()
    if denom <= 0.0:
        raise DegenerateFit("all h values coincide")
    slope = float((x_centered * y).sum() / denom)
    intercept = float(y.mean() - slope * x.mean())
    return slope, intercept


def _cell(value) -> str:
    if value is None:
        return ""
    # float() so that a numpy float prints as a plain number
    return repr(float(value)) if isinstance(value, float) else str(value)


def emit_csv(records, path) -> None:
    """Write records as CSV with a fixed header, sorted by (scheme, h)."""
    records = sorted(records, key=lambda r: (r.scheme, r.h))
    if not records:
        raise SolverError("no records to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([_cell(getattr(r, name)) for name in CSV_HEADER])


def read_csv(path) -> list[ExperimentRecord]:
    """Parse a study CSV back into records (inverse of emit_csv); SolverError naming the line of a bad row."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != CSV_HEADER:
            raise SolverError(f"unexpected CSV header {header}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(CSV_HEADER):
                raise SolverError(f"{where}: {len(row)} cells, expected {len(CSV_HEADER)}")
            fields = {}
            for (name, read), cell in zip(_CSV_COLUMNS.items(), row):
                try:
                    fields[name] = read(cell)
                except ValueError:
                    raise SolverError(f"{where}: {name} cell {cell!r} is not valid") from None
            out.append(ExperimentRecord(**fields))
    return out
