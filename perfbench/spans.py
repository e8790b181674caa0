"""Spans and counts recorded from outside the program.

The tracer swaps the public functions of graphrbm's layers for wrappers that
record a span (name, start, end, parent) and a few counts around each call.
A wrapper goes on the name the caller looks up: the package imports many
names directly (``engine.reduce_operators``, ``harness.run_rbm``, ...), so
those are patched in the importing module too, and methods are patched on
their class.  ``uninstall`` restores every original.

Spans are recorded only below a root span that the benchmark opens (set-up
or one operation), so output checks run between operations stay untraced.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

NS = 1e-9

# (name, start_ns, end_ns, parent index or -1, root index)
Span = tuple


class Tracer:
    def __init__(self):
        # one slot per span, in opening order; a slot is filled when its span closes
        self._spans: list = []
        self._stack: list[int] = []
        self._bucket: Counter = Counter()
        self.counts: dict[int, Counter] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        index = len(self._spans)
        self._spans.append(None)
        if not self._stack:
            self._bucket = self.counts[index] = Counter()
        self._stack.append(index)
        return index, time.perf_counter_ns()

    def _close(self, index: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else -1
        self._spans[index] = (name, start, end, parent, stack[0] if stack else index)

    @contextmanager
    def span(self, name: str):
        index, start = self._open()
        try:
            yield
        finally:
            self._close(index, name, start)

    @property
    def spans(self) -> list[Span]:
        """Closed spans ordered by index: (name, start_ns, end_ns, parent, root)."""
        return list(self._spans)

    def count(self, name: str, value=1) -> None:
        self._bucket[name] += value

    def peak(self, name: str, value) -> None:
        bucket = self._bucket
        if value > bucket[name]:
            bucket[name] = value

    def wrap(self, name: str, fn, after=None):
        """Time ``fn`` as span ``name``; ``after(args, kwargs, result)`` records counts."""

        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            index, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, name, start)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        from graphrbm import cli, decomposition, engine, fem, graph, harness, manufactured, timestep

        if self._patches:
            raise RuntimeError("tracer already installed")

        def after_assemble(args, kwargs, ops):
            graph_, weights = args[0], kwargs.get("weights", args[4] if len(args) > 4 else None)
            self.count("fem.assemble.edges_visited", graph_.n_edges)
            active = graph_.n_edges if weights is None else int((weights.edge_factor != 0).sum())
            self.count("fem.assemble.edges_active", active)

        run_full = self.wrap("engine.run_full", engine.run_full, _steps_after(self, "full"))
        run_rbm = self.wrap("engine.run_rbm", engine.run_rbm, _steps_after(self, "rbm"))
        batch_view = self.wrap("decomposition.batch_view", decomposition.batch_view)
        plain = [
            (cli, "main", "cli.main", None),
            (harness, "run_study", "harness.run_study", None),
            (fem, "assemble", "fem.assemble", after_assemble),
            (fem, "convection_vertex_sums", "fem.convection_sums", None),
            (engine, "reduce_operators", "fem.reduce", None),
            (fem.LoadEvaluator, "__init__", "fem.load_build", None),
            (fem.LoadEvaluator, "__call__", "fem.load_eval", None),
            (engine.RbmRuntime, "__init__", "engine.runtime_init", None),
            (engine.ErrorAccumulator, "add", "engine.error_accumulate", None),
            (engine.ErrorAccumulator, "summary", "engine.error_accumulate", None),
            (manufactured, "build_solution", "manufactured.build_solution", None),
            (manufactured.L2ErrorEvaluator, "squared_error", "manufactured.l2_error", None),
            (graph, "build_graph", "graph.build", None),
        ]
        for owner, attr, name, after in plain:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), after))
        for owner in (engine, harness):
            self._patch(owner, "run_full", run_full)
            self._patch(owner, "run_rbm", run_rbm)
        for owner in (engine, decomposition):
            self._patch(owner, "batch_view", batch_view)
        self._patch(engine.RbmRuntime, "system", self._system_wrapper(engine.RbmRuntime.system))
        self._patch(
            timestep.StepWorkspace, "factorization",
            self._factorization_wrapper(timestep.StepWorkspace.factorization, timestep.factor_nnz),
        )

    def _system_wrapper(self, system):
        tracer = self

        def wrapper(runtime, j):
            if not tracer._stack:
                return system(runtime, j)
            if j in runtime._systems:
                tracer.count("engine.system.hits")
                return system(runtime, j)
            tracer.count("engine.system.misses")
            with tracer.span("engine.system_build"):
                return system(runtime, j)

        return wrapper

    def _factorization_wrapper(self, factorization, factor_nnz):
        tracer = self

        def wrapper(workspace, key, build):
            if not tracer._stack:
                return factorization(workspace, key, build)
            before = len(workspace)
            index, start = tracer._open()
            miss = False
            try:
                lu = factorization(workspace, key, build)
                miss = len(workspace) > before
            finally:
                tracer._close(index, "timestep.factor" if miss else "timestep.factor_hit", start)
            tracer.count("timestep.factor.misses" if miss else "timestep.factor.hits")
            return _TimedFactor(tracer, lu, factor_nnz(lu))

        return wrapper


def _steps_after(tracer: Tracer, kind: str):
    def record(args, kwargs, traj):
        tracer.count("engine.steps", round(traj.config["t_final"] / traj.config["dt"]))
        if kind == "rbm":
            tracer.count("engine.windows", traj.schedule.n_windows)
        tracer.peak("engine.snapshot_bytes", traj.states.nbytes)
        tracer.peak("timestep.factor.nnz_max", traj.stats["max_factor_nnz"])

    return record


class _TimedFactor:
    """Stands in for a factorization; times each solve and counts factor nonzeros touched."""

    def __init__(self, tracer: Tracer, lu, nnz: int):
        self._tracer = tracer
        self._lu = lu
        self._nnz = nnz

    def solve(self, rhs, *args, **kwargs):
        tracer = self._tracer
        if not tracer._stack:
            return self._lu.solve(rhs, *args, **kwargs)
        index, start = tracer._open()
        try:
            return self._lu.solve(rhs, *args, **kwargs)
        finally:
            tracer._close(index, "timestep.solve", start)
            tracer.count("timestep.solve.nnz_touched", self._nnz)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


# -- analysis ------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[int]:
    """Per span: its duration minus the durations of its direct children (ns).

    Spans of one thread nest and never overlap, so the children's durations
    are exactly the part of the parent's interval they cover.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def covered(spans: list[Span], names: set[str], roots: set[int]) -> int:
    """Time (ns) below the given roots spent inside any span named in ``names``.

    A span counts only if no ancestor is also in ``names``, so nested layers
    are not counted twice.
    """
    total = 0
    for name, start, end, parent, root in spans:
        if root not in roots or name not in names:
            continue
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] not in names:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total += end - start
    return total
