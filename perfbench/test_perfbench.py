"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spans
import worker
from graphrbm import engine

HERE = Path(__file__).resolve().parent

REPEATED_COUNTS = (
    "engine.windows",
    "engine.steps",
    "engine.system.misses",
    "engine.system.hits",
    "timestep.factor.misses",
    "timestep.factor.hits",
    "timestep.solve.calls",
    "timestep.solve.nnz_touched",
    "fem.assemble.edges_visited",
    "fem.assemble.edges_active",
    "fem.load_eval.calls",
    "manufactured.l2_error.calls",
)


def test_self_times_on_a_synthetic_span_tree():
    #   root [0, 100]
    #     a [10, 60]
    #       b [20, 30]
    #       c [35, 45]
    #     d [70, 90]
    tree = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 60, 0, 0),
        ("b", 20, 30, 1, 0),
        ("c", 35, 45, 1, 0),
        ("d", 70, 90, 0, 0),
    ]
    assert spans.self_times(tree) == [30, 30, 10, 10, 20]
    assert sum(spans.self_times(tree)) == 100
    assert spans.covered(tree, {"a", "b"}, {0}) == 50
    assert spans.covered(tree, {"b", "c", "d"}, {0}) == 40
    assert spans.covered(tree, {"b"}, {1}) == 0


def test_tracer_spans_nest_and_self_times_cover_the_root():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    assert leaf(1) == 2 and tracer.spans == []  # nothing recorded outside a root
    with tracer.span("root"):
        with tracer.span("mid"):
            leaf(1)
            leaf(2)
        leaf(3)
    recorded = tracer.spans
    assert [s[0] for s in recorded] == ["root", "mid", "leaf", "leaf", "leaf"]
    assert [s[3] for s in recorded] == [-1, 0, 1, 1, 0]
    assert {s[4] for s in recorded} == {0}
    root = recorded[0]
    assert sum(spans.self_times(recorded)) == root[2] - root[1]


def _trace_counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--role", "trace", "--spawned-at", "0",
        ],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        stdout=subprocess.PIPE, text=True, check=True, timeout=300,
    )
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["failed"] == 0, out["failures"]
    counts = {name: out["metrics"][name] for name in REPEATED_COUNTS}
    counts["mem_proxy"] = out["mem_proxy"]
    return counts


@pytest.mark.parametrize("workload", ["demo-study", "tree-cold"])
def test_counts_repeat_exactly_for_one_seed(workload):
    first = _trace_counts(workload, 5)
    assert all(value > 0 for value in first.values()), first
    assert _trace_counts(workload, 5) == first


@pytest.fixture(scope="module")
def session():
    return worker.Session(worker.WORKLOADS["demo-study"], 3)


def _corrupting(monkeypatch, name, corrupt):
    original = getattr(engine, name)

    def run(*args, **kwargs):
        traj = original(*args, **kwargs)
        corrupt(traj.states)
        return traj

    monkeypatch.setattr(engine, name, run)


def test_clean_operations_pass_their_checks(session):
    before = session.failed
    for kind, i in session.plan():
        assert session.execute(kind, i) is not None, session.failures
    assert session.failed == before


def test_nan_in_a_stored_state_is_a_failed_operation(session, monkeypatch):
    before = session.failed
    _corrupting(monkeypatch, "run_full", lambda states: states.__setitem__((1, 0), np.nan))
    assert session.execute("full", 0) is None
    assert session.failed == before + 1
    assert "non-finite" in session.failures[-1]


@pytest.fixture(scope="module")
def tree_session():
    return worker.Session(worker.WORKLOADS["tree-cold"], 3)


@pytest.mark.parametrize("name", ["demo", "tree"])
@pytest.mark.parametrize("kind", ["full", "warm"])
def test_a_run_that_never_advances_is_a_failed_operation(name, kind, request, monkeypatch):
    # y0 = 0, so all-zero states stay within max |sin(2 pi t)| <= 1 of the exact solution,
    # below the realization error bound on tree-cold
    session = request.getfixturevalue("session" if name == "demo" else "tree_session")
    before = session.failed
    run = "run_full" if kind == "full" else "run_rbm"
    _corrupting(monkeypatch, run, lambda states: states.__setitem__(slice(None), 0.0))
    assert session.execute(kind, 0) is None
    assert session.failed == before + 1
    assert "nodal error" in session.failures[-1] or "max |u|" in session.failures[-1]


def test_cold_run_off_by_a_little_is_a_failed_operation(session, monkeypatch):
    before = session.failed
    assert session.execute("warm", 0) is not None
    _corrupting(monkeypatch, "run_rbm", lambda states: states.__iadd__(1e-6))
    assert session.execute("cold", 0) is None
    assert session.failed == before + 1
    assert "disagree" in session.failures[-1]


def test_a_study_that_fails_is_a_failed_operation(session, monkeypatch):
    before = session.failed
    monkeypatch.setattr(worker.cli, "main", lambda argv: worker.cli.EXIT_NUMERICAL)
    assert session.execute("study", 0) is None
    assert session.failed == before + 1
