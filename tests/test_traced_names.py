"""The names the benchmark's tracer patches must exist, and uninstalling must restore them.

``perfbench/spans.py`` swaps the public functions and methods of graphrbm's
layers for timing wrappers by name.  A rename in the package makes
``install`` fail here, in the tier-1 suite, rather than only in a traced
benchmark run.  A traced run also checks the tracer's system and solve
counts against what the run does.
"""

import importlib.util
from pathlib import Path

import graphrbm as g
from graphrbm import engine

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patched_name():
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        wrapped = [(owner, attr) for owner, attr, original in patched if getattr(owner, attr) is not original]
        assert len(wrapped) == len(patched)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


def test_traced_cold_run_looks_each_system_up_once(demo, partition, option2, problem):
    """A traced run on a fresh runtime looks each batch's system up once and solves once per step.

    Its states are bitwise those of the same run untraced.
    """
    mesh = g.Mesh(9)
    config = g.RbmConfig(h=0.04, dt=0.01, t_final=0.4, scheme=g.CRANK_NICOLSON, seed=3)
    untraced = engine.run_rbm(demo, partition, option2, mesh, problem, config)
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        with tracer.span("root"):
            traced = engine.run_rbm(demo, partition, option2, mesh, problem, config)
    finally:
        tracer.uninstall()
    (counts,) = tracer.counts.values()
    batches = len(set(traced.schedule.omegas.tolist()))
    assert counts["engine.system.misses"] == batches
    assert counts["engine.system.hits"] + counts["engine.system.misses"] == batches
    assert [name for name, *_ in tracer.spans].count("timestep.solve") == 40
    assert traced.states.tobytes() == untraced.states.tobytes()
