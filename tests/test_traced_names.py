"""The names the benchmark's tracer patches must exist, and uninstalling must restore them.

``perfbench/spans.py`` swaps the public functions and methods of graphrbm's
layers for timing wrappers by name.  A rename in the package makes
``install`` fail here, in the tier-1 suite, rather than only in a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

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
