"""Benchmark entry point for graphrbm.

    python3 perfbench/run.py --workload demo-study|tree-warm|tree-cold \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; graphrbm is imported from its ``src``.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:
set-up time is the median over three to nine fresh worker processes run one
after another; the last of them goes on to time each path for ``--seconds``
and reports the median, its peak resident set (over set-up and the first
round) and the memory proxy.  Operation times are scaled to one machine
speed by a reference kernel timed beside them (``worker.Reference``).  With
``--trace 1`` a separate process records spans around every layer and
reports the per-layer metrics.
Every operation's output is checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Worker processes pin BLAS to one thread and fix glibc's mmap threshold.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up samples: at least SETUP_SAMPLES, more while they sum to under
# SETUP_BUDGET_S; the demo's set-up is short and varies by process
SETUP_SAMPLES = 3
SETUP_MAX_SAMPLES = 9
SETUP_BUDGET_S = 4.0
BUDGET_S = 170.0
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # glibc raises its mmap threshold after each large free, so large arrays move
    # onto the heap and the peak resident set starts to depend on allocation
    # history; a fixed threshold keeps them mapped and the peak follows live data
    "MALLOC_MMAP_THRESHOLD_": "131072",
}
# end-to-end timing metric per operation of worker.py
OP_METRICS = {
    "study": "study_s",
    "full": "full_solve_s",
    "warm": "rbm_warm_s",
    "cold": "rbm_cold_s",
}


class BenchError(RuntimeError):
    pass


def tail(samples: list[float]) -> tuple[str, float]:
    """Highest of p99/p90/p75/p50 with at least ten samples beyond it, else the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in (99, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}", ordered[min(n - 1, int(q / 100 * n))]
    return "max", ordered[-1]


def spawn(args, role: str, seconds: float, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {role} process")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--role", role,
        "--spawned-at", repr(time.monotonic()),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
            stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} process did not finish in {remaining:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{role} process exited with code {done.returncode}")
    return json.loads(lines[-1])


def report(name: str, unit: str, value, samples=None) -> None:
    if samples is None:
        print(f"{name:<16} {value:>14.6g} {unit}")
        return
    label, tail_value = tail(samples)
    print(f"{name:<16} {value:>14.6g} {unit:<5} {label} {tail_value:.6g}  n={len(samples)}")


def end_to_end(args, spec: dict, deadline: float) -> tuple[dict, dict]:
    setups = []
    while len(setups) < SETUP_SAMPLES - 1 or (
        len(setups) < SETUP_MAX_SAMPLES - 1 and sum(setups) < SETUP_BUDGET_S
    ):
        setups.append(spawn(args, "setup", 0, deadline)["setup_s"])
    out = spawn(args, "measure", args.seconds, deadline)
    samples = {"setup_s": setups + [out["setup_s"]]}
    for kind, metric in OP_METRICS.items():
        samples[metric] = out["samples"][kind]
    values = {"mem_proxy": out["mem_proxy"], "peak_rss_mb": out["peak_rss_mb"]}
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if name in samples:
            if not samples[name]:
                raise BenchError(f"no successful sample for {name}")
            values[name] = median(samples[name])
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        report(name, m["unit"], values[name], samples.get(name))
    print(f"rounds {out['rounds']}, reference kernel median {out['kernel_s'] * 1e3:.1f} ms")
    return metrics, out


def per_layer(args, spec: dict, deadline: float) -> tuple[dict, dict]:
    out = spawn(args, "trace", args.seconds, deadline)
    metrics = {}
    for m in spec["per_layer"]:
        value = out["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        report(m["name"], m["unit"], value)
    print(f"traced rounds {out['traced_rounds']}, reference kernel median {out['kernel_s'] * 1e3:.1f} ms")
    for claim, check in out["checks"].items():
        verdict = {True: "holds", False: "FAILS", None: "(not this workload's claim)"}
        print(f"purpose {claim}: {check['value']:.4g} {verdict[check['holds']]}")
    return metrics, out


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "graphrbm" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no graphrbm sources to benchmark", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # subprocess.run kills and reaps the running worker when an exception unwinds
    # through it, so a terminated benchmark leaves no worker behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + BUDGET_S
    try:
        metrics, out = (per_layer if args.trace else end_to_end)(args, spec, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(out["env"], sort_keys=True))
    for failure in out["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
