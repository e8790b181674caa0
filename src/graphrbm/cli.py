"""Command-line harness.

Subcommands: ``solve`` (deterministic full-graph run), ``rbm`` (single
randomized realization), ``study`` (Monte-Carlo sweep over h, CSV out),
``check`` (partition / batch / unbiasedness validators).  Without
--graph/--batches the built-in demonstration problem is used.

Exit codes: 0 success, 2 configuration or input-file error, 3 numerical
failure (any ``errors.NumericalError``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import decomposition, engine, fem, harness, manufactured
from .errors import NumericalError, SolverError
from .graph import demo_graph, load_graph
from .timestep import DEFAULT_THETA, SchemeKind

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

UNBIASED_TOL = 1e-13


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphrbm",
        description="Parabolic solver on metric graphs with randomized batch decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--graph", help="graph JSON file (default: built-in demo graph)")
        p.add_argument("--batches", help="partition/batches JSON file (default: built-in)")
        p.add_argument("--nodes-per-edge", type=int, default=100)

    def add_run(p):
        add_common(p)
        p.add_argument("--scheme", default="ie", help=f"ie | cn | theta (theta:{DEFAULT_THETA:g}) | theta:W | siem (study: comma list)")
        p.add_argument("--dt", type=float, default=0.002)
        p.add_argument("--t-final", type=float, default=1.0)
        p.add_argument("--snapshot-stride", type=int, default=1)

    p_solve = sub.add_parser("solve", help="deterministic solve on the full graph")
    add_run(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_rbm = sub.add_parser("rbm", help="single randomized realization")
    add_run(p_rbm)
    p_rbm.add_argument("--h", type=float, default=0.002)
    p_rbm.add_argument("--seed", type=int, default=0)
    p_rbm.set_defaults(func=cmd_rbm)

    p_study = sub.add_parser("study", help="Monte-Carlo sweep over h, writes CSV")
    add_run(p_study)
    p_study.add_argument("--h", required=True, help="comma-separated window lengths")
    p_study.add_argument("--realizations", type=int, default=20)
    p_study.add_argument("--seed", type=int, default=0)
    p_study.add_argument("--out", required=True, help="output CSV path")
    p_study.set_defaults(func=cmd_study)

    p_check = sub.add_parser("check", help="validate partition, batches and weights")
    add_common(p_check)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--points", type=int, default=100)
    p_check.set_defaults(func=cmd_check)
    return parser


def _load_decomposition(args):
    """The graph, partition and batch family of --graph and --batches (default: the built-in demo)."""
    graph = load_graph(args.graph) if args.graph else demo_graph()
    if args.batches:
        partition, family = decomposition.load_batches(args.batches, graph)
    else:
        partition = decomposition.demo_partition(graph)
        family = decomposition.batch_option_two()
    return graph, partition, family


def _load_problem(args):
    graph, partition, family = _load_decomposition(args)
    solution = manufactured.demo_solution(graph)
    coeffs = manufactured.derive_data(solution)
    return graph, partition, family, solution, coeffs


def _parse_schemes(text: str) -> list[SchemeKind]:
    return [SchemeKind.parse(token) for token in text.split(",")]


def _parse_scheme(text: str) -> SchemeKind:
    """The one scheme a ``solve`` or ``rbm`` run takes; a comma list is a configuration error."""
    if "," in text:
        raise harness.InvalidSpec(f"--scheme takes one scheme for a single run, got {text!r}")
    return SchemeKind.parse(text)


def cmd_solve(args) -> int:
    graph, _, _, solution, coeffs = _load_problem(args)
    scheme = _parse_scheme(args.scheme)
    mesh = fem.Mesh(args.nodes_per_edge)
    start = time.perf_counter()
    traj = engine.run_full(
        graph, mesh, coeffs, scheme, args.dt, args.t_final, snapshot_stride=args.snapshot_stride
    )
    wall = time.perf_counter() - start
    summary = engine.estimate_errors([traj], solution=solution)
    print(f"scheme={scheme.label} dt={args.dt} t_final={args.t_final}")
    print(f"sup-in-time squared L2 error vs exact: {summary.error1:.6e}")
    print(f"wall time: {wall:.3f} s")
    print(f"dofs: {traj.stats['n_dofs']}  factor nnz: {traj.stats['max_factor_nnz']}")
    return EXIT_OK


def cmd_rbm(args) -> int:
    graph, partition, family, solution, coeffs = _load_problem(args)
    scheme = _parse_scheme(args.scheme)
    mesh = fem.Mesh(args.nodes_per_edge)
    config = engine.RbmConfig(
        h=args.h,
        dt=args.dt,
        t_final=args.t_final,
        scheme=scheme,
        seed=args.seed,
        snapshot_stride=args.snapshot_stride,
    )
    start = time.perf_counter()
    traj = engine.run_rbm(graph, partition, family, mesh, coeffs, config)
    wall = time.perf_counter() - start
    summary = engine.estimate_errors([traj], solution=solution)
    counts = np.bincount(traj.schedule.omegas, minlength=family.n_batches)
    print(f"scheme={scheme.label} h={args.h} dt={args.dt} seed={args.seed}")
    print(f"sup-in-time squared L2 error vs exact: {summary.error1:.6e}")
    print(f"wall time: {wall:.3f} s")
    print(
        f"max active dofs: {traj.stats['max_active_dofs']} of {traj.stats['n_dofs']}  "
        f"max factor nnz: {traj.stats['max_factor_nnz']}"
    )
    print("windows per batch:", {j + 1: int(c) for j, c in enumerate(counts)})
    return EXIT_OK


def cmd_study(args) -> int:
    # fail on a bad --out before the sweep; the check creates and truncates nothing
    target = args.out if os.path.exists(args.out) else os.path.dirname(os.path.abspath(args.out))
    if os.path.isdir(args.out) or not os.access(target, os.W_OK):
        raise OSError(f"cannot write the study output {args.out!r}")
    graph, partition, family, solution, _ = _load_problem(args)
    try:
        h_list = [float(tok) for tok in args.h.split(",") if tok.strip()]
    except ValueError as exc:
        raise harness.InvalidSpec(f"bad --h list {args.h!r}: {exc}") from exc
    spec = harness.ExperimentSpec(
        graph=graph,
        partition=partition,
        family=family,
        schemes=_parse_schemes(args.scheme),
        dt=args.dt,
        t_final=args.t_final,
        h_list=h_list,
        realizations=args.realizations,
        seed=args.seed,
        nodes_per_edge=args.nodes_per_edge,
        snapshot_stride=args.snapshot_stride,
        solution=solution,
    )
    records = harness.run_study(spec)
    harness.emit_csv(records, args.out)
    for r in records:
        print(
            f"{r.scheme} h={r.h:g}: error1={r.error1:.4e} error2={r.error2:.4e} "
            f"var={r.variance:.4e} avg_time={r.avg_time_s:.2f}s mem_proxy={r.mem_proxy}"
        )
    print(f"wrote {len(records)} rows to {args.out}")
    return EXIT_OK


def cmd_check(args) -> int:
    # the stock coefficients do not depend on the graph, so any graph can be checked
    graph, partition, family = _load_decomposition(args)
    print(f"graph: {graph!r}")
    print(f"partition: {partition.n_parts} parts, all edges covered, pairwise disjoint")
    report = decomposition.check_assumption_A1(partition, family.batches)
    if report.holds:
        witnesses = {
            graph.vertex_name(v): j + 1 for v, j in sorted(report.witnesses.items())
        }
        print(f"interior coverage: ok, witnesses {witnesses}")
    else:
        names = [graph.vertex_name(v) for v in report.violations]
        print(f"interior coverage: FAILED, uncovered interior vertices {names}")
    points = decomposition.sample_interior_points(graph, args.points, seed=args.seed)
    worst = 0.0
    for name, psi in (
        ("1", lambda e, x: np.ones_like(x)),
        ("a", manufactured.diffusion_coefficient),
        ("b", manufactured.convection_coefficient),
        ("p", manufactured.reaction_coefficient),
    ):
        dev = decomposition.verify_unbiased(partition, family, psi, points)
        print(f"unbiasedness deviation for psi={name}: {dev:.3e}")
        worst = max(worst, dev)
    ok = report.holds and worst <= UNBIASED_TOL
    print("check:", "ok" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_CONFIG


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
