import dataclasses
import json

import numpy as np
import pytest

import graphrbm as g
from graphrbm import cli, engine, harness, read_csv
from graphrbm.cli import main
from graphrbm.errors import NumericalError
from graphrbm.fem import NonellipticCoefficient
from graphrbm.manufactured import InconsistentConstraints
from graphrbm.timestep import SingularSystem


def test_check_demo_problem(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "check: ok" in out
    assert "unbiasedness deviation" in out


def test_check_reports_uncovered(tmp_path, capsys):
    batches = {
        "parts": [["e1", "e2", "e3"], ["e4", "e5"], ["e6", "e7"], ["e8", "e9", "e10"]],
        "batches": [[1], [2], [3], [4]],
        "probs": [0.25, 0.25, 0.25, 0.25],
    }
    path = tmp_path / "batches.json"
    path.write_text(json.dumps(batches))
    code = main(["check", "--batches", str(path)])
    assert code == 2
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "v4" in out and "v7" in out


def test_solve_small(capsys):
    assert main(["solve", "--nodes-per-edge", "5", "--dt", "0.05", "--t-final", "0.2"]) == 0
    assert "squared L2 error" in capsys.readouterr().out


def test_rbm_small(capsys):
    code = main(
        ["rbm", "--nodes-per-edge", "5", "--dt", "0.05", "--h", "0.1",
         "--t-final", "0.2", "--seed", "9"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "windows per batch" in out


def test_study_writes_csv(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code = main(
        ["study", "--nodes-per-edge", "5", "--dt", "0.05", "--h", "0.05,0.1",
         "--t-final", "0.2", "--realizations", "2", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    records = read_csv(out)
    assert [(r.scheme, r.h) for r in records] == [("ie", 0.05), ("ie", 0.1)]


def test_study_rejects_misaligned_h(tmp_path):
    out = tmp_path / "study.csv"
    code = main(
        ["study", "--nodes-per-edge", "5", "--dt", "0.04", "--h", "0.05",
         "--t-final", "0.2", "--realizations", "1", "--seed", "3", "--out", str(out)]
    )
    assert code == 2
    assert not out.exists()


def test_study_rejects_a_bad_h_list(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code = main(
        ["study", "--nodes-per-edge", "5", "--dt", "0.002", "--h", "0.004,x",
         "--t-final", "0.2", "--realizations", "1", "--out", str(out)]
    )
    assert code == 2 and "bad --h list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_study_checks_out_before_any_realization(tmp_path, capsys, monkeypatch, where):
    calls = []
    run_rbm = harness.run_rbm

    def counting(*args, **kwargs):
        calls.append(1)
        return run_rbm(*args, **kwargs)

    monkeypatch.setattr(harness, "run_rbm", counting)
    out = tmp_path / "missing" / "study.csv" if where == "missing-directory" else tmp_path
    code = main(
        ["study", "--nodes-per-edge", "5", "--dt", "0.05", "--h", "0.05",
         "--t-final", "0.2", "--realizations", "1", "--out", str(out)]
    )
    assert code == 2 and calls == []
    assert capsys.readouterr().err == f"error: cannot write the study output {str(out)!r}\n"
    assert not (tmp_path / "missing").exists()


def test_missing_graph_file_is_config_error(capsys):
    assert main(["solve", "--graph", "/nonexistent/graph.json"]) == 2


def test_nodes_per_edge_past_int64_is_config_error(capsys):
    # the dof count is checked in Python ints before NumPy could overflow on it
    assert main(["solve", "--nodes-per-edge", "100000000000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "do not fit the int32 indices" in err
    assert "Traceback" not in err


def test_unknown_scheme_is_config_error():
    # a token that only starts with theta, or theta: without a weight, is no scheme
    for scheme in ("rk4", "thetafoo", "theta:"):
        assert main(["solve", "--scheme", scheme, "--nodes-per-edge", "5"]) == 2, scheme


def test_theta_not_a_number_is_config_error(capsys):
    argv = ["rbm", "--scheme", "theta:abc", "--nodes-per-edge", "5", "--dt", "0.05",
            "--h", "0.1", "--t-final", "0.2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "theta must be a number" in err
    assert "Traceback" not in err


def test_study_rejects_misaligned_t_final_before_building(tmp_path, capsys, monkeypatch):
    def no_runtime(*args, **kwargs):
        raise AssertionError("the study built a runtime before validating its spec")

    monkeypatch.setattr(harness, "RbmRuntime", no_runtime)
    out = tmp_path / "study.csv"
    code = main(
        ["study", "--nodes-per-edge", "5", "--dt", "0.001", "--h", "0.003",
         "--t-final", "0.01", "--realizations", "1", "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: t_final: 0.01 is not a positive integer multiple of 0.003\n"
    assert not out.exists()


@pytest.mark.parametrize("error", [SingularSystem, NonellipticCoefficient, InconsistentConstraints])
def test_numerical_failure_is_exit_three(capsys, monkeypatch, error):
    assert issubclass(error, NumericalError)

    def fail(*args, **kwargs):
        raise error("broken")

    monkeypatch.setattr(engine, "run_full", fail)
    assert main(["solve", "--nodes-per-edge", "5", "--dt", "0.05", "--t-final", "0.2"]) == 3
    assert capsys.readouterr().err == "numerical failure: broken\n"


def test_blowup_is_exit_three(capsys, monkeypatch):
    graph = g.demo_graph()
    solution = g.demo_solution(graph)
    reactive = g.derive_data(solution, p=lambda e, x: np.full_like(np.asarray(x, dtype=float), 400.0))
    problem = (graph, g.demo_partition(graph), g.batch_option_two(), solution, reactive)
    monkeypatch.setattr(cli, "_load_problem", lambda args: problem)
    for command in ("solve", "rbm"):
        argv = [command, "--scheme", "siem", "--nodes-per-edge", "20", "--dt", "0.01", "--t-final", "1"]
        if command == "rbm":
            argv += ["--h", "0.01", "--seed", "0"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: max |u| = "), err


def test_nonfinite_initial_state_is_exit_two(capsys, monkeypatch):
    graph = g.demo_graph()
    solution = g.demo_solution(graph)
    nan_y0 = dataclasses.replace(
        g.derive_data(solution), y0=lambda e, x: np.full_like(np.asarray(x, dtype=float), np.nan)
    )
    problem = (graph, g.demo_partition(graph), g.batch_option_two(), solution, nan_y0)
    monkeypatch.setattr(cli, "_load_problem", lambda args: problem)
    for command in ("solve", "rbm"):
        argv = [command, "--nodes-per-edge", "20", "--dt", "0.01", "--t-final", "0.04"]
        if command == "rbm":
            argv += ["--h", "0.02", "--seed", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: the initial state y0 is not finite on edge 0\n"


def test_bad_subcommand_exit_code():
    assert main(["frobnicate"]) == 2


def test_theta_scheme_default_weight(capsys):
    # a bare theta takes 0.75, the weight SchemeKind.parse gives it
    code = main(["solve", "--scheme", "theta", "--nodes-per-edge", "5", "--dt", "0.05", "--t-final", "0.2"])
    assert code == 0
    assert "theta:0.75" in capsys.readouterr().out


def test_theta_weight_has_no_flag_of_its_own(capsys):
    # theta:W sets the weight; there is no second way to set it
    code = main(["solve", "--scheme", "theta", "--theta", "0.6", "--nodes-per-edge", "5", "--t-final", "0.2"])
    assert code == 2
    assert "--theta" in capsys.readouterr().err


SMALL_STUDY = ["study", "--nodes-per-edge", "10", "--scheme", "ie,cn", "--dt", "0.01",
               "--h", "0.01,0.02", "--t-final", "0.2", "--realizations", "2"]

# (scheme, h) -> (error1, error2, variance) of SMALL_STUDY with --seed 0, recorded
# when realization r used the seed master ^ r and errors came from per-edge
# quadrature; the 128-bit key (master << 64) | r keeps seed 0's schedules
SEED0_COLUMNS = {
    ("cn", 0.01): (0.28932351568019243, 0.1542086397894573, 0.036806114184843974),
    ("cn", 0.02): (0.9268525711973958, 0.5089428031419505, 0.1481390696527798),
    ("ie", 0.01): (0.288472241613943, 0.17373760367506688, 0.03659968261601004),
    ("ie", 0.02): (0.9232965905376787, 0.5279125806512354, 0.1583718010723667),
}

# the same for SMALL_STUDY with --scheme siem,theta (theta 0.75) and --seed 0,
# recorded while siem and the theta family still had separate step loops
SIEM_THETA_COLUMNS = {
    ("siem", 0.01): (0.29108996621429145, 0.16191736969818832, 0.03612596663648299),
    ("siem", 0.02): (0.9276293807671694, 0.5212176169111353, 0.15057444876432236),
    ("theta:0.75", 0.01): (0.2886004449792951, 0.1588058285460852, 0.03677756895116602),
    ("theta:0.75", 0.02): (0.9241731498299225, 0.5166265809811044, 0.15158869796250052),
}


def _study_columns(tmp_path, seed, *extra):
    out = tmp_path / f"study-{seed}.csv"
    assert main([*SMALL_STUDY, *extra, "--seed", str(seed), "--out", str(out)]) == 0
    return {(r.scheme, r.h): (r.error1, r.error2, r.variance) for r in read_csv(out)}


def _assert_columns(got, recorded):
    assert got.keys() == recorded.keys()
    for key, expected in recorded.items():
        assert np.allclose(got[key], expected, rtol=1e-12, atol=0.0), key


def test_study_seed_zero_columns_recorded(tmp_path, capsys):
    _assert_columns(_study_columns(tmp_path, 0), SEED0_COLUMNS)


def test_study_siem_theta_columns_recorded(tmp_path, capsys):
    # several batches per study, so the exterior values each window starts from are pinned too
    _assert_columns(_study_columns(tmp_path, 0, "--scheme", "siem,theta"), SIEM_THETA_COLUMNS)


def test_study_master_seeds_draw_distinct_schedules(tmp_path, capsys):
    # with seeds master ^ r, masters 0 and 1 drew the same two schedules
    zero, one = _study_columns(tmp_path, 0), _study_columns(tmp_path, 1)
    for key in zero:
        assert zero[key] != one[key], key


BAD_RUNS = {
    "solve": ["solve", "--nodes-per-edge", "5", "--dt", "0.05", "--t-final", "0.2"],
    "rbm": ["rbm", "--nodes-per-edge", "5", "--dt", "0.05", "--h", "0.05", "--t-final", "0.2"],
    "study": ["study", "--nodes-per-edge", "5", "--dt", "0.05", "--h", "0.05",
              "--t-final", "0.2", "--realizations", "1"],
}


def _assert_config_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("stride", ["0", "-1"])
@pytest.mark.parametrize("command", sorted(BAD_RUNS))
def test_snapshot_stride_below_one_is_config_error(tmp_path, capsys, command, stride):
    argv = [*BAD_RUNS[command], "--snapshot-stride", stride]
    if command == "study":
        argv += ["--out", str(tmp_path / "study.csv")]
    _assert_config_error(argv, capsys)
    assert not (tmp_path / "study.csv").exists()


@pytest.mark.parametrize(
    "command, seed", [("rbm", "-1"), ("rbm", str(2**128)), ("study", "-1"), ("study", str(2**64))]
)
def test_seed_out_of_range_is_config_error(tmp_path, capsys, command, seed):
    argv = [*BAD_RUNS[command], "--seed", seed]
    if command == "study":
        argv += ["--out", str(tmp_path / "study.csv")]
    _assert_config_error(argv, capsys)


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("solve", "--dt", "0"),
        ("rbm", "--dt", "0"),
        ("study", "--dt", "0"),
        ("solve", "--dt", "nan"),
        ("rbm", "--h", "nan"),
        ("study", "--t-final", "nan"),
        ("solve", "--t-final", "-0.2"),
        ("rbm", "--h", "inf"),
        ("study", "--h", "0"),
    ],
)
def test_time_length_not_positive_finite_is_config_error(tmp_path, capsys, command, flag, value):
    argv = [*BAD_RUNS[command], flag, value]
    if command == "study":
        argv += ["--out", str(tmp_path / "study.csv")]
    _assert_config_error(argv, capsys)
    assert not (tmp_path / "study.csv").exists()


@pytest.mark.parametrize("command", ["solve", "rbm"])
def test_single_run_rejects_a_scheme_list(capsys, command):
    # a run takes one scheme; only a study sweeps a list
    _assert_config_error([*BAD_RUNS[command], "--scheme", "ie,cn"], capsys)


@pytest.mark.parametrize(
    "flag, value, repeated",
    [
        ("--h", "0.05,0.1,0.05", "window length h 0.05"),
        ("--scheme", "ie,cn,ie", "scheme ie"),
        # two weights that print alike would share a CSV key
        ("--scheme", "theta:0.6,theta:0.6000001", "scheme theta:0.6"),
    ],
)
def test_study_rejects_a_repeated_cell_before_building(tmp_path, capsys, monkeypatch, flag, value, repeated):
    def no_runtime(*args, **kwargs):
        raise AssertionError("the study built a runtime before validating its spec")

    monkeypatch.setattr(harness, "RbmRuntime", no_runtime)
    out = tmp_path / "study.csv"
    assert main([*BAD_RUNS["study"], flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {repeated} is given more than once; each names its own CSV rows\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value", [("--points", "0"), ("--points", "-3"), ("--seed", "-1"), ("--seed", str(2**128))]
)
def test_check_sampling_input_is_config_error(capsys, flag, value):
    _assert_config_error(["check", flag, value], capsys)


@pytest.mark.parametrize("command", ["check", "solve"])
def test_infinite_edge_length_is_config_error(tmp_path, capsys, demo, command):
    edges = [
        f'{{"tail": "{demo.vertex_name(e.tail)}", "head": "{demo.vertex_name(e.head)}", '
        f'"length": {"1e400" if k == 4 else "1.0"}}}'
        for k, e in enumerate(demo.edges)
    ]
    boundary = ", ".join(f'"{demo.vertex_name(v)}"' for v in sorted(demo.boundary_vertices))
    path = tmp_path / "graph.json"
    path.write_text(f'{{"edges": [{", ".join(edges)}], "boundary": [{boundary}]}}')
    _assert_config_error([command, "--graph", str(path), "--nodes-per-edge", "3"], capsys)


PATH_GRAPH = {
    "edges": [{"tail": "a", "head": "b"}, {"tail": "b", "head": "c"}, {"tail": "c", "head": "d"}],
    "boundary": ["a", "d"],
}
PATH_BATCHES = {"parts": [["e1"], ["e2"], ["e3"]], "batches": [[1, 2], [2, 3]], "probs": [0.5, 0.5]}


def test_check_runs_on_any_graph(tmp_path, capsys):
    graph, batches = tmp_path / "graph.json", tmp_path / "batches.json"
    graph.write_text(json.dumps(PATH_GRAPH))
    batches.write_text(json.dumps(PATH_BATCHES))
    assert main(["check", "--graph", str(graph), "--batches", str(batches)]) == 0
    assert "check: ok" in capsys.readouterr().out
    # the manufactured solution still needs the demo graph
    _assert_config_error(["solve", "--graph", str(graph), "--nodes-per-edge", "3"], capsys)


NOT_UTF8 = b'{"edges": [], "boundary": ["\xff"]}'


MALFORMED = {
    "graph-edges-not-a-list": ("graph", {**PATH_GRAPH, "edges": 5}, "a list under key 'edges'"),
    "graph-boundary-not-a-list": ("graph", {**PATH_GRAPH, "boundary": 5}, "a list under key 'boundary'"),
    "graph-top-level-list": ("graph", [PATH_GRAPH], "JSON object, not list"),
    "graph-not-utf8": ("graph", NOT_UTF8, "not UTF-8"),
    "graph-length-a-string": (
        "graph", {**PATH_GRAPH, "edges": [{"tail": "a", "head": "b", "length": "2"}, *PATH_GRAPH["edges"][1:]]},
        "edge e1: length must be a JSON number, not '2'",
    ),
    "graph-length-a-bool": (
        "graph", {**PATH_GRAPH, "edges": [*PATH_GRAPH["edges"][:2], {"tail": "c", "head": "d", "length": True}]},
        "edge e3: length must be a JSON number, not True",
    ),
    "graph-edge-without-tail": (
        "graph", {**PATH_GRAPH, "edges": [{"head": "b"}, *PATH_GRAPH["edges"][1:]]}, "bad edge entry at index 0"
    ),
    "graph-edge-name-twice": (
        "graph", {**PATH_GRAPH, "edges": [{**edge, "name": "x"} if k != 1 else edge for k, edge in enumerate(PATH_GRAPH["edges"])]},
        "edge name 'x' is given to the edges at index 0 and 2",
    ),
    "batches-top-level-list": ("batches", [PATH_BATCHES], "JSON object, not list"),
    "batches-parts-not-a-list": ("batches", {**PATH_BATCHES, "parts": 5}, "a list under key 'parts'"),
    "batches-part-not-a-list": (
        "batches", {**PATH_BATCHES, "parts": [["e1"], "e2", ["e3"]]}, "part 2 must be a list"
    ),
    "batches-entry-not-a-list": (
        "batches", {**PATH_BATCHES, "batches": [[1, 2], "x"]}, "batch 2 must be a list of integer"
    ),
    "batches-index-not-an-integer": (
        "batches", {**PATH_BATCHES, "batches": [[1.9, 2], [2, 3]]}, "batch 1 must be a list of integer"
    ),
    "batches-probs-not-a-list": ("batches", {**PATH_BATCHES, "probs": "abc"}, "a list under key 'probs'"),
    "batches-probs-not-numbers": (
        "batches", {**PATH_BATCHES, "probs": ["a", "b"]}, "probability 1 must be a JSON number, not 'a'"
    ),
    # a JSON integer past the float range: float() raises OverflowError, which 1e400 (read as inf) never reaches
    "batches-probability-too-large": (
        "batches", {**PATH_BATCHES, "probs": [10**400, 0.5]}, "probability 1 is too large for a float"
    ),
    "graph-length-too-large": (
        "graph", {**PATH_GRAPH, "edges": [{"tail": "a", "head": "b", "length": 10**400}, *PATH_GRAPH["edges"][1:]]},
        "edge e1: length is too large for a float",
    ),
    # deeper than the parser's recursion limit
    "graph-nested-too-deep": ("graph", b"[" * 100000, "nesting too deep to read"),
    "batches-nested-too-deep": ("batches", b"[" * 100000, "nesting too deep to read"),
    "batches-probs-nan": (
        "batches", {**PATH_BATCHES, "probs": [float("nan"), 0.5]}, "strictly positive finite"
    ),
    "batches-not-utf8": ("batches", NOT_UTF8, "not UTF-8"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_file_is_config_error(tmp_path, capsys, case):
    file, content, named = MALFORMED[case]
    files = {"graph": PATH_GRAPH, "batches": PATH_BATCHES, file: content}
    argv = ["check"]
    for name, data in files.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
        argv += [f"--{name}", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err
