import dataclasses

import numpy as np
import pytest

import graphrbm as g
from graphrbm.harness import (
    CSV_HEADER,
    DegenerateFit,
    ExperimentRecord,
    ExperimentSpec,
    InvalidSpec,
    emit_csv,
    fit_slope,
    memory_proxy,
    read_csv,
    run_study,
)

# printed window-length / error pairs from the reference convergence sweep,
# restricted to the pre-saturation range
REFERENCE_SWEEP = [
    (3.333e-4, 5.530e-2),
    (6.667e-4, 1.675e-1),
    (1.667e-3, 2.502e-1),
    (4.667e-3, 7.118e-1),
    (1.167e-2, 2.150e0),
    (2.833e-2, 4.826e0),
]


def make_record(scheme="ie", h=0.002, rss=12.5):
    return ExperimentRecord(
        scheme=scheme,
        h=h,
        dt=0.001,
        realizations=3,
        error1=0.123456789012345,
        error2=0.01,
        variance=0.001,
        avg_time_s=0.25,
        mem_proxy=1234,
        peak_rss_mb=rss,
        seed=42,
    )


def test_fit_slope_linear():
    h = [1e-3, 2e-3, 4e-3, 8e-3]
    slope, intercept = fit_slope(h, [3.0 * x for x in h])
    assert abs(slope - 1.0) <= 1e-12
    assert np.isclose(np.exp(intercept), 3.0, rtol=1e-10)


def test_fit_slope_quadratic():
    h = [1e-3, 2e-3, 4e-3]
    slope, _ = fit_slope(h, [x**2 for x in h])
    assert abs(slope - 2.0) <= 1e-12


def test_fit_slope_reference_sweep():
    slope, _ = fit_slope([h for h, _ in REFERENCE_SWEEP], [e for _, e in REFERENCE_SWEEP])
    assert abs(slope - 1.0) <= 0.3


def test_fit_slope_degenerate():
    with pytest.raises(DegenerateFit):
        fit_slope([1e-3, 2e-3], [1.0, 2.0])
    with pytest.raises(DegenerateFit):
        fit_slope([1e-3, 2e-3, 3e-3], [1.0, -2.0, 3.0])
    with pytest.raises(DegenerateFit):
        fit_slope([1e-3, 1e-3, 1e-3], [1.0, 2.0, 3.0])
    # non-finite data, which would otherwise fit to nan or -inf
    for h, err in (
        ([1e-3, 2e-3, 4e-3], [np.nan, 0.2, 0.4]),
        ([1e-3, 2e-3, 4e-3], [np.inf, 0.2, 0.4]),
        ([np.nan, 2e-3, 4e-3], [0.1, 0.2, 0.4]),
        ([1e-3, 2e-3, np.inf], [0.1, 0.2, 0.4]),
    ):
        with pytest.raises(DegenerateFit, match="finite, strictly positive"):
            fit_slope(h, err)


def test_csv_round_trip(tmp_path):
    records = [
        make_record("ie", 0.004),
        make_record("ie", 0.002),
        make_record("cn", 0.002, rss=None),
    ]
    path = tmp_path / "out.csv"
    emit_csv(records, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 4
    # a float is its repr, None an empty cell
    assert lines[1] == "cn,0.002,0.001,3,0.123456789012345,0.01,0.001,0.25,1234,,42"
    loaded = read_csv(path)
    # sorted by (scheme, h)
    assert [(r.scheme, r.h) for r in loaded] == [("cn", 0.002), ("ie", 0.002), ("ie", 0.004)]
    assert loaded[0].peak_rss_mb is None
    by_key = {(r.scheme, r.h): r for r in loaded}
    for r in records:
        assert by_key[(r.scheme, r.h)] == r


def test_csv_header_is_the_record_fields():
    # a record is exactly one CSV row: its fields are the columns, in order
    assert CSV_HEADER == tuple(field.name for field in dataclasses.fields(ExperimentRecord))


def test_csv_rejects_empty(tmp_path):
    with pytest.raises(g.SolverError):
        emit_csv([], tmp_path / "nope.csv")


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(g.SolverError):
        read_csv(path)
    path.write_text("")
    with pytest.raises(g.SolverError, match="unexpected CSV header"):
        read_csv(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("ie,0.002,0.001,3,0.1,0.01,0.001,0.25,1234,12.5", r":2: 10 cells, expected 11"),
        ("ie,0.002,0.001,3,abc,0.01,0.001,0.25,1234,12.5,42", r":2: error1 cell 'abc' is not valid"),
        ("ie,0.002,0.001,3,0.1,0.01,0.001,0.25,1234,12.5,4.2", r":2: seed cell '4.2' is not valid"),
    ],
)
def test_csv_rejects_bad_row_naming_its_line(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n")
    with pytest.raises(g.SolverError, match=message):
        read_csv(path)


def tiny_spec(demo, partition, family, solution, **overrides):
    base = dict(
        graph=demo,
        partition=partition,
        family=family,
        schemes=[g.IMPLICIT_EULER],
        dt=0.05,
        t_final=0.2,
        h_list=[0.05, 0.1],
        realizations=2,
        seed=31,
        nodes_per_edge=5,
    )
    base.update(overrides)
    return ExperimentSpec(solution=solution, **base)


def test_run_study_smoke(demo, partition, option2, solution):
    records = run_study(tiny_spec(demo, partition, option2, solution))
    assert [(r.scheme, r.h) for r in records] == [("ie", 0.05), ("ie", 0.1)]
    for r in records:
        assert r.realizations == 2
        assert r.error1 > 0.0
        assert r.error1 >= r.error2 - 1e-15
        assert r.mem_proxy > 0
        assert r.seed == 31


def test_run_study_deterministic_error_columns(demo, partition, option2, solution):
    a = run_study(tiny_spec(demo, partition, option2, solution))
    b = run_study(tiny_spec(demo, partition, option2, solution))
    for ra, rb in zip(a, b):
        assert ra.error1 == rb.error1
        assert ra.error2 == rb.error2
        assert ra.variance == rb.variance
        assert ra.mem_proxy == rb.mem_proxy


def test_run_study_two_schemes_sorted(demo, partition, option2, solution):
    records = run_study(
        tiny_spec(
            demo, partition, option2, solution,
            schemes=[g.IMPLICIT_EULER, g.CRANK_NICOLSON],
            h_list=[0.1, 0.05, 0.2],
        )
    )
    assert [(r.scheme, r.h) for r in records] == [
        ("cn", 0.05), ("cn", 0.1), ("cn", 0.2),
        ("ie", 0.05), ("ie", 0.1), ("ie", 0.2),
    ]


def test_run_study_rejects_bad_h(demo, partition, option2, solution):
    with pytest.raises(InvalidSpec):
        run_study(tiny_spec(demo, partition, option2, solution, h_list=[0.07]))
    with pytest.raises(InvalidSpec):
        run_study(tiny_spec(demo, partition, option2, solution, realizations=0))
    with pytest.raises(InvalidSpec):
        run_study(tiny_spec(demo, partition, option2, solution, schemes=[]))
    with pytest.raises(InvalidSpec, match="need at least one window length h"):
        run_study(tiny_spec(demo, partition, option2, solution, h_list=[]))


@pytest.mark.parametrize("field", ["seed", "realizations"])
def test_study_seed_and_realization_count_must_be_integers(demo, partition, option2, solution, field):
    name = "master seed" if field == "seed" else field
    with pytest.raises(InvalidSpec, match=f"{name} must be an integer, not 1.5"):
        run_study(tiny_spec(demo, partition, option2, solution, **{field: 1.5}))
    # a NumPy seed shifted into the high half of a key wrapped to 0, so every master seed drew seed 0's schedules
    numpy_ints, python_ints = (
        [(r.realizations, r.error1, r.error2, r.variance, r.seed) for r in run_study(spec)]
        for spec in (tiny_spec(demo, partition, option2, solution, **{field: value}) for value in (np.int64(2), 2))
    )
    assert numpy_ints == python_ints


def test_spec_without_solution_rejected_by_validate(demo, partition, option2):
    spec = tiny_spec(demo, partition, option2, None)
    with pytest.raises(InvalidSpec, match="manufactured solution"):
        spec.validate()
    with pytest.raises(InvalidSpec, match="manufactured solution"):
        run_study(spec)


def test_single_batch_proxies_match_full(demo, partition, single_batch, problem):
    # one batch containing every part solves the same system as the baseline
    mesh = g.Mesh(10)
    full = g.run_full(demo, mesh, problem, g.IMPLICIT_EULER, dt=0.05, t_final=0.2)
    config = g.RbmConfig(h=0.05, dt=0.05, t_final=0.2, scheme=g.IMPLICIT_EULER, seed=5)
    rbm = g.run_rbm(demo, partition, single_batch, mesh, problem, config)
    assert memory_proxy(rbm.stats) == memory_proxy(full.stats)
    assert rbm.stats["max_active_dofs"] == full.stats["max_active_dofs"]


def test_memory_proxy_needs_both_stats():
    stats = {"max_active_dofs": 3, "max_factor_nnz": 4}
    assert memory_proxy(stats) == 7
    # a stat left out would under-report the study's mem_proxy column, so it is an error
    for missing in stats:
        with pytest.raises(KeyError, match=missing):
            memory_proxy({key: value for key, value in stats.items() if key != missing})
