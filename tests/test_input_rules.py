"""The two input rules at the library's entry points, and problems whose objects belong to different graphs.

Every id and count is read by ``errors.integer`` and every other number by
``errors.number`` where it enters: a float id, a bool, a numeric string and
NaN each raise the entry point's module error naming the field, and NumPy
integers and floats are accepted.
"""

import math
import warnings

import numpy as np
import pytest
from test_manufactured import binary_tree

import graphrbm as g
from graphrbm.decomposition import DecompositionError
from graphrbm.engine import InvalidSpec, RbmRuntime, stored_times
from graphrbm.errors import NumericalError, SolverError
from graphrbm.fem import FemError
from graphrbm.graph import GraphError
from graphrbm.harness import ExperimentSpec, run_study
from graphrbm.manufactured import L2ErrorEvaluator

PATH = g.build_graph([(0, 1, 1.0), (1, 2, 1.0)], {0, 2})
DEMO = g.demo_graph()
PARTITION = g.demo_partition(DEMO)
FAMILY = g.batch_option_one()
TWO = g.batch_family([{0}, {1}], [0.5, 0.5], 2)
COEFFS = g.derive_data(g.demo_solution(DEMO))


def config(**overrides):
    fields = dict(h=0.1, dt=0.05, t_final=0.2, scheme=g.IMPLICIT_EULER, seed=3)
    return g.RbmConfig(**{**fields, **overrides})


def study(**overrides):
    fields = dict(
        graph=DEMO, partition=PARTITION, family=FAMILY, schemes=[g.IMPLICIT_EULER], dt=0.05, t_final=0.1,
        h_list=[0.05], realizations=1, seed=1, nodes_per_edge=2, solution=g.demo_solution(DEMO),
    )
    return ExperimentSpec(**{**fields, **overrides})


def _run_full(**overrides):
    fields = dict(dt=0.05, t_final=0.2, snapshot_stride=1)
    return g.run_full(DEMO, g.Mesh(2), COEFFS, g.IMPLICIT_EULER, **{**fields, **overrides})


# (entry point, field, the call with value x, error, the field as the message names it, kind of field)
ENTRY_POINTS = [
    ("MetricGraph", "tail", lambda x: g.MetricGraph([g.Edge(x, 1), g.Edge(1, 2)], {0, 2}), GraphError, "edge 0: tail", "id"),
    ("MetricGraph", "head", lambda x: g.MetricGraph([g.Edge(0, x), g.Edge(1, 2)], {0, 2}), GraphError, "edge 0: head", "id"),
    ("MetricGraph", "length", lambda x: g.MetricGraph([g.Edge(0, 1, x), g.Edge(1, 2)], {0, 2}), GraphError, "length", "number"),
    ("MetricGraph", "boundary", lambda x: g.MetricGraph([g.Edge(0, 1), g.Edge(1, 2)], {0, x}), GraphError, "boundary vertex id", "id"),
    ("build_graph", "tail", lambda x: g.build_graph([(0, 1, 1.0), (x, 2, 1.0)], {0, 2}), GraphError, "edge 1: tail", "id"),
    ("build_graph", "head", lambda x: g.build_graph([(0, x, 1.0), (1, 2, 1.0)], {0, 2}), GraphError, "edge 0: head", "id"),
    ("build_graph", "length", lambda x: g.build_graph([(0, 1, 1.0), (1, 2, x)], {0, 2}), GraphError, "length", "number"),
    ("build_graph", "boundary", lambda x: g.build_graph([(0, 1, 1.0), (1, 2, 1.0)], {x, 2}), GraphError, "boundary vertex id", "id"),
    ("SubgraphPartition", "edge id", lambda x: g.SubgraphPartition(PATH, [{0}, {x}]), DecompositionError, "part 2: edge id", "id"),
    ("batch_family", "part id", lambda x: g.batch_family([{0}, {x}], [0.5, 0.5], 2), DecompositionError, "batch 2: part id", "id"),
    ("batch_family", "probability", lambda x: g.batch_family([{0}, {1}], [x, 0.5], 2), DecompositionError, "probabilit", "number"),
    ("batch_family", "part count", lambda x: g.batch_family([{0}, {1}], [0.5, 0.5], x), DecompositionError, "part count", "id"),
    ("batch_view", "batch index", lambda x: g.batch_view(PARTITION, FAMILY.batches, x), DecompositionError, "batch index", "id"),
    ("batch_view", "part id", lambda x: g.batch_view(PARTITION, [{0}, {x}], 1), DecompositionError, "batch 2: part id", "id"),
    ("zeta_weights", "batch index", lambda x: g.zeta_weights(PARTITION, FAMILY, x), DecompositionError, "batch index", "id"),
    ("sample_interior_points", "count", lambda x: g.decomposition.sample_interior_points(PATH, x), DecompositionError, "count", "id"),
    ("sample_interior_points", "seed", lambda x: g.decomposition.sample_interior_points(PATH, 2, x), DecompositionError, "seed", "id"),
    ("sample_schedule", "window count", lambda x: g.sample_schedule(x, [0.5, 0.5], 1), InvalidSpec, "window count", "id"),
    ("sample_schedule", "seed", lambda x: g.sample_schedule(4, [0.5, 0.5], x), InvalidSpec, "seed", "id"),
    ("sample_schedule", "probability", lambda x: g.sample_schedule(4, [x, 0.5], 1), InvalidSpec, "probabilit", "number"),
    ("Mesh", "nodes_per_edge", lambda x: g.Mesh(x), FemError, "nodes_per_edge", "id"),
    ("RbmConfig", "seed", lambda x: config(seed=x), InvalidSpec, "seed", "id"),
    ("RbmConfig", "snapshot_stride", lambda x: config(snapshot_stride=x), InvalidSpec, "snapshot stride", "id"),
    ("RbmConfig", "h", lambda x: stored_times(config(h=x)), InvalidSpec, "window length h", "number"),
    ("RbmConfig", "dt", lambda x: stored_times(config(dt=x)), InvalidSpec, "dt", "number"),
    ("RbmConfig", "t_final", lambda x: stored_times(config(t_final=x)), InvalidSpec, "t_final", "number"),
    ("run_full", "dt", lambda x: _run_full(dt=x), InvalidSpec, "dt", "number"),
    ("run_full", "t_final", lambda x: _run_full(t_final=x), InvalidSpec, "t_final", "number"),
    ("run_full", "snapshot_stride", lambda x: _run_full(snapshot_stride=x), InvalidSpec, "snapshot stride", "id"),
    ("SchemeKind", "theta", lambda x: g.SchemeKind("theta", x), SolverError, "theta", "number"),
]

# a float is a valid number, so only an id field is given one
BAD_VALUES = {"float": 1.5, "bool": True, "numeric string": "1", "nan": math.nan}


@pytest.mark.parametrize(
    "entry, value",
    [
        pytest.param(row, value, id=f"{row[0]}-{row[1]}-{kind}")
        for row in ENTRY_POINTS
        for kind, value in BAD_VALUES.items()
        if not (kind == "float" and row[5] == "number")
    ],
)
def test_bad_id_or_number_raises_the_module_error_naming_the_field(entry, value):
    _, _, call, error, field, _ = entry
    with pytest.raises(error, match=field) as caught:
        call(value)
    assert not isinstance(caught.value, NumericalError)


def test_numpy_integers_and_floats_are_accepted():
    as_numpy = g.build_graph([(np.int64(0), np.int32(1), np.float64(1.0)), (1, 2, np.float32(2.0))], {np.int16(0), 2})
    assert as_numpy.edges == PATH.edges[:1] + (g.Edge(1, 2, 2.0),) and as_numpy.boundary_vertices == {0, 2}
    assert all(type(v) is int for e in as_numpy.edges for v in (e.tail, e.head))
    assert all(type(e.length) is float for e in as_numpy.edges)
    family = g.batch_family([{np.int64(0)}, {1}], np.array([0.5, 0.5]), np.int64(2))
    assert family.batches == TWO.batches and np.array_equal(family.probs, TWO.probs)
    assert g.batch_view(PARTITION, FAMILY.batches, np.int64(4)) == g.batch_view(PARTITION, FAMILY.batches, 4)
    assert np.array_equal(g.zeta_weights(PARTITION, FAMILY, np.int32(4)), g.zeta_weights(PARTITION, FAMILY, 4))
    assert g.SchemeKind("theta", np.float64(0.7)) == g.theta_method(0.7)
    assert type(g.SchemeKind("theta", np.float32(0.5)).theta) is float
    assert np.array_equal(stored_times(config(h=np.float64(0.1), dt=np.float64(0.05))), stored_times(config()))
    want = g.sample_schedule(7, [0.25, 0.75], 3).omegas
    assert np.array_equal(g.sample_schedule(np.int64(7), np.array([0.25, 0.75]), np.uint8(3)).omegas, want)


def test_a_word_probability_a_string_window_and_bad_points_are_rejected():
    # a probability that is no number at all, a window length given to run_rbm as a string, and
    # verify_unbiased's points, whose int() and float() read 0.5 as edge 0 and "0.5" as 0.5
    with pytest.raises(DecompositionError, match="probability 1 must be a number, not 'a'"):
        g.batch_family([{0}, {1}], ["a", 0.5], 2)
    with pytest.raises(InvalidSpec, match="window length h must be a number, not '0.1'"):
        g.run_rbm(DEMO, PARTITION, FAMILY, g.Mesh(2), COEFFS, config(h="0.1"))
    with pytest.raises(DecompositionError, match="point 1: edge id must be an integer, not 0.5"):
        g.verify_unbiased(PARTITION, FAMILY, lambda e, x: x, [(0.5, 0.5)])
    with pytest.raises(DecompositionError, match="point 2: coordinate must be a number, not '0.5'"):
        g.verify_unbiased(PARTITION, FAMILY, lambda e, x: x, [(0, 0.5), (1, "0.5")])


# problems whose objects belong to different graphs


@pytest.fixture(scope="module")
def tree_run():
    tree = binary_tree(1)
    solution = g.build_solution(tree, [1.0, 2.0], [0.5, -0.5])
    return g.run_full(tree, g.Mesh(3), g.derive_data(solution), g.IMPLICIT_EULER, 0.05, 0.1)


def test_errors_against_a_solution_of_another_graph_are_rejected(tree_run):
    with pytest.raises(SolverError, match=r"graph of the solution, MetricGraph\(\|V\|=10.*graph of the states, MetricGraph\(\|V\|=3"):
        g.estimate_errors([tree_run], solution=g.demo_solution(DEMO))


def test_runtime_rejects_a_partition_of_another_graph_before_any_warning():
    tree = binary_tree(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the A1 report of a foreign partition warned before
        with pytest.raises(InvalidSpec, match=r"graph of the partition, MetricGraph\(\|V\|=10.*graph of the runtime, MetricGraph\(\|V\|=7"):
            RbmRuntime(tree, PARTITION, FAMILY, g.Mesh(2), COEFFS)


def test_study_rejects_a_solution_of_another_graph_in_validate_and_a_partition_before_assembly(tree_run):
    tree = tree_run.graph
    with pytest.raises(InvalidSpec, match="graph of the solution, MetricGraph"):
        study(solution=g.build_solution(tree, [1.0, 2.0], [0.5, -0.5])).validate()
    with pytest.raises(InvalidSpec, match="graph of the partition, MetricGraph"):
        run_study(study(partition=g.SubgraphPartition(tree, [{0}, {1}]), family=TWO))


def test_a_graph_built_twice_is_the_same_graph():
    twice = g.demo_graph()
    assert twice is not DEMO
    runtime = RbmRuntime(twice, PARTITION, FAMILY, g.Mesh(2), COEFFS)
    L2ErrorEvaluator(runtime.elements.elements, g.demo_solution(DEMO))
    assert len(run_study(study(graph=twice))) == 1
    # the same edges with another boundary is another graph
    other = g.build_graph([(e.tail, e.head, e.length) for e in DEMO.edges], {0, 1, 8})
    with pytest.raises(InvalidSpec, match="graph of the partition"):
        RbmRuntime(other, PARTITION, FAMILY, g.Mesh(2), COEFFS)
