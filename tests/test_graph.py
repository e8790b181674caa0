import json

import numpy as np
import pytest

import graphrbm as g
from graphrbm import fem
from graphrbm.graph import (
    BoundaryVertexUnknown,
    DisconnectedGraph,
    EmptyGraph,
    GraphError,
    SelfLoop,
    graph_from_dict,
)


def test_single_edge_classification():
    graph = g.build_graph([(0, 1, 1.0)], {0, 1})
    assert graph.interior_vertices == frozenset()
    assert graph.boundary_vertices == {0, 1}
    assert graph.n_vertices == 2 and graph.n_edges == 1


def test_demo_graph_shape(demo):
    assert demo.n_vertices == 10
    assert demo.n_edges == 10
    assert {demo.vertex_name(v) for v in demo.boundary_vertices} == {"v1", "v2", "v9", "v10"}
    assert all(e.length == 1.0 for e in demo.edges)
    # v3 touches exactly the left star
    v3 = 2
    assert {demo.edge_name(e) for e in demo.adjacency(v3)} == {"e1", "e2", "e3"}
    # subgraph-1 edges span v1..v4
    touched = set()
    for e in (0, 1, 2):
        touched.update((demo.edges[e].tail, demo.edges[e].head))
    assert {demo.vertex_name(v) for v in touched} == {"v1", "v2", "v3", "v4"}


def test_incidence_signs():
    graph = g.build_graph([(0, 1, 1.0), (1, 2, 1.0)], {0, 2})
    ends = fem.Ends(graph)
    # edge 0 runs from vertex 0 (its tail, sign -1) to vertex 1 (its head, sign +1)
    assert ends.vertex[ends.edge == 0].tolist() == [0, 1]
    assert ends.sign[ends.edge == 0].tolist() == [-1.0, 1.0]
    assert 2 not in ends.vertex[ends.edge == 0]


def assert_end_invariants(graph):
    """Each edge has one tail end and one head end; each vertex one end per adjacent edge."""
    ends = fem.Ends(graph)
    assert np.bincount(ends.edge).tolist() == [2] * graph.n_edges
    for e, edge in enumerate(graph.edges):
        tail, head = np.flatnonzero(ends.edge == e)
        assert (ends.vertex[tail], ends.vertex[head]) == (edge.tail, edge.head)
        assert ends.sign[tail] * ends.sign[head] == -1.0
    counts = np.bincount(ends.vertex, minlength=graph.n_vertices)
    for v in range(graph.n_vertices):
        assert counts[v] == len(graph.adjacency(v))
        # a vertex's ends come in its adjacency order, the first one first
        assert ends.edge[ends.vertex == v].tolist() == list(graph.adjacency(v))
        assert ends.first[v] == np.flatnonzero(ends.vertex == v)[0]


def test_incidence_invariants(demo):
    assert_end_invariants(demo)


def test_degree_matches_incidence(demo):
    counts = np.bincount(fem.Ends(demo).vertex)
    assert counts.tolist() == [1, 1, 3, 3, 2, 2, 3, 3, 1, 1]


def test_random_graphs_incidence_invariants(rng):
    # random trees plus a few extra edges, no self-loops
    for _ in range(20):
        n = int(rng.integers(2, 12))
        edges = [(int(rng.integers(0, v)), v, float(rng.uniform(0.5, 2.0))) for v in range(1, n)]
        for _ in range(int(rng.integers(0, 3))):
            a, b = rng.choice(n, size=2, replace=False)
            edges.append((int(a), int(b), float(rng.uniform(0.5, 2.0))))
        assert_end_invariants(g.build_graph(edges, {0}))


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraph):
        g.build_graph([(0, 1, 1.0), (2, 3, 1.0)], {0})


def test_isolated_vertex_rejected():
    with pytest.raises(DisconnectedGraph):
        g.build_graph([(0, 2, 1.0)], {0})  # vertex 1 never used


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        g.build_graph([(0, 0, 1.0)], {0})


def test_empty_rejected():
    with pytest.raises(EmptyGraph):
        g.build_graph([], set())


def test_unknown_boundary_rejected():
    with pytest.raises(BoundaryVertexUnknown):
        g.build_graph([(0, 1, 1.0)], {5})


def test_nonpositive_length_rejected():
    with pytest.raises(GraphError):
        g.build_graph([(0, 1, 0.0)], {0, 1})


@pytest.mark.parametrize("length", [float("inf"), float("nan"), -1.0])
def test_nonfinite_length_rejected(length):
    with pytest.raises(GraphError, match="positive and finite"):
        g.build_graph([(0, 1, 1.0), (1, 2, length)], {0, 2})


def test_endpoint_coordinate():
    graph = g.build_graph([(0, 1, 2.5)], {0, 1})
    ends = fem.Ends(graph)
    # the tail sits at coordinate 0 and the head at the edge length
    assert ends.vertex.tolist() == [0, 1]
    assert ends.coordinate.tolist() == [0.0, 2.5]
    assert ends.sample(lambda e, x: 10.0 * e + x).tolist() == [0.0, 2.5]


def test_graph_from_dict_name_order():
    data = {
        "edges": [
            {"tail": "v1", "head": "v3", "length": 1.0},
            {"tail": "v2", "head": "v3", "length": 2.0},
        ],
        "boundary": ["v1", "v2"],
    }
    graph = graph_from_dict(data)
    # declaration order: v1 -> 0, v3 -> 1, v2 -> 2
    assert graph.vertex_names == ("v1", "v3", "v2")
    assert graph.edges[1].tail == 2 and graph.edges[1].head == 1
    assert graph.edges[1].length == 2.0
    assert graph.boundary_vertices == {0, 2}


def test_graph_from_dict_unknown_boundary():
    data = {"edges": [{"tail": "a", "head": "b"}], "boundary": ["zzz"]}
    with pytest.raises(BoundaryVertexUnknown):
        graph_from_dict(data)


def test_load_graph_round_trip(tmp_path, demo):
    payload = {
        "edges": [
            {
                "tail": demo.vertex_name(e.tail),
                "head": demo.vertex_name(e.head),
                "length": e.length,
                "name": demo.edge_name(k),
            }
            for k, e in enumerate(demo.edges)
        ],
        "boundary": [demo.vertex_name(v) for v in sorted(demo.boundary_vertices)],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload))
    loaded = g.load_graph(path)
    assert loaded.n_vertices == demo.n_vertices
    assert loaded.n_edges == demo.n_edges
    assert {loaded.vertex_name(v) for v in loaded.boundary_vertices} == {
        demo.vertex_name(v) for v in demo.boundary_vertices
    }


def test_load_graph_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"edges": [')
    with pytest.raises(GraphError, match=r":\d+:\d+:"):
        g.load_graph(path)
