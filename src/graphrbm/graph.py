"""Metric graphs: oriented edges identified with intervals [0, length].

A graph is a set of oriented edges plus an explicit set of boundary
vertices.  Vertices are dense integer ids declared implicitly by the
edges.  Interior vertices carry coupling (continuity + flux) conditions
in the solvers, boundary vertices carry Dirichlet data.

Edge orientation fixes the local coordinate (tail at x=0, head at
x=length) and the sign of each end (``fem.Ends``).  Flux sums over all
adjacent edges are orientation invariant, so any consistent orientation
choice yields the same solver behaviour.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import SolverError


class GraphError(SolverError):
    pass


class EmptyGraph(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class DisconnectedGraph(GraphError):
    pass


class BoundaryVertexUnknown(GraphError):
    pass


@dataclass(frozen=True)
class Edge:
    """Oriented edge from tail to head, identified with [0, length]."""

    tail: int
    head: int
    length: float = 1.0


class MetricGraph:
    """Validated, immutable metric graph.

    Safe to share read-only across threads once constructed.
    """

    def __init__(
        self,
        edges: Sequence[Edge],
        boundary_vertices: Iterable[int],
        vertex_names: Sequence[str] | None = None,
        edge_names: Sequence[str] | None = None,
    ):
        edges = tuple(edges)
        if not edges:
            raise EmptyGraph("graph needs at least one edge")
        for k, e in enumerate(edges):
            if e.tail == e.head:
                raise SelfLoop(f"edge {k} is a self-loop at vertex {e.tail}")
            if not (e.length > 0.0 and math.isfinite(e.length)):
                raise GraphError(
                    f"edge {k} has length {e.length}; lengths must be positive and finite"
                )

        n_vertices = 1 + max(max(e.tail, e.head) for e in edges)
        adjacency: list[list[int]] = [[] for _ in range(n_vertices)]
        for k, e in enumerate(edges):
            if e.tail < 0 or e.head < 0:
                raise GraphError(f"edge {k} references a negative vertex id")
            adjacency[e.tail].append(k)
            adjacency[e.head].append(k)
        isolated = [v for v in range(n_vertices) if not adjacency[v]]
        if isolated:
            raise DisconnectedGraph(f"vertices without any edge: {isolated}")

        boundary = frozenset(int(v) for v in boundary_vertices)
        unknown = sorted(v for v in boundary if v < 0 or v >= n_vertices)
        if unknown:
            raise BoundaryVertexUnknown(f"boundary ids not declared by any edge: {unknown}")

        self.edges = edges
        self.n_vertices = n_vertices
        self.n_edges = len(edges)
        self.boundary_vertices = boundary
        self.interior_vertices = frozenset(range(n_vertices)) - boundary
        self._adjacency = tuple(tuple(a) for a in adjacency)
        self.vertex_names = tuple(vertex_names) if vertex_names is not None else None
        self.edge_names = tuple(edge_names) if edge_names is not None else None
        if self.vertex_names is not None and len(self.vertex_names) != n_vertices:
            raise GraphError("vertex_names length does not match vertex count")
        if self.edge_names is not None and len(self.edge_names) != self.n_edges:
            raise GraphError("edge_names length does not match edge count")

        self._check_connected()

    def _check_connected(self) -> None:
        seen = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for k in self._adjacency[v]:
                e = self.edges[k]
                w = e.head if e.tail == v else e.tail
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) != self.n_vertices:
            missing = sorted(set(range(self.n_vertices)) - seen)
            raise DisconnectedGraph(f"vertices unreachable from vertex 0: {missing}")

    def adjacency(self, v: int) -> tuple[int, ...]:
        """Edge ids adjacent to vertex v."""
        return self._adjacency[v]

    def vertex_name(self, v: int) -> str:
        return self.vertex_names[v] if self.vertex_names is not None else str(v)

    def edge_name(self, e: int) -> str:
        return self.edge_names[e] if self.edge_names is not None else str(e)

    def __repr__(self) -> str:
        return (
            f"MetricGraph(|V|={self.n_vertices}, |E|={self.n_edges}, "
            f"boundary={sorted(self.boundary_vertices)})"
        )


def build_graph(
    edges: Sequence[tuple[int, int, float]],
    boundary: Iterable[int],
    vertex_names: Sequence[str] | None = None,
    edge_names: Sequence[str] | None = None,
) -> MetricGraph:
    """Build and validate a metric graph from (tail, head, length) triples."""
    return MetricGraph(
        [Edge(int(t), int(h), float(l)) for t, h, l in edges],
        boundary,
        vertex_names=vertex_names,
        edge_names=edge_names,
    )


def demo_graph() -> MetricGraph:
    """Ten-vertex, ten-edge demonstration graph with unit edge lengths.

    Two pendant pairs (v1, v2 and v9, v10) hang off a central path
    v3 - v4 - v7 - v8 that splits into the parallel branch v4 - v5 - v7 /
    v4 - v6 - v7.  Boundary vertices are the four pendant tips.
    """
    names_v = tuple(f"v{i}" for i in range(1, 11))
    names_e = tuple(f"e{i}" for i in range(1, 11))
    # (tail, head) pairs, 0-based: v1 -> index 0, ..., v10 -> index 9
    pairs = [
        (0, 2), (1, 2), (2, 3), (3, 4), (4, 6),
        (3, 5), (5, 6), (6, 7), (7, 8), (7, 9),
    ]
    return build_graph(
        [(t, h, 1.0) for t, h in pairs],
        boundary={0, 1, 8, 9},
        vertex_names=names_v,
        edge_names=names_e,
    )


def graph_from_dict(data: dict) -> MetricGraph:
    """Build a graph from the JSON dict format.

    Format::

        {"edges": [{"tail": "v1", "head": "v3", "length": 1.0}, ...],
         "boundary": ["v1", "v2", "v9", "v10"]}

    String vertex names map to dense integer ids in declaration order
    (first appearance while scanning tail, head of each edge).
    """
    if not isinstance(data, dict):
        raise GraphError(f"graph file must hold a JSON object, not {type(data).__name__}")
    for key in ("edges", "boundary"):
        if not isinstance(data.get(key), list):
            raise GraphError(f"graph file needs a list under key {key!r}")
    raw_edges, raw_boundary = data["edges"], data["boundary"]
    ids: dict[str, int] = {}

    def vid(name) -> int:
        key = str(name)
        if key not in ids:
            ids[key] = len(ids)
        return ids[key]

    triples = []
    edge_names = []
    for k, item in enumerate(raw_edges):
        try:
            triples.append((vid(item["tail"]), vid(item["head"]), float(item.get("length", 1.0))))
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"bad edge entry at index {k}: {exc}") from exc
        edge_names.append(str(item.get("name", f"e{k + 1}")))
    try:
        boundary = {ids[str(name)] for name in raw_boundary}
    except KeyError as exc:
        raise BoundaryVertexUnknown(f"boundary vertex {exc} not used by any edge") from exc

    vertex_names = [None] * len(ids)
    for name, i in ids.items():
        vertex_names[i] = name
    return build_graph(triples, boundary, vertex_names=vertex_names, edge_names=edge_names)


def load_graph(path) -> MetricGraph:
    """Read a graph from a JSON file; see graph_from_dict for the format."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise GraphError(f"{path}: not UTF-8 text: {exc}") from exc
    return graph_from_dict(data)
