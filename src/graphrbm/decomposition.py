"""Non-overlapping subgraph partitions and randomized batch families.

The graph is split into M pairwise edge-disjoint parts that cover every
edge.  A batch is a subset of part indices; at each time window one
batch is drawn at random and only its edges evolve.  Coefficients on the
active edges are rescaled by 1/pi_i, where pi_i is the total probability
that part i is active, which makes the randomized operator an unbiased
estimator of the deterministic one.

Vertex bookkeeping per batch j:

* interior vertices of the active subgraph (all adjacent edges active)
  keep the flux coupling condition,
* interface vertices (interior vertices of the graph with some inactive
  adjacent edge) receive frozen Dirichlet data during the window,
* active boundary vertices of the graph keep their Dirichlet data.

The localization weights are zero at interface vertices; on the open
part of each active edge they equal 1/pi of the edge's owning part.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import SolverError
from .graph import MetricGraph

PROB_SUM_TOL = 1e-12


class DecompositionError(SolverError):
    pass


class OverlappingParts(DecompositionError):
    pass


class UncoveredEdge(DecompositionError):
    pass


class BadBatchIndex(DecompositionError):
    pass


class ZeroNormalizer(DecompositionError):
    pass


class BadProbabilityVector(DecompositionError):
    pass


class SubgraphPartition:
    """Pairwise edge-disjoint cover of the graph's edges.

    Derived per part i: the vertex set touched by its edges.  The
    graph-interior vertices a part covers fully are the ``interior`` of
    its singleton batch's ``batch_view``.
    """

    def __init__(self, graph: MetricGraph, parts: Sequence[Iterable[int]]):
        if not parts:
            raise DecompositionError("partition needs at least one part")
        part_sets = []
        for i, p in enumerate(parts):
            edges = frozenset(int(e) for e in p)
            if not edges:
                raise DecompositionError(f"part {i + 1} is empty")
            bad = [e for e in edges if e < 0 or e >= graph.n_edges]
            if bad:
                raise DecompositionError(f"part {i + 1} references unknown edges {sorted(bad)}")
            part_sets.append(edges)

        part_of_edge = np.full(graph.n_edges, -1, dtype=int)
        for i, edges in enumerate(part_sets):
            for e in edges:
                if part_of_edge[e] != -1:
                    raise OverlappingParts(
                        f"edge {graph.edge_name(e)} appears in parts "
                        f"{part_of_edge[e] + 1} and {i + 1}"
                    )
                part_of_edge[e] = i
        uncovered = np.flatnonzero(part_of_edge < 0)
        if uncovered.size:
            names = [graph.edge_name(int(e)) for e in uncovered]
            raise UncoveredEdge(f"edges not covered by any part: {names}")

        self.graph = graph
        self.parts = tuple(part_sets)
        self.n_parts = len(part_sets)
        self.part_of_edge = part_of_edge
        self.part_vertices = tuple(
            frozenset(v for e in edges for v in (graph.edges[e].tail, graph.edges[e].head))
            for edges in part_sets
        )


@dataclass(frozen=True)
class BatchView:
    """Vertex classification of the subgraph activated by one batch."""

    j: int
    active_edges: frozenset[int]
    vertices: frozenset[int]
    interior: frozenset[int]
    boundary: frozenset[int]
    interface: frozenset[int]
    exterior_boundary: frozenset[int]


def batch_view(
    partition: SubgraphPartition, batches: Sequence[Iterable[int]], j: int
) -> BatchView:
    """Classify the vertices of the union of parts in batch j.

    A vertex counts as interior to the active subgraph only if it is an
    interior vertex of the full graph and all of its adjacent edges are
    active.  Active boundary vertices of the graph are reported in
    ``exterior_boundary`` regardless of edge coverage, since they always
    carry Dirichlet data.
    """
    if j < 0 or j >= len(batches):
        raise BadBatchIndex(f"batch index {j} out of range [0, {len(batches)})")
    graph = partition.graph
    parts = sorted(int(i) for i in batches[j])
    bad = [i for i in parts if i < 0 or i >= partition.n_parts]
    if bad:
        raise BadBatchIndex(f"batch {j + 1} references unknown parts {bad}")
    active = frozenset(e for i in parts for e in partition.parts[i])
    vertices = frozenset(v for i in parts for v in partition.part_vertices[i])
    interior = frozenset(
        v
        for v in vertices & graph.interior_vertices
        if set(graph.adjacency(v)) <= active
    )
    boundary = vertices - interior
    return BatchView(
        j=j,
        active_edges=active,
        vertices=vertices,
        interior=interior,
        boundary=boundary,
        interface=boundary & graph.interior_vertices,
        exterior_boundary=boundary & graph.boundary_vertices,
    )


@dataclass(frozen=True)
class A1Report:
    """Coverage check: every interior vertex must be interior to some batch."""

    holds: bool
    witnesses: dict[int, int]
    violations: tuple[int, ...]


def check_assumption_A1(
    partition: SubgraphPartition, batches: Sequence[Iterable[int]]
) -> A1Report:
    """Check that each interior vertex is interior to at least one batch.

    Without this, the flux condition at the uncovered vertex is never
    enforced by any window and the randomized dynamics are inconsistent
    with the deterministic problem.
    """
    views = [batch_view(partition, batches, j) for j in range(len(batches))]
    witnesses: dict[int, int] = {}
    violations = []
    for v in sorted(partition.graph.interior_vertices):
        for view in views:
            if v in view.interior:
                witnesses[v] = view.j
                break
        else:
            violations.append(v)
    return A1Report(holds=not violations, witnesses=witnesses, violations=tuple(violations))


def normalizers(
    batches: Sequence[Iterable[int]], probs: Sequence[float], n_parts: int
) -> np.ndarray:
    """Per-part activation probabilities pi_i = sum of p_j over batches containing i.

    The probability vector is renormalized when its sum is within
    PROB_SUM_TOL of one and rejected otherwise.
    """
    probs = np.asarray(probs, dtype=float)
    if len(probs) != len(batches):
        raise BadProbabilityVector(
            f"{len(probs)} probabilities for {len(batches)} batches"
        )
    if not np.all((probs > 0.0) & np.isfinite(probs)):
        raise BadProbabilityVector("probabilities must be strictly positive finite numbers")
    total = probs.sum()
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise BadProbabilityVector(f"probabilities sum to {total!r}, not 1")
    probs = probs / total
    pi = np.zeros(n_parts)
    for j, batch in enumerate(batches):
        for i in batch:
            if i < 0 or i >= n_parts:
                raise BadBatchIndex(f"batch {j + 1} references unknown part {i + 1}")
            pi[i] += probs[j]
    dead = np.flatnonzero(pi == 0.0)
    if dead.size:
        raise ZeroNormalizer(f"parts never selected by any batch: {(dead + 1).tolist()}")
    return pi


@dataclass(frozen=True)
class BatchFamily:
    """Batches, their probabilities, and the derived per-part normalizers."""

    batches: tuple[frozenset[int], ...]
    probs: np.ndarray
    normalizers: np.ndarray

    @property
    def n_batches(self) -> int:
        return len(self.batches)

    @property
    def n_parts(self) -> int:
        return len(self.normalizers)


def batch_family(
    batches: Sequence[Iterable[int]], probs: Sequence[float], n_parts: int
) -> BatchFamily:
    batch_sets = tuple(frozenset(int(i) for i in b) for b in batches)
    for j, b in enumerate(batch_sets):
        if not b:
            raise DecompositionError(f"batch {j + 1} is empty")
    pi = normalizers(batch_sets, probs, n_parts)
    probs = np.asarray(probs, dtype=float)
    return BatchFamily(batches=batch_sets, probs=probs / probs.sum(), normalizers=pi)


def zeta_weights(partition: SubgraphPartition, family: BatchFamily, j: int) -> np.ndarray:
    """Per-edge scale factors of batch j: 1/pi of the owning part on active edges, 0 elsewhere.

    The weights vanish at the batch's interface vertices
    (``batch_view(...).interface``).  A vertex shared by two active parts
    takes, for each adjacent edge, the factor of that edge's owning part;
    this is the convention the flux bookkeeping of the windowed solver uses
    and it is what per-edge factors encode naturally.
    """
    if j < 0 or j >= family.n_batches:
        raise BadBatchIndex(f"batch index {j} out of range [0, {family.n_batches})")
    parts = list(family.batches[j])
    part_factor = np.zeros(family.n_parts)
    part_factor[parts] = 1.0 / family.normalizers[parts]
    return part_factor[partition.part_of_edge]


def verify_unbiased(
    partition: SubgraphPartition,
    family: BatchFamily,
    psi: Callable[[int, np.ndarray], np.ndarray],
    points: Sequence[tuple[int, float]],
) -> float:
    """Max deviation of sum_j p_j * zeta_j(psi) from psi at interior edge points.

    The identity holds exactly for every point in the open part of every
    edge, so the return value should be at machine precision.
    """
    factors = [zeta_weights(partition, family, j) for j in range(family.n_batches)]
    worst = 0.0
    for e, x in points:
        xa = np.asarray([float(x)])
        value = float(psi(int(e), xa)[0])
        estimate = 0.0
        for j, factor in enumerate(factors):
            estimate += family.probs[j] * factor[e] * value
        worst = max(worst, abs(estimate - value))
    return worst


def sample_interior_points(
    graph: MetricGraph, n: int, seed: int = 0
) -> list[tuple[int, float]]:
    """Draw n >= 1 uniform points strictly inside random edges, reproducible from a seed in [0, 2**128)."""
    if n < 1:
        raise DecompositionError(f"need at least one sample point, got {n}")
    if not 0 <= seed < 2**128:
        raise DecompositionError(f"seed must lie in [0, 2**128), got {seed}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = []
    for _ in range(n):
        e = int(rng.integers(graph.n_edges))
        # keep away from the endpoints where vertex masks live
        x = float(graph.edges[e].length * (0.01 + 0.98 * rng.random()))
        out.append((e, x))
    return out


def demo_partition(graph: MetricGraph) -> SubgraphPartition:
    """Four-part split of the demonstration graph.

    Parts: the left star {e1, e2, e3}, the two middle branch paths
    {e4, e5} and {e6, e7}, and the right star {e8, e9, e10}.
    """
    return SubgraphPartition(graph, [{0, 1, 2}, {3, 4}, {5, 6}, {7, 8, 9}])


def batch_option_one() -> BatchFamily:
    """Batches of ``demo_partition``: four singletons plus the two overlapping halves, uniform probabilities."""
    batches = [{0}, {1}, {2}, {3}, {0, 1, 2}, {1, 2, 3}]
    return batch_family(batches, [1.0 / 6.0] * 6, 4)


def batch_option_two() -> BatchFamily:
    """Batches of ``demo_partition``: four singletons plus the full set of parts, uniform probabilities."""
    batches = [{0}, {1}, {2}, {3}, {0, 1, 2, 3}]
    return batch_family(batches, [1.0 / 5.0] * 5, 4)


def batches_from_dict(data: dict, graph: MetricGraph) -> tuple[SubgraphPartition, BatchFamily]:
    """Build a partition and batch family from the JSON dict format.

    Format (part indices inside "batches" are 1-based)::

        {"parts": [["e1", "e2", "e3"], ...],
         "batches": [[1], [2], [3], [4], [1, 2, 3]],
         "probs": [0.2, 0.2, 0.2, 0.2, 0.2]}
    """
    if not isinstance(data, dict):
        raise DecompositionError(f"batch file must hold a JSON object, not {type(data).__name__}")
    for key in ("parts", "batches", "probs"):
        if not isinstance(data.get(key), list):
            raise DecompositionError(f"batch file needs a list under key {key!r}")
    raw_parts, raw_batches, raw_probs = data["parts"], data["batches"], data["probs"]

    if graph.edge_names is not None:
        edge_id = {name: k for k, name in enumerate(graph.edge_names)}
    else:
        edge_id = {str(k): k for k in range(graph.n_edges)}
    parts = []
    for i, part in enumerate(raw_parts):
        if not isinstance(part, list):
            raise DecompositionError(f"part {i + 1} must be a list of edge names, not {part!r}")
        try:
            parts.append({edge_id[str(e)] for e in part})
        except KeyError as exc:
            raise DecompositionError(f"part {i + 1} references unknown edge {exc}") from exc
    partition = SubgraphPartition(graph, parts)
    for j, batch in enumerate(raw_batches):
        # JSON integers only: bool is an int subclass, and int() would truncate 1.9 to part 1
        if not isinstance(batch, list) or any(type(i) is not int for i in batch):
            raise DecompositionError(
                f"batch {j + 1} must be a list of integer part indices, not {batch!r}"
            )
    if any(type(p) not in (int, float) for p in raw_probs):
        raise DecompositionError(f"probs must be a list of numbers, not {raw_probs!r}")
    batches = [{i - 1 for i in b} for b in raw_batches]
    family = batch_family(batches, raw_probs, partition.n_parts)
    return partition, family


def load_batches(path, graph: MetricGraph) -> tuple[SubgraphPartition, BatchFamily]:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DecompositionError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise DecompositionError(f"{path}: not UTF-8 text: {exc}") from exc
    return batches_from_dict(data, graph)
