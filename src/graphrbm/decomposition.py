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

``batch_family`` checks a family and works out its normalizers in one
pass: part ids, non-empty batches, the probabilities and their sum, and
pi, with no part left at pi = 0.

Bad input raises ``DecompositionError`` naming the part, batch or entry;
edge and part ids, and the count and seed of ``sample_interior_points``,
must be Python or NumPy integers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import SolverError, integer
from .graph import MetricGraph, json_lists, json_number, read_json

PROB_SUM_TOL = 1e-12


class DecompositionError(SolverError):
    pass


def _ids(values: Iterable[int], what: str) -> list[int]:
    """``values`` as ints; DecompositionError naming ``what`` for a float, which int() would truncate."""
    out = []
    for v in values:
        try:
            out.append(operator.index(v))
        except TypeError:
            raise DecompositionError(f"{what} holds {v!r}, not an integer id") from None
    return out


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
            edges = frozenset(_ids(p, f"part {i + 1}"))
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
                    raise DecompositionError(
                        f"edge {graph.edge_name(e)} appears in parts "
                        f"{part_of_edge[e] + 1} and {i + 1}"
                    )
                part_of_edge[e] = i
        uncovered = np.flatnonzero(part_of_edge < 0)
        if uncovered.size:
            names = [graph.edge_name(int(e)) for e in uncovered]
            raise DecompositionError(f"edges not covered by any part: {names}")

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
        raise DecompositionError(f"batch index {j} out of range [0, {len(batches)})")
    graph = partition.graph
    parts = sorted(_ids(batches[j], f"batch {j + 1}"))
    bad = [i for i in parts if i < 0 or i >= partition.n_parts]
    if bad:
        raise DecompositionError(f"batch {j + 1} references unknown parts {bad}")
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
    return _a1_report(partition.graph, [batch_view(partition, batches, j) for j in range(len(batches))])


def _a1_report(graph: MetricGraph, views: Sequence[BatchView]) -> A1Report:
    """The A1 report of the batches whose views are ``views``, in batch order."""
    witnesses: dict[int, int] = {}
    violations = []
    for v in sorted(graph.interior_vertices):
        for view in views:
            if v in view.interior:
                witnesses[v] = view.j
                break
        else:
            violations.append(v)
    return A1Report(holds=not violations, witnesses=witnesses, violations=tuple(violations))


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
    """The family of ``batches`` drawn with ``probs``, checked and its normalizers worked out in one pass.

    Each batch names at least one part in [0, n_parts); ``probs`` holds one
    positive finite number per batch, summing to one within PROB_SUM_TOL,
    and is renormalized; pi_i, the total probability of the batches that
    hold part i, must be positive.
    """
    probs = np.asarray(probs, dtype=float)
    if len(probs) != len(batches):
        raise DecompositionError(f"{len(probs)} probabilities for {len(batches)} batches")
    if not np.all((probs > 0.0) & np.isfinite(probs)):
        raise DecompositionError("probabilities must be strictly positive finite numbers")
    total = float(probs.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise DecompositionError(f"probabilities sum to {total!r}, not 1")
    probs = probs / total
    batch_sets = []
    pi = np.zeros(n_parts)
    for j, batch in enumerate(batches):
        parts = frozenset(_ids(batch, f"batch {j + 1}"))
        if not parts:
            raise DecompositionError(f"batch {j + 1} is empty")
        bad = sorted(i for i in parts if i < 0 or i >= n_parts)
        if bad:
            raise DecompositionError(f"batch {j + 1} references unknown part {bad[0] + 1}")
        pi[list(parts)] += probs[j]
        batch_sets.append(parts)
    dead = np.flatnonzero(pi == 0.0)
    if dead.size:
        raise DecompositionError(f"parts never selected by any batch: {(dead + 1).tolist()}")
    return BatchFamily(batches=tuple(batch_sets), probs=probs, normalizers=pi)


def edge_factors(partition: SubgraphPartition, family: BatchFamily) -> np.ndarray:
    """1/pi of each edge's owning part, per edge: the factor of an edge in every batch that holds it.

    Raises DecompositionError when the family's part count is not the partition's.
    """
    if family.n_parts != partition.n_parts:
        raise DecompositionError(
            f"the batch family has {family.n_parts} parts, the partition {partition.n_parts}"
        )
    return 1.0 / family.normalizers[partition.part_of_edge]


def zeta_weights(partition: SubgraphPartition, family: BatchFamily, j: int) -> np.ndarray:
    """Per-edge scale factors of batch j: 1/pi of the owning part on active edges, 0 elsewhere.

    The weights vanish at the batch's interface vertices
    (``batch_view(...).interface``).  A vertex shared by two active parts
    takes, for each adjacent edge, the factor of that edge's owning part;
    this is the convention the flux bookkeeping of the windowed solver uses
    and it is what per-edge factors encode naturally.
    """
    if j < 0 or j >= family.n_batches:
        raise DecompositionError(f"batch index {j} out of range [0, {family.n_batches})")
    factors = edge_factors(partition, family)
    active = np.zeros(family.n_parts, dtype=bool)
    active[list(family.batches[j])] = True
    return np.where(active[partition.part_of_edge], factors, 0.0)


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
    """Draw n >= 1 uniform points strictly inside random edges, reproducible from an integer seed in [0, 2**128)."""
    n = integer(n, "the sample point count", DecompositionError)
    seed = integer(seed, "seed", DecompositionError)
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
    raw_parts, raw_batches, raw_probs = json_lists(
        data, ("parts", "batches", "probs"), "batch file", DecompositionError
    )

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
    probs = [json_number(p, f"probability {j + 1}", DecompositionError) for j, p in enumerate(raw_probs)]
    batches = [{i - 1 for i in b} for b in raw_batches]
    family = batch_family(batches, probs, partition.n_parts)
    return partition, family


def load_batches(path, graph: MetricGraph) -> tuple[SubgraphPartition, BatchFamily]:
    """Read a partition and batch family from a JSON file; see batches_from_dict for the format."""
    return batches_from_dict(read_json(path, DecompositionError), graph)
