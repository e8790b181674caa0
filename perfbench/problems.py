"""Seeded problem generation for the benchmark workloads.

Two problem families:

* the README's 10-edge demo graph with its stock partition, the option-two
  batch family and the demo manufactured solution (only the points of the
  unbiasedness check depend on the seed);
* a complete binary tree of depth 9 (1022 unit edges, the root and the 512
  leaves as boundary), cut into connected parts below a chosen level, with
  the option-two family (one singleton batch per part plus the full batch,
  uniform probabilities) and a manufactured solution whose leading
  coefficients are drawn once, from the fixed ``TREE_COEFFICIENT_SEED``, so
  that the deterministic outputs of the tree workloads can be pinned.

Every random draw goes through ``rng(seed, stream)``, a Philox generator
keyed by a seed and a fixed stream tag, so the same seed always gives the
same inputs.  The benchmark seed drives the points of the unbiasedness
check and the realization schedules.  Generation checks the invariants the
solvers rely on and raises ``GenerationError`` when one fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from graphrbm import decomposition, engine, graph, manufactured
from graphrbm.fem import CoefficientSet, Mesh

UNBIASED_TOL = 1e-13
RESIDUAL_TOL = 1e-10
UNBIASED_POINTS = 200
LEADING_RANGE = 5.0
TREE_COEFFICIENT_SEED = 0

# stream tags; each purpose draws from its own generator
STREAM_COEFFICIENTS = 1
STREAM_POINTS = 2
STREAM_SCHEDULES = 3


class GenerationError(RuntimeError):
    """A generated problem violates an invariant the solvers assume."""


@dataclass(frozen=True)
class Problem:
    graph: graph.MetricGraph
    partition: decomposition.SubgraphPartition
    family: decomposition.BatchFamily
    solution: manufactured.ManufacturedSolution
    coeffs: CoefficientSet
    mesh: Mesh

    def loader_tuple(self):
        """The (graph, partition, family, solution, coeffs) tuple the CLI loader returns."""
        return self.graph, self.partition, self.family, self.solution, self.coeffs


def rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), *stream])))


def binary_tree(depth: int) -> graph.MetricGraph:
    """Complete binary tree; edge k runs from parent (k // 2) to child k + 1."""
    n_inner = 2**depth - 1
    edges = []
    for v in range(n_inner):
        edges.append((v, 2 * v + 1, 1.0))
        edges.append((v, 2 * v + 2, 1.0))
    leaves = range(n_inner, 2 ** (depth + 1) - 1)
    return graph.build_graph(edges, {0, *leaves})


def _level(v: int) -> int:
    return (v + 1).bit_length() - 1


def subtree_partition(tree: graph.MetricGraph, cut: int) -> decomposition.SubgraphPartition:
    """The edges above level ``cut`` form one part; each subtree below a level-``cut`` vertex another."""
    top = []
    below: dict[int, list[int]] = {}
    for k, edge in enumerate(tree.edges):
        child = edge.head
        if _level(child) <= cut:
            top.append(k)
            continue
        root = child
        while _level(root) > cut:
            root = (root - 1) // 2
        below.setdefault(root, []).append(k)
    return decomposition.SubgraphPartition(tree, [top] + [below[v] for v in sorted(below)])


def option_two(n_parts: int) -> decomposition.BatchFamily:
    """One singleton batch per part plus the full batch, uniform probabilities."""
    batches = [{i} for i in range(n_parts)] + [set(range(n_parts))]
    return decomposition.batch_family(batches, [1.0 / len(batches)] * len(batches), n_parts)


def check_problem(problem: Problem, seed: int) -> None:
    """Generation-time invariants: A1 coverage, unbiased weights, exact vertex conditions."""
    report = decomposition.check_assumption_A1(problem.partition, problem.family.batches)
    if not report.holds:
        raise GenerationError(f"A1 fails at interior vertices {report.violations[:5]}")
    key = int(rng(seed, STREAM_POINTS).integers(2**63))
    points = decomposition.sample_interior_points(problem.graph, UNBIASED_POINTS, seed=key)
    coeffs = problem.coeffs
    for name, psi in (
        ("1", lambda e, x: np.ones_like(x)),
        ("a", coeffs.a),
        ("b", coeffs.b),
        ("p", coeffs.p),
    ):
        dev = decomposition.verify_unbiased(problem.partition, problem.family, psi, points)
        if not dev <= UNBIASED_TOL:
            raise GenerationError(f"batch weights biased for psi={name}: deviation {dev:.3e}")
    for name, value in (
        ("continuity", problem.solution.continuity_residual()),
        ("kirchhoff", problem.solution.kirchhoff_residual()),
    ):
        if not value <= RESIDUAL_TOL:
            raise GenerationError(f"manufactured solution {name} residual {value:.3e}")


def demo_problem(seed: int, nodes_per_edge: int) -> Problem:
    demo = graph.demo_graph()
    partition = decomposition.demo_partition(demo)
    solution = manufactured.demo_solution(demo)
    problem = Problem(
        demo,
        partition,
        option_two(partition.n_parts),
        solution,
        manufactured.derive_data(solution),
        Mesh(nodes_per_edge),
    )
    check_problem(problem, seed)
    return problem


def tree_problem(seed: int, depth: int, cut: int, nodes_per_edge: int) -> Problem:
    """The tree problem; ``seed`` only picks the points of the unbiasedness check."""
    tree = binary_tree(depth)
    partition = subtree_partition(tree, cut)
    leading = rng(TREE_COEFFICIENT_SEED, STREAM_COEFFICIENTS).uniform(
        -LEADING_RANGE, LEADING_RANGE, size=(2, tree.n_edges)
    )
    solution = manufactured.build_solution(tree, leading[0], leading[1])
    problem = Problem(
        tree,
        partition,
        option_two(partition.n_parts),
        solution,
        manufactured.derive_data(solution),
        Mesh(nodes_per_edge),
    )
    check_problem(problem, seed)
    return problem


def covering_schedule(n_windows: int, n_batches: int) -> engine.SampledSchedule:
    """Batches in turn, so every batch runs n_windows // n_batches or one more times."""
    if n_windows < n_batches:
        raise GenerationError(f"{n_windows} windows cannot visit {n_batches} batches")
    return engine.SampledSchedule(omegas=np.arange(n_windows) % n_batches, seed=-1)


def balanced_schedule(seed: int, n_windows: int, n_batches: int, *stream: int):
    """The covering schedule in a seeded random order.

    Every realization then does the same work in a different order, so its
    cost does not depend on how many windows happened to draw the full batch.
    """
    omegas = covering_schedule(n_windows, n_batches).omegas
    order = rng(seed, STREAM_SCHEDULES, *stream).permutation(n_windows)
    return engine.SampledSchedule(omegas=omegas[order], seed=int(seed))
