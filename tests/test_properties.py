"""Solver invariants on generated graphs: trees, cycles and parallel edges.

Each example draws a graph with non-unit edge lengths, a random partition
of its edges and, for the multi-batch property, a random batch family.
Meshes and horizons are coarse so the whole module runs in seconds.
"""

import dataclasses

import numpy as np
import pytest
from conftest import reference_batch_system, reference_load
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import graphrbm as g
from graphrbm import fem
from graphrbm.decomposition import batch_view
from graphrbm.engine import RbmConfig, RbmRuntime

ALL_SCHEMES = (g.IMPLICIT_EULER, g.CRANK_NICOLSON, g.theta_method(0.75), g.SEMI_IMPLICIT)
PROPERTY_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
MESH = g.Mesh(2)
DT = 0.05

lengths = st.floats(min_value=0.3, max_value=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def graphs(draw):
    """A tree (leaves are boundary), a cycle with any boundary, or a path with doubled edges."""
    kind = draw(st.sampled_from(["tree", "cycle", "parallel"]))
    n = draw(st.integers(min_value=3, max_value=6))
    if kind == "tree":
        pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        degree = np.bincount(np.array(pairs).ravel(), minlength=n)
        boundary = set(np.flatnonzero(degree == 1).tolist())
    elif kind == "cycle":
        pairs = [(v, (v + 1) % n) for v in range(n)]
        boundary = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    else:
        pairs = [(v, v + 1) for v in range(n - 1)]
        doubled = draw(st.lists(st.integers(0, n - 2), min_size=1, max_size=n - 1, unique=True))
        pairs += [pairs[v] for v in doubled]
        boundary = {0, n - 1}
    edges = [(t, h, draw(lengths)) for t, h in pairs]
    return g.build_graph(edges, boundary)


@st.composite
def partitions(draw, graph):
    """Random labels per edge, renumbered so every part is non-empty."""
    n_parts = draw(st.integers(1, min(4, graph.n_edges)))
    n = graph.n_edges
    labels = draw(st.lists(st.integers(0, n_parts - 1), min_size=n, max_size=n))
    _, labels = np.unique(labels, return_inverse=True)
    parts = [set(np.flatnonzero(labels == i).tolist()) for i in range(labels.max() + 1)]
    return g.SubgraphPartition(graph, parts)


@st.composite
def families(draw, n_parts):
    """One to four batches with random positive weights; every part is in some batch."""
    batch_sets = st.sets(st.integers(0, n_parts - 1), min_size=1, max_size=n_parts)
    batches = draw(st.lists(batch_sets, min_size=1, max_size=4))
    missing = set(range(n_parts)) - set().union(*batches)
    if missing:
        batches.append(missing)
    n = len(batches)
    weights = np.array(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
    return g.batch_family(batches, weights / weights.sum(), n_parts)


def problem_data(graph):
    """Smooth data with convection that vanishes at vertices, so the vertex sums are zero."""
    length = np.array([edge.length for edge in graph.edges])
    vertex_scale = 1.0 + 0.1 * np.arange(graph.n_vertices)
    return g.CoefficientSet(
        a=lambda e, x: 1.0 + 0.25 * np.cos(x),
        b=lambda e, x: 0.4 * np.sin(np.pi * np.asarray(x) / length[e]),
        p=lambda e, x: 1.0 + np.sin(x),
        f=g.SeparableSource(terms=((lambda e, x: 1.0 + x, np.cos),)),
        g=lambda t: np.sin(1.0 + t) * vertex_scale,
        y0=lambda e, x: np.sin(np.pi * np.asarray(x) / length[e]),
    )


@PROPERTY_SETTINGS
@given(data=st.data())
def test_single_batch_equals_full_solve(data):
    graph = data.draw(graphs())
    partition = data.draw(partitions(graph))
    single = g.batch_family([list(range(partition.n_parts))], [1.0], partition.n_parts)
    # the one-part, one-batch family is what run_full runs, so it matches bitwise
    whole = g.SubgraphPartition(graph, [range(graph.n_edges)])
    one_batch = g.batch_family([{0}], [1.0], 1)
    coeffs = problem_data(graph)
    for scheme in ALL_SCHEMES:
        full = g.run_full(graph, MESH, coeffs, scheme, dt=DT, t_final=0.2)
        config = RbmConfig(h=2 * DT, dt=DT, t_final=0.2, scheme=scheme, seed=3)
        rbm = g.run_rbm(graph, partition, single, MESH, coeffs, config)
        for k, t in enumerate(rbm.times):
            assert np.abs(rbm.states[k] - full.state_at(t)).max() <= 1e-12, scheme.label
        rbm = g.run_rbm(graph, whole, one_batch, MESH, coeffs, config)
        for k, t in enumerate(rbm.times):
            assert np.array_equal(rbm.states[k], full.state_at(t)), scheme.label
        assert rbm.stats == full.stats, scheme.label


@pytest.mark.filterwarnings("ignore:batch family leaves interior vertices uncovered")
@PROPERTY_SETTINGS
@given(data=st.data())
def test_windows_freeze_inactive_and_interface_dofs(data):
    graph = data.draw(graphs())
    partition = data.draw(partitions(graph))
    family = data.draw(families(partition.n_parts))
    seed = data.draw(st.integers(0, 2**32))
    coeffs = problem_data(graph)
    for scheme in ALL_SCHEMES:
        config = RbmConfig(h=2 * DT, dt=DT, t_final=0.4, scheme=scheme, seed=seed)
        traj = g.run_rbm(graph, partition, family, MESH, coeffs, config)
        for k, j in enumerate(traj.schedule.omegas):
            view = batch_view(partition, family.batches, int(j))
            before, after = traj.states[k], traj.states[k + 1]
            for e in set(range(graph.n_edges)) - view.active_edges:
                dofs = traj.dofmap.edge_dofs(e)[1:-1]
                assert np.array_equal(before[dofs], after[dofs]), (scheme.label, k, e)
            for v in (set(range(graph.n_vertices)) - view.vertices) | view.interface:
                assert after[v] == before[v], (scheme.label, k, v)
            boundary = coeffs.g(traj.times[k + 1])
            for v in view.exterior_boundary:
                assert after[v] == boundary[v], (scheme.label, k, v)


def sparsity(matrix):
    """The stored positions of a matrix, row by row in column order."""
    canonical = matrix.tocsr(copy=True)
    canonical.sum_duplicates()
    canonical.sort_indices()
    return canonical.indptr.tolist(), canonical.indices.tolist()


def assert_close(got, expected, what):
    scale = np.abs(expected).max()
    assert np.abs(got - expected).max() <= 1e-13 * scale, what


@pytest.mark.filterwarnings("ignore:batch family leaves interior vertices uncovered")
@PROPERTY_SETTINGS
@given(data=st.data())
def test_batch_systems_equal_scaled_part_sums(data):
    """Every batch system against the per-edge assembly of its parts, scaled by 1/pi."""
    graph = data.draw(graphs())
    partition = data.draw(partitions(graph))
    family = data.draw(families(partition.n_parts))
    coeffs = problem_data(graph)
    runtime = RbmRuntime(graph, partition, family, MESH, coeffs)
    dofmap = runtime.dofmap
    # the same source, hidden behind a plain callable: integrated per call
    unseparated = fem.assemble(
        graph, MESH, dofmap, dataclasses.replace(coeffs, f=lambda e, x, t: coeffs.f(e, x, t))
    )
    for j in range(family.n_batches):
        system = runtime.system(j)
        constrained = np.concatenate([system.interface_dofs, system.exterior_dofs])
        expected = reference_batch_system(
            graph, partition, family, MESH, dofmap, coeffs, j, system.free, constrained
        )
        for name, want in zip(("mass", "stiffness", "lower"), expected):
            got = getattr(system, name)
            assert got.shape == want.shape, (j, name)
            # the factor nnz, and so the memory proxy, follows the pattern
            assert sparsity(got) == sparsity(want), (j, name)
            assert_close(got.toarray(), want.toarray(), (j, name))
        weights = g.zeta_weights(partition, family, j)
        unseparated_load = fem.LoadEvaluator(unseparated, weights, restrict=system.free)
        for t in (0.0, 0.37):
            want = reference_load(graph, MESH, dofmap, coeffs.f, t, weights.edge_factor)
            assert_close(system.load(t), want[system.free], (j, t))
            assert_close(unseparated_load(t), want[system.free], (j, t, "callable"))
