import numpy as np
import pytest

import graphrbm as g
from graphrbm.decomposition import (
    DecompositionError,
    batch_view,
    batches_from_dict,
    sample_interior_points,
)


def V(demo, *names):
    lookup = {demo.vertex_name(v): v for v in range(demo.n_vertices)}
    return frozenset(lookup[n] for n in names)


# vertex classification per batch, derived from the decomposition rules;
# columns: vertices, interior, boundary, interface
OPTION1_TABLE = [
    (("v1", "v2", "v3", "v4"), ("v3",), ("v1", "v2", "v4"), ("v4",)),
    (("v4", "v5", "v7"), ("v5",), ("v4", "v7"), ("v4", "v7")),
    (("v4", "v6", "v7"), ("v6",), ("v4", "v7"), ("v4", "v7")),
    (("v7", "v8", "v9", "v10"), ("v8",), ("v7", "v9", "v10"), ("v7",)),
    (("v1", "v2", "v3", "v4", "v5", "v6", "v7"), ("v3", "v4", "v5", "v6"), ("v1", "v2", "v7"), ("v7",)),
    (("v4", "v5", "v6", "v7", "v8", "v9", "v10"), ("v5", "v6", "v7", "v8"), ("v4", "v9", "v10"), ("v4",)),
]


def test_partition_valid(demo, partition):
    assert partition.n_parts == 4
    assert sum(len(p) for p in partition.parts) == demo.n_edges
    for i, p in enumerate(partition.parts):
        for q in partition.parts[i + 1 :]:
            assert not (p & q)
    # fully covered interior vertices per part: the two stars and the two paths
    singletons = [{0}, {1}, {2}, {3}]
    names = [
        {demo.vertex_name(v) for v in batch_view(partition, singletons, i).interior}
        for i in range(4)
    ]
    assert names == [{"v3"}, {"v5"}, {"v6"}, {"v8"}]


def test_partition_overlap_rejected(demo):
    with pytest.raises(DecompositionError, match="edge e2 appears in parts 1 and 2"):
        g.SubgraphPartition(demo, [{0, 1}, {1, 2}, {3, 4, 5, 6, 7, 8, 9}])


def test_partition_uncovered_rejected(demo):
    with pytest.raises(DecompositionError, match=r"edges not covered by any part: \['e10'\]"):
        g.SubgraphPartition(demo, [{0, 1, 2}, {3, 4}, {5, 6}, {7, 8}])


def test_partition_takes_integer_edge_ids_only(demo):
    # int() would truncate 9.7 to edge 9
    with pytest.raises(DecompositionError, match="part 4 holds 9.7, not an integer id"):
        g.SubgraphPartition(demo, [{0, 1, 2}, {3, 4}, {5, 6}, {7, 8, 9.7}])
    parts = [np.arange(3), np.array([3, 4]), [np.int32(5), 6], range(7, 10)]
    assert g.SubgraphPartition(demo, parts).parts == g.demo_partition(demo).parts


def test_batch_family_takes_integer_part_ids_only():
    with pytest.raises(DecompositionError, match="batch 2 holds 1.9, not an integer id"):
        g.batch_family([{0}, {1.9}], [0.5, 0.5], 2)
    assert g.batch_family([{np.int64(0)}, {1}], [0.5, 0.5], 2).batches == (frozenset({0}), frozenset({1}))


def test_batch_family_rejects_an_empty_batch_and_an_unknown_part():
    with pytest.raises(DecompositionError, match="batch 2 is empty"):
        g.batch_family([{0}, set()], [0.5, 0.5], 1)
    # part ids are 0-based in the library and printed 1-based, as in the batch file
    with pytest.raises(DecompositionError, match="batch 1 references unknown part 3"):
        g.batch_family([{0, 2}, {1}], [0.5, 0.5], 2)


def test_batch_view_takes_integer_part_ids_only(partition):
    with pytest.raises(DecompositionError, match="batch 2 holds 1.5, not an integer id"):
        batch_view(partition, [{0}, {1.5}], 1)
    assert batch_view(partition, [{0}, {np.int64(1)}], 1).active_edges == partition.parts[1]


def test_partition_empty_part_rejected(demo):
    with pytest.raises(DecompositionError):
        g.SubgraphPartition(demo, [set(), set(range(10))])
    with pytest.raises(DecompositionError, match="partition needs at least one part"):
        g.SubgraphPartition(demo, [])


def test_batch_views_option1_table(demo, partition, option1):
    for j, (verts, interior, boundary, interface) in enumerate(OPTION1_TABLE):
        view = batch_view(partition, option1.batches, j)
        assert view.vertices == V(demo, *verts), f"batch {j + 1} vertices"
        assert view.interior == V(demo, *interior), f"batch {j + 1} interior"
        assert view.interface | view.exterior_boundary == V(demo, *boundary), f"batch {j + 1} boundary"
        assert view.interface == V(demo, *interface), f"batch {j + 1} interface"
        assert view.exterior_boundary == V(demo, *boundary) & demo.boundary_vertices
        # the three classes partition the batch's vertex set
        assert view.interior | view.interface | view.exterior_boundary == view.vertices
        assert not (view.interior & (view.interface | view.exterior_boundary))


def test_batch_view_full_batch_recovers_graph(demo, partition, option2):
    view = batch_view(partition, option2.batches, 4)  # all four parts
    assert view.interior == demo.interior_vertices
    assert view.interface | view.exterior_boundary == demo.boundary_vertices
    assert view.interface == frozenset()


def test_batch_view_bad_index(partition, option1):
    with pytest.raises(DecompositionError, match=r"batch index 6 out of range \[0, 6\)"):
        batch_view(partition, option1.batches, 6)
    with pytest.raises(DecompositionError, match=r"batch 1 references unknown parts \[9\]"):
        batch_view(partition, [(0, 9)], 0)


def test_a1_option1(demo, partition, option1):
    report = g.check_assumption_A1(partition, option1.batches)
    assert report.holds and not report.violations
    # v4 is first interior to batch 5, v7 to batch 6 (0-based 4 and 5)
    v4, v7 = next(iter(V(demo, "v4"))), next(iter(V(demo, "v7")))
    assert report.witnesses[v4] == 4
    assert report.witnesses[v7] == 5


def test_a1_option2(demo, partition, option2):
    report = g.check_assumption_A1(partition, option2.batches)
    assert report.holds
    v4, v7 = next(iter(V(demo, "v4"))), next(iter(V(demo, "v7")))
    assert report.witnesses[v4] == 4 and report.witnesses[v7] == 4


def test_a1_singletons_fail(demo, partition):
    report = g.check_assumption_A1(partition, [{0}, {1}, {2}, {3}])
    assert not report.holds
    assert {demo.vertex_name(v) for v in report.violations} == {"v4", "v7"}


def test_normalizers_option1(option1):
    assert np.allclose(option1.normalizers, [1 / 3, 1 / 2, 1 / 2, 1 / 3], rtol=1e-12)


def test_normalizers_option2(option2):
    assert np.allclose(option2.normalizers, [0.4, 0.4, 0.4, 0.4], rtol=1e-12)


def test_normalizers_single_batch(single_batch):
    assert np.allclose(single_batch.normalizers, 1.0, rtol=1e-15)


def test_probability_vector_rejected():
    with pytest.raises(DecompositionError, match="6 probabilities for 1 batches"):
        g.batch_family([{0}], [0.1666] * 6, 1)  # wrong length
    with pytest.raises(DecompositionError, match=r"probabilities sum to 0\.9995999999999999, not 1"):
        g.batch_family([{0}] * 6, [0.1666] * 6, 1)  # sums to 0.9996
    with pytest.raises(DecompositionError, match="probabilities must be strictly positive finite numbers"):
        g.batch_family([{0}, {0}], [1.5, -0.5], 1)


def test_probability_vector_renormalized():
    probs = [1.0 / 6.0] * 6  # float sum differs from 1 by ~1e-16
    family = g.batch_family([{0}, {1}, {2}, {3}, {0, 1, 2}, {1, 2, 3}], probs, 4)
    assert abs(family.probs.sum() - 1.0) < 1e-15


def test_zero_normalizer_rejected():
    with pytest.raises(DecompositionError, match=r"parts never selected by any batch: \[3\]"):
        g.batch_family([{0}, {1}], [0.5, 0.5], 3)  # part 3 never selected


def test_zeta_option1_batch5(demo, partition, option1):
    w = g.zeta_weights(partition, option1, 4)
    assert np.allclose(w, [3, 3, 3, 2, 2, 2, 2, 0, 0, 0], rtol=1e-12)
    assert batch_view(partition, option1.batches, 4).interface == V(demo, "v7")


def test_zeta_option2_batch1(demo, partition, option2):
    w = g.zeta_weights(partition, option2, 0)
    assert np.allclose(w[:3], 2.5, rtol=1e-12)
    assert np.all(w[3:] == 0.0)
    assert batch_view(partition, option2.batches, 0).interface == V(demo, "v4")


def test_zeta_single_batch(demo, partition, single_batch):
    w = g.zeta_weights(partition, single_batch, 0)
    assert np.allclose(w, 1.0, rtol=1e-15)
    assert batch_view(partition, single_batch.batches, 0).interface == frozenset()


def test_zeta_edge_support(partition, option1):
    w = g.zeta_weights(partition, option1, 0)
    assert set(np.flatnonzero(w)) == {0, 1, 2}
    assert np.all(w[3:] == 0.0)
    with pytest.raises(DecompositionError, match=r"batch index 9 out of range \[0, 6\)"):
        g.zeta_weights(partition, option1, 9)


def test_family_of_another_part_count_is_a_decomposition_error(demo, solution, problem):
    five = g.SubgraphPartition(demo, [{0, 1, 2}, {3, 4}, {5, 6}, {7, 8}, {9}])
    family = g.batch_option_two()
    message = "the batch family has 4 parts, the partition 5"
    config = g.RbmConfig(h=0.05, dt=0.05, t_final=0.1, scheme=g.IMPLICIT_EULER, seed=0)
    with pytest.raises(DecompositionError, match=message):
        g.run_rbm(demo, five, family, g.Mesh(3), problem, config)
    with pytest.raises(DecompositionError, match=message):
        g.lambda_profile(solution, problem, five, family, np.linspace(0.0, 1.0, 5))
    with pytest.raises(DecompositionError, match=message):
        g.verify_unbiased(five, family, lambda e, x: np.ones_like(x), [(0, 0.5)])


@pytest.mark.parametrize("family_name", ["option1", "option2"])
def test_unbiasedness(demo, partition, family_name, request, problem):
    family = request.getfixturevalue(family_name)
    points = sample_interior_points(demo, 100, seed=7)
    for psi in (lambda e, x: np.ones_like(x), problem.a, problem.b, problem.p):
        assert g.verify_unbiased(partition, family, psi, points) <= 1e-14


def test_unbiasedness_specific_point(demo, partition, option2, problem):
    dev = g.verify_unbiased(partition, option2, problem.a, [(4, 0.37)])
    assert dev <= 1e-14


def test_unbiased_single_batch_exact(demo, partition, single_batch):
    points = sample_interior_points(demo, 25, seed=3)
    psi = lambda e, x: np.full_like(x, 2.75)
    assert g.verify_unbiased(partition, single_batch, psi, points) == 0.0


def test_batches_from_dict(demo):
    data = {
        "parts": [["e1", "e2", "e3"], ["e4", "e5"], ["e6", "e7"], ["e8", "e9", "e10"]],
        "batches": [[1], [2], [3], [4], [1, 2, 3, 4]],
        "probs": [0.2, 0.2, 0.2, 0.2, 0.2],
    }
    partition, family = batches_from_dict(data, demo)
    assert partition.n_parts == 4
    assert family.batches[4] == frozenset({0, 1, 2, 3})
    assert np.allclose(family.normalizers, 0.4)


def test_batches_from_dict_unknown_edge(demo):
    data = {"parts": [["nope"]], "batches": [[1]], "probs": [1.0]}
    with pytest.raises(DecompositionError):
        batches_from_dict(data, demo)


def test_batches_from_dict_names_edges_by_index_on_an_unnamed_graph():
    path = g.build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], {0, 3})
    assert path.edge_names is None
    data = {"parts": [["0", "1"], ["2"]], "batches": [[1], [2], [1, 2]], "probs": [0.25, 0.25, 0.5]}
    partition, family = batches_from_dict(data, path)
    assert partition.parts == (frozenset({0, 1}), frozenset({2}))
    assert family.normalizers.tolist() == [0.75, 0.75]
    with pytest.raises(DecompositionError, match="part 1 references unknown edge 'e1'"):
        batches_from_dict({**data, "parts": [["e1", "1"], ["2"]]}, path)


def test_sample_point_count_and_seed_must_be_integers(demo):
    # int() would truncate: a seed of 1.7 drew seed 1's points, a count of 2.5 two points
    with pytest.raises(DecompositionError, match="seed must be an integer, not 1.7"):
        sample_interior_points(demo, 2, seed=1.7)
    with pytest.raises(DecompositionError, match="the sample point count must be an integer, not 2.5"):
        sample_interior_points(demo, 2.5)
    assert sample_interior_points(demo, np.int64(2), seed=np.uint8(1)) == sample_interior_points(demo, 2, seed=1)
