"""Pairwise operations, feature blocks, and their symmetry guarantees."""

import math

import numpy as np
import pytest
from graph_oracles import adjacency_sets, proximity_oracle, raw_graphs
from hypothesis import given, settings

from linklab.attacks import attack_dataset_inputs, spec_for
from linklab.data import generate_planted_partition, make_splits
from linklab.features import (
    PosteriorTable,
    correlation_distance,
    entropy,
    export_features_csv,
    graph_block,
    js_divergence,
    node_attr_block,
    pairwise_concat,
    pairwise_ops,
    posterior_block_names,
    proximity_counts,
    transfer_block,
)
from linklab.gnn import train_gnn
from linklab.graph import Graph, neighbors


def make_graph(n, edges, d=4):
    rng = np.random.default_rng(0)
    return Graph(num_nodes=n, edges=list(edges),
                 features=rng.normal(size=(n, d)), labels=np.zeros(n, dtype=int))


class TestPairwiseOps:
    def test_identical_inputs_zero_differences(self):
        a = np.array([0.2, 0.5, 0.3])
        had, avg, l1, l2 = pairwise_ops(a, a)
        np.testing.assert_array_equal(l1, 0.0)
        np.testing.assert_array_equal(l2, 0.0)
        np.testing.assert_array_equal(avg, a)

    def test_hand_arithmetic(self):
        had, avg, l1, l2 = pairwise_ops(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert had.tolist() == [3.0, 8.0]
        assert avg.tolist() == [2.0, 3.0]
        assert l1.tolist() == [2.0, 2.0]
        assert l2.tolist() == [4.0, 4.0]

    def test_commutative_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.normal(size=7)
            b = rng.normal(size=7)
            fwd = pairwise_concat(a, b)
            rev = pairwise_concat(b, a)
            assert np.array_equal(fwd, rev)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_ops(np.zeros(3), np.zeros(4))

    def test_single_op_selection(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        np.testing.assert_array_equal(pairwise_concat(a, b, "hadamard"), [3.0, 8.0])
        with pytest.raises(ValueError):
            pairwise_concat(a, b, "median")


class TestNodeAttrBlock:
    def test_orthogonal_support_zero(self):
        a = np.array([1.0, 0.0, 2.0, 0.0])
        b = np.array([0.0, 3.0, 0.0, 4.0])
        np.testing.assert_array_equal(node_attr_block(a, b), 0.0)

    def test_self_pair_squares(self):
        a = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(node_attr_block(a, a), a * a)

    def test_order_invariant(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=9)
        b = rng.normal(size=9)
        assert np.array_equal(node_attr_block(a, b), node_attr_block(b, a))


class TestGraphBlock:
    def test_shared_single_neighbor(self):
        g = make_graph(3, [(0, 2), (1, 2)])
        np.testing.assert_array_equal(graph_block(g, [(0, 1)]), [[1.0, 1.0, 1.0]])

    def test_disjoint_neighborhoods(self):
        g = make_graph(7, [(0, 2), (0, 3), (1, 4), (1, 5), (1, 6)])
        np.testing.assert_array_equal(graph_block(g, [(0, 1)]), [[0.0, 0.0, 6.0]])

    def test_baseline_context_allowed(self):
        g = make_graph(3, [(0, 2), (1, 2)])
        feats = attack_dataset_inputs(spec_for("b1"), None, g, [(0, 1)])
        np.testing.assert_array_equal(feats["graph"], [[1.0, 1.0, 1.0]])

    def test_matches_set_algebra_oracle(self):
        rng = np.random.default_rng(9)
        edges = [(u, v) for u in range(40) for v in range(u + 1, 40) if rng.random() < 0.15]
        g = make_graph(40, edges)
        pairs = np.array([rng.choice(40, size=2, replace=False) for _ in range(50)])
        for (u, v), got in zip(pairs.tolist(), graph_block(g, pairs)):
            nu = {w for w in neighbors(g, u).tolist() if w not in (u, v)}
            nv = {w for w in neighbors(g, v).tolist() if w not in (u, v)}
            cn = len(nu & nv)
            union = len(nu | nv)
            expected = [float(cn), cn / union if union else 0.0, float(len(nu) * len(nv))]
            np.testing.assert_array_equal(got, expected)

    def test_never_observes_attacked_edge(self):
        base_edges = [(0, 2), (1, 2), (0, 3)]
        g_without = make_graph(5, base_edges)
        g_with = make_graph(5, base_edges + [(0, 1)])
        b1 = graph_block(g_without, [(0, 1)])
        b2 = graph_block(g_with, [(1, 0)])
        np.testing.assert_array_equal(b1, b2)

    def test_bounds(self):
        rng = np.random.default_rng(12)
        edges = [(u, v) for u in range(25) for v in range(u + 1, 25) if rng.random() < 0.2]
        g = make_graph(25, edges)
        pairs = np.array([rng.choice(25, size=2, replace=False) for _ in range(40)])
        for (u, v), cn, jac, pa in zip(pairs.tolist(), *proximity_counts(g, pairs)):
            nu = {w for w in neighbors(g, u).tolist() if w not in (u, v)}
            nv = {w for w in neighbors(g, v).tolist() if w not in (u, v)}
            assert 0.0 <= jac <= 1.0
            assert cn <= min(len(nu), len(nv))
            assert pa == len(nu) * len(nv)

    @settings(max_examples=80, deadline=None)
    @given(raw_graphs())
    def test_batched_counts_bitwise_equal_per_pair_oracle(self, drawn):
        n, raw = drawn
        g = make_graph(n, raw)
        adj = adjacency_sets(g)
        pairs = np.array([(u, v) for u in range(n) for v in range(n)], dtype=np.int64).reshape(-1, 2)
        cn, jac, pa = proximity_counts(g, pairs)
        assert (cn.dtype, jac.dtype, pa.dtype) == (np.int64, np.float64, np.int64)
        expected = [proximity_oracle(adj, u, v) for u, v in pairs.tolist()]
        assert cn.tolist() == [e[0] for e in expected]
        assert jac.tobytes() == np.array([e[1] for e in expected], dtype=np.float64).tobytes()
        assert pa.tolist() == [e[2] for e in expected]
        block = graph_block(g, pairs)
        assert block.dtype == np.float64
        np.testing.assert_array_equal(block, np.array(expected, dtype=np.float64).reshape(-1, 3))


class TestTransferBlock:
    def test_identical_posteriors(self):
        p = np.array([0.2, 0.3, 0.5])
        block = transfer_block(p, p)
        # entropy L1/L2 parts zero, cosine 1, JSD 0, correlation distance 0
        assert block[2] == 0.0 and block[3] == 0.0
        assert block[4] == pytest.approx(1.0, abs=1e-12)
        assert block[5] == pytest.approx(0.0, abs=1e-12)
        assert block[6] == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_closed_forms(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        block = transfer_block(p, q)
        np.testing.assert_allclose(block[:4], [0.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert block[4] == pytest.approx(0.0, abs=1e-12)
        assert block[5] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_length_seven_and_symmetric(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            fwd = transfer_block(p, q)
            rev = transfer_block(q, p)
            assert fwd.shape == (7,)
            assert np.array_equal(fwd, rev)

    def test_jsd_bounded_and_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            d = js_divergence(p, q)
            assert d == js_divergence(q, p)
            assert -1e-12 <= d <= math.log(2.0) + 1e-12

    def test_mixed_class_counts_padded(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.25, 0.25, 0.25])
        block = transfer_block(p, q)
        assert block.shape == (7,)
        assert np.isfinite(block).all()

    def test_entropy_values(self):
        assert entropy(np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
        assert entropy(np.full(4, 0.25)) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_correlation_distance_degenerate(self):
        assert correlation_distance(np.array([0.5, 0.5]), np.array([0.9, 0.1])) == 0.0

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            transfer_block(np.array([0.9, 0.3]), np.array([0.5, 0.5]))


@pytest.fixture(scope="module")
def trained():
    g = generate_planted_partition(120, 3, 0.2, 0.02, 8, 1.0, seed=17)
    bundle = make_splits(g, 5)
    model = train_gnn(bundle.shadow_train, "gcn", seed=2, num_classes=g.num_classes, epochs=40)
    return bundle.shadow_train, model


def posterior_feature(model, graph, u, v, attack_id):
    """The posterior block of one pair as the attack assembles it, from a fresh table."""
    table = PosteriorTable(model, graph)
    return attack_dataset_inputs(spec_for(attack_id), table, graph, [(u, v)])["posterior"][0]


class TestPosteriorBlock:
    def test_block_length_four_times_classes(self, trained):
        graph, model = trained
        u, v = graph.edges[0].tolist()
        block = posterior_feature(model, graph, u, v, "a1")
        assert block.shape == (4 * model.num_classes,)

    def test_swap_invariance(self, trained):
        graph, model = trained
        u, v = graph.edges[3].tolist()
        fwd = posterior_feature(model, graph, u, v, "a1")
        rev = posterior_feature(model, graph, v, u, "a1")
        assert np.array_equal(fwd, rev)

    def test_identical_posteriors_zero_difference_parts(self, trained):
        graph, model = trained
        c = model.num_classes
        # same attribute row twice means identical 0-hop posteriors
        g2 = Graph(num_nodes=graph.num_nodes, edges=graph.edges,
                   features=np.vstack([graph.features[:-1], graph.features[:1]]),
                   labels=graph.labels)
        block = posterior_feature(model, g2, 0, g2.num_nodes - 1, "a0")
        np.testing.assert_allclose(block[2 * c:], 0.0, atol=1e-12)


class TestCsvExport:
    def test_header_and_shape(self, tmp_path):
        path = str(tmp_path / "features.csv")
        cols = posterior_block_names(2)
        mat = np.arange(16, dtype=float).reshape(2, 8)
        export_features_csv(path, cols, mat)
        lines = open(path).read().strip().split("\n")
        assert lines[0].split(",") == cols
        assert len(lines) == 3

    def test_rejects_width_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            export_features_csv(str(tmp_path / "x.csv"), ["a"], np.zeros((2, 2)))
