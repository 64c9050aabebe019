"""Pairwise operations, feature blocks, and their symmetry guarantees."""

import math

import feature_oracles
import numpy as np
import pytest
from graph_oracles import adjacency_sets, proximity_oracle, raw_graphs
from hypothesis import given, settings
from hypothesis import strategies as st

from linklab.attacks import attack_dataset_inputs, spec_for
from linklab.data import generate_planted_partition, make_splits
from linklab.features import (
    PosteriorTable,
    export_features_csv,
    graph_block,
    node_attr_block,
    pairwise_concat,
    pairwise_ops,
    posterior_block_names,
    proximity_counts,
    row_cosine,
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


@st.composite
def distribution_rows(draw, width):
    """One probability row: one-hot, uniform, or normalized weights that
    may hold exact zeros."""
    kind = draw(st.sampled_from(("one_hot", "uniform", "weights")))
    if kind == "uniform":
        return np.full(width, 1.0 / width)
    row = np.zeros(width)
    if kind == "one_hot":
        row[draw(st.integers(0, width - 1))] = 1.0
        return row
    weight = st.sampled_from((0.0, 1.0)) | st.floats(1e-6, 1.0)
    row[:] = draw(st.lists(weight, min_size=width, max_size=width))
    if row.sum() == 0.0:
        row[draw(st.integers(0, width - 1))] = 1.0
    return row / row.sum()


@st.composite
def feature_rows(draw, width):
    """An attribute row, all zeros one time in four."""
    if draw(st.integers(0, 3)) == 0:
        return np.zeros(width)
    values = st.sampled_from((0.0, 1.0, -1.0)) | st.floats(-10.0, 10.0)
    return np.array(draw(st.lists(values, min_size=width, max_size=width)))


def transfer(p, q):
    """The block of one pair."""
    return transfer_block(np.atleast_2d(p), np.atleast_2d(q))[0]


class TestTransferBlock:
    def test_identical_posteriors(self):
        p = np.array([0.2, 0.3, 0.5])
        block = transfer(p, p)
        # entropy L1/L2 parts zero, cosine 1, JSD 0, correlation distance 0
        assert block[2] == 0.0 and block[3] == 0.0
        assert block[4] == pytest.approx(1.0, abs=1e-12)
        assert block[5] == pytest.approx(0.0, abs=1e-12)
        assert block[6] == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_closed_forms(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        block = transfer(p, q)
        np.testing.assert_allclose(block[:4], [0.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert block[4] == pytest.approx(0.0, abs=1e-12)
        assert block[5] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_length_seven_and_symmetric(self):
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(5), size=50)
        q = rng.dirichlet(np.ones(5), size=50)
        fwd = transfer_block(p, q)
        assert fwd.shape == (50, 7)
        assert np.array_equal(fwd, transfer_block(q, p))

    def test_jsd_bounded_and_symmetric(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(4), size=100)
        q = rng.dirichlet(np.ones(4), size=100)
        d = transfer_block(p, q)[:, 5]
        assert np.array_equal(d, transfer_block(q, p)[:, 5])
        assert (d >= -1e-12).all() and (d <= math.log(2.0) + 1e-12).all()

    def test_width_mismatch_names_both_shapes(self):
        p = np.full((3, 2), 0.5)
        q = np.full((3, 4), 0.25)
        with pytest.raises(ValueError, match=r"\(3, 2\) and \(3, 4\)"):
            transfer_block(p, q)

    def test_entropy_values(self):
        one_hot = transfer([1.0, 0.0], [1.0, 0.0])
        assert one_hot[1] == pytest.approx(0.0, abs=1e-12)
        uniform = transfer(np.full(4, 0.25), np.full(4, 0.25))
        assert uniform[1] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_correlation_distance_degenerate(self):
        assert transfer([0.5, 0.5], [0.9, 0.1])[6] == 0.0

    def test_rejects_non_distribution(self):
        good = np.full((3, 2), 0.5)
        bad = good.copy()
        bad[1] = [0.9, 0.3]
        with pytest.raises(ValueError, match=r"posterior row 1 .*\[0\.9, 0\.3\]"):
            transfer_block(good, bad)
        with pytest.raises(ValueError, match="posterior row 1"):
            transfer_block(bad, good)
        with pytest.raises(ValueError, match="shape"):
            transfer_block(np.array([0.5, 0.5]), np.array([0.5, 0.5]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(2, 16), st.integers(1, 12))
    def test_matches_per_pair_oracle(self, data, width, m):
        post_u = np.array([data.draw(distribution_rows(width)) for _ in range(m)])
        post_v = np.array([data.draw(distribution_rows(width)) for _ in range(m)])
        expected = np.array([feature_oracles.transfer_block(pu, pv)
                             for pu, pv in zip(post_u, post_v)])
        np.testing.assert_allclose(transfer_block(post_u, post_v), expected, rtol=0, atol=1e-14)
        feats_u = np.array([data.draw(feature_rows(width)) for _ in range(m)])
        feats_v = np.array([data.draw(feature_rows(width)) for _ in range(m)])
        expected = [feature_oracles.cosine_similarity(a, b) for a, b in zip(feats_u, feats_v)]
        np.testing.assert_allclose(row_cosine(feats_u, feats_v), expected, rtol=0, atol=1e-14)


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
        mat[0, :5] = [-0.0, 1e-5, 1e16, 5e-324, 0.1 + 0.2]
        export_features_csv(path, cols, mat)
        lines = open(path).read().strip().split("\n")
        assert lines[0].split(",") == cols
        assert len(lines) == 3
        # the per-cell formatter the row-wise writer replaced
        assert lines[1:] == [",".join(repr(float(x)) for x in row) for row in mat]
        assert lines[1].startswith("-0.0,1e-05,1e+16,5e-324,0.30000000000000004,")

    def test_rejects_width_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            export_features_csv(str(tmp_path / "x.csv"), ["a"], np.zeros((2, 2)))
