"""Label-only features, EdgeRand, LapGraph, and defended query routing."""

import itertools
import math

import numpy as np
import pytest
from gnn_oracles import khop_query
from graph_oracles import (
    adjacency_matrix,
    edge_rand_oracle,
    lap_graph_edge_estimate_oracle,
    lap_graph_oracle,
    raw_graphs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from linklab.attacks import attack_dataset_inputs, spec_for
from linklab.defenses import (
    DefenseConfig,
    edge_rand,
    label_only_feature,
    lap_graph,
    lap_graph_edge_estimate,
    perturb_graph,
    query_temperature,
)
from linklab.data import generate_planted_partition, make_splits
from linklab.features import PosteriorTable
from linklab.gnn import train_gnn
from linklab.graph import Graph, upper_cells


class TestDefenseConfig:
    def test_dp_needs_epsilon(self):
        with pytest.raises(ValueError):
            DefenseConfig(kind="edge_rand")
        with pytest.raises(ValueError):
            DefenseConfig(kind="lap_graph", epsilon=-1.0)

    def test_soft_needs_positive_temperature(self):
        with pytest.raises(ValueError):
            DefenseConfig(kind="soft_posterior", temperature=0.0)

    def test_budget_split_range(self):
        with pytest.raises(ValueError):
            DefenseConfig(kind="lap_graph", epsilon=1.0, budget_split=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DefenseConfig(kind="noise")


class TestLabelOnlyFeature:
    def test_same_label(self):
        np.testing.assert_array_equal(label_only_feature(1, 1, 3), [0.0, 2.0, 0.0])

    def test_distinct_labels(self):
        np.testing.assert_array_equal(label_only_feature(0, 2, 3), [1.0, 0.0, 1.0])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            label_only_feature(3, 0, 3)

    def test_order_invariant_exhaustive(self):
        for a, b in itertools.product(range(5), repeat=2):
            np.testing.assert_array_equal(
                label_only_feature(a, b, 5), label_only_feature(b, a, 5)
            )


def random_graph(rng, n, p):
    """The graph on the upper cells of an ``n x n`` draw at density ``p``."""
    adj = rng.random((n, n)) < p
    return Graph(num_nodes=n, edges=np.argwhere(np.triu(adj, k=1)),
                 features=np.zeros((n, 1)), labels=np.zeros(n, dtype=np.int64))


def empty_graph(n):
    return Graph(num_nodes=n, edges=[], features=np.zeros((n, 1)),
                 labels=np.zeros(n, dtype=np.int64))


def flipped_cells(out, g):
    return int((upper_cells(out) ^ upper_cells(g)).sum())


BAD_EPSILONS = (float("nan"), float("inf"), 0.0, -1.0)


class TestEdgeRand:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            edge_rand(empty_graph(3), 0.0, seed=0)

    @pytest.mark.parametrize("epsilon", BAD_EPSILONS)
    def test_rejects_non_finite_or_non_positive_epsilon(self, epsilon):
        g = random_graph(np.random.default_rng(8), 60, 0.1)
        with pytest.raises(ValueError, match=rf"epsilon must be finite and positive, got {epsilon}"):
            edge_rand(g, epsilon, seed=0)

    def test_large_epsilon_rarely_flips(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 142, 0.1)  # ~10^4 upper cells
        out = edge_rand(g, 20.0, seed=1)
        assert flipped_cells(out, g) < 2  # expected < 1 at eps = 20

    def test_ln3_flip_probability_half(self):
        assert 2.0 / (math.exp(math.log(3.0)) + 1.0) == pytest.approx(0.5)
        rng = np.random.default_rng(1)
        g = random_graph(rng, 450, 0.05)
        out = edge_rand(g, math.log(3.0), seed=2)
        rate = flipped_cells(out, g) / (450 * 449 / 2)
        assert abs(rate - 0.5) < 0.01

    def test_empirical_flip_rate(self):
        n = 450  # ~10^5 upper cells
        rng = np.random.default_rng(2)
        g = random_graph(rng, n, 0.02)
        out = edge_rand(g, 2.0, seed=3)
        cells = n * (n - 1) / 2
        rate = flipped_cells(out, g) / cells
        expected = 2.0 / (math.exp(2.0) + 1.0)
        assert abs(rate - expected) < 0.005

    def test_output_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 30, 0.2)
        looped = Graph(num_nodes=30, edges=np.concatenate([g.edges, [[v, v] for v in range(30)]]),
                       features=g.features, labels=g.labels)
        out = edge_rand(looped, 1.0, seed=4)
        assert (out.edges[:, 0] < out.edges[:, 1]).all()
        np.testing.assert_array_equal(out.edges, edge_rand(g, 1.0, seed=4).edges)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 25, 0.2)
        assert np.array_equal(edge_rand(g, 1.5, seed=7).edges, edge_rand(g, 1.5, seed=7).edges)


class TestLapGraph:
    def test_edge_count_equals_estimate(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 30, 0.15)
        for eps in (1.0, 2.0, 5.0, 10.0):
            for seed in (0, 1, 2):
                out = lap_graph(g, eps, 0.01, seed=seed)
                estimate = lap_graph_edge_estimate(g, eps, 0.01, seed=seed)
                assert out.num_edges == estimate
                assert (out.edges[:, 0] < out.edges[:, 1]).all()

    def test_huge_epsilon_recovers_input(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 25, 0.2)
        out = lap_graph(g, 1e6, 0.5, seed=3)
        np.testing.assert_array_equal(out.edges, g.edges)

    def test_empty_graph_large_epsilon_stays_empty(self):
        out = lap_graph(empty_graph(20), 1e5, 0.5, seed=1)
        assert out.num_edges == 0

    def test_estimate_tail_behavior(self):
        """round(|E| + Laplace(1/eps1)) lands within 3 scale units >= 95% of the time."""
        rng = np.random.default_rng(7)
        g = random_graph(rng, 30, 0.2)
        true_edges = g.num_edges
        eps, split = 5.0, 0.5
        scale = 1.0 / (split * eps)
        hits = 0
        trials = 200
        for seed in range(trials):
            estimate = lap_graph_edge_estimate(g, eps, split, seed=seed)
            if abs(estimate - true_edges) <= 3.0 * scale + 0.5:
                hits += 1
        # P(|Laplace| <= 3 scale) = 1 - e^-3 ~ 0.95
        assert hits / trials >= 0.95

    def test_rejects_bad_arguments(self):
        g = empty_graph(4)
        with pytest.raises(ValueError):
            lap_graph(g, 0.0, 0.1, seed=0)
        with pytest.raises(ValueError):
            lap_graph(g, 1.0, 0.0, seed=0)

    @pytest.mark.parametrize("epsilon", BAD_EPSILONS)
    def test_rejects_non_finite_or_non_positive_epsilon(self, epsilon):
        g = random_graph(np.random.default_rng(9), 60, 0.1)
        with pytest.raises(ValueError, match=rf"epsilon must be finite and positive, got {epsilon}"):
            lap_graph(g, epsilon, 0.01, seed=0)


class TestDenseOracles:
    """The cell-id mechanisms against the dense-matrix ones they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(raw_graphs(), st.sampled_from([0.1, 1.0, 2.0, 5.0]), st.integers(0, 3),
           st.sampled_from([0.01, 0.5]))
    def test_bitwise_equal_dense_mechanisms(self, drawn, epsilon, seed, split):
        n, raw = drawn
        g = Graph(num_nodes=n, edges=raw, features=np.zeros((n, 1)),
                  labels=np.zeros(n, dtype=np.int64))
        adj = adjacency_matrix(g)
        cases = (
            (edge_rand(g, epsilon, seed), edge_rand_oracle(adj, epsilon, seed),
             DefenseConfig(kind="edge_rand", epsilon=epsilon)),
            (lap_graph(g, epsilon, split, seed), lap_graph_oracle(adj, epsilon, split, seed),
             DefenseConfig(kind="lap_graph", epsilon=epsilon, budget_split=split)),
        )
        for out, dense, defense in cases:
            expected = np.argwhere(np.triu(dense))
            assert out.edges.dtype == expected.dtype
            np.testing.assert_array_equal(out.edges, expected)
            np.testing.assert_array_equal(perturb_graph(g, defense, seed).edges, expected)
            assert out.features is g.features and out.labels is g.labels
        assert (lap_graph_edge_estimate(g, epsilon, split, seed)
                == lap_graph_edge_estimate_oracle(adj, epsilon, split, seed))


@pytest.fixture(scope="module")
def defended_setup():
    g = generate_planted_partition(140, 3, 0.15, 0.01, 10, 1.0, seed=31)
    bundle = make_splits(g, 6)
    model = train_gnn(bundle.target_train, "gcn", seed=4, num_classes=g.num_classes, epochs=50)
    return g, bundle, model


class TestApplyDefendedQuery:
    """The defended output channels, answered from a PosteriorTable."""

    def _pair(self, bundle):
        graph = bundle.target_train
        u, v = graph.edges[0].tolist()
        return graph, u, v

    def _features(self, model, graph, u, v, defense):
        table = PosteriorTable(model, graph, query_temperature(defense))
        return attack_dataset_inputs(spec_for("a1"), table, graph, [(u, v)],
                                     defense=defense)["posterior"][0]

    def test_none_matches_khop_query(self, defended_setup):
        _, bundle, model = defended_setup
        graph, u, v = self._pair(bundle)
        table = PosteriorTable(model, graph, query_temperature(None))
        for c, (post,) in zip((u, v), table.pair_posteriors(np.array([(u, v)]), 1)):
            # the table's batched pass sums in another order than khop_query
            np.testing.assert_allclose(post, khop_query(model, graph, c, 1, exclude=(u, v)),
                                       rtol=0, atol=1e-12)

    def test_soft_temperature_one_is_identity(self, defended_setup):
        _, bundle, model = defended_setup
        graph, u, v = self._pair(bundle)
        soft = DefenseConfig(kind="soft_posterior", temperature=1.0)
        assert query_temperature(soft) == 1.0
        np.testing.assert_array_equal(self._features(model, graph, u, v, soft),
                                      self._features(model, graph, u, v, None))

    def test_soft_posterior_argmax_unchanged(self, defended_setup):
        _, bundle, model = defended_setup
        graph = bundle.target_train
        for v in range(0, graph.num_nodes, 19):
            base = int(np.argmax(khop_query(model, graph, v, 1)))
            for t in (2.0, 20.0, 200.0):
                assert int(np.argmax(khop_query(model, graph, v, 1, temperature=t))) == base

    def test_label_only_support_size(self, defended_setup):
        _, bundle, model = defended_setup
        graph = bundle.target_train
        cfg = DefenseConfig(kind="label_only")
        rng = np.random.default_rng(12)
        for _ in range(25):
            u, v = rng.choice(graph.num_nodes, size=2, replace=False)
            feature = self._features(model, graph, int(u), int(v), cfg)
            nonzero = np.count_nonzero(feature)
            assert nonzero in (1, 2)
            assert feature.sum() == 2.0

    def test_dp_kinds_leave_queries_unchanged(self, defended_setup):
        _, bundle, model = defended_setup
        graph, u, v = self._pair(bundle)
        dp = DefenseConfig(kind="edge_rand", epsilon=2.0)
        assert query_temperature(dp) == 1.0
        np.testing.assert_array_equal(self._features(model, graph, u, v, dp),
                                      self._features(model, graph, u, v, None))


class TestPerturbGraph:
    def test_non_dp_kinds_identity(self, defended_setup):
        g, bundle, _ = defended_setup
        graph = bundle.target_train
        assert perturb_graph(graph, DefenseConfig(kind="none"), seed=0) is graph
        assert perturb_graph(graph, DefenseConfig(kind="label_only"), seed=0) is graph

    def test_dp_kind_preserves_features_labels(self, defended_setup):
        g, bundle, _ = defended_setup
        graph = bundle.target_train
        out = perturb_graph(graph, DefenseConfig(kind="edge_rand", epsilon=2.0), seed=5)
        np.testing.assert_array_equal(out.features, graph.features)
        np.testing.assert_array_equal(out.labels, graph.labels)
        assert out.num_nodes == graph.num_nodes
        assert flipped_cells(out, graph) > 0
