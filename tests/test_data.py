"""Splits, pair sampling, the synthetic generator, and manifests."""

import itertools

import numpy as np
import pytest

from linklab.data import (
    build_pair_dataset,
    bundle_from_manifest,
    generate_planted_partition,
    make_splits,
    read_split_manifest,
    write_split_manifest,
)
from linklab.graph import Graph, normalize_edge


def make_graph(n, edges, d=4, labels=None):
    rng = np.random.default_rng(1)
    labels = np.zeros(n, dtype=int) if labels is None else labels
    return Graph(num_nodes=n, edges=list(edges),
                 features=rng.normal(size=(n, d)), labels=labels)


def complete_graph(n):
    return make_graph(n, list(itertools.combinations(range(n), 2)))


class TestMakeSplits:
    def test_hundred_node_arithmetic(self):
        g = make_graph(100, [(0, 1)])
        bundle = make_splits(g, seed=0)
        assert len(bundle.target_train_ids) + len(bundle.target_test_ids) == 50
        assert len(bundle.target_train_ids) == 40
        assert len(bundle.target_test_ids) == 10
        assert len(bundle.shadow_train_ids) == 40

    def test_same_seed_identical(self):
        g = make_graph(60, [(i, i + 1) for i in range(59)])
        b1 = make_splits(g, seed=5)
        b2 = make_splits(g, seed=5)
        assert b1.split_ids() == b2.split_ids()

    def test_halves_disjoint_and_cover(self):
        g = make_graph(73, [(i, (i * 7) % 73) for i in range(1, 73)])
        bundle = make_splits(g, seed=2)
        target = set(bundle.target_train_ids) | set(bundle.target_test_ids)
        shadow = set(bundle.shadow_train_ids) | set(bundle.shadow_test_ids)
        assert target.isdisjoint(shadow)
        assert len(target) == 36
        assert len(target | shadow) == 73

    def test_complete_k20_target_train_edge_count(self):
        # K20 halves to 10 target nodes; 8 train nodes keep C(8,2) = 28 edges
        bundle = make_splits(complete_graph(20), seed=4)
        assert len(bundle.target_train_ids) == 8
        assert bundle.target_train.num_edges == 28

    def test_complete_graph_against_induced_oracle(self):
        # enumerate small complete graphs: every split keeps exactly C(m, 2) edges
        for n in (10, 12):
            g = complete_graph(n)
            bundle = make_splits(g, seed=7)
            for graph, ids in (
                (bundle.target_train, bundle.target_train_ids),
                (bundle.shadow_train, bundle.shadow_train_ids),
            ):
                m = len(ids)
                # independent induced-subgraph oracle over the source edge set
                oracle_edges = {
                    (a, b) for a, b in itertools.combinations(sorted(ids), 2)
                    if g.has_edge(a, b)
                }
                assert graph.num_edges == len(oracle_edges) == m * (m - 1) // 2

    def test_cross_split_edges_discarded(self):
        g = make_graph(40, [(i, i + 1) for i in range(39)])
        bundle = make_splits(g, seed=3)
        ids = set(bundle.target_train_ids)
        for u, v in bundle.target_train.edges:
            su, sv = bundle.target_train_ids[u], bundle.target_train_ids[v]
            assert su in ids and sv in ids
            assert g.has_edge(su, sv)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_splits(make_graph(3, [(0, 1)]), seed=0)

    def test_shadow_fraction_subsamples_before_split(self):
        g = make_graph(200, [(i, i + 1) for i in range(199)])
        bundle = make_splits(g, seed=1, shadow_fraction=0.5)
        assert len(bundle.shadow_train_ids) + len(bundle.shadow_test_ids) == 50
        assert len(bundle.target_train_ids) + len(bundle.target_test_ids) == 100
        # invariants still hold on the reduced shadow side
        assert set(bundle.shadow_train_ids).isdisjoint(bundle.shadow_test_ids)
        assert len(bundle.shadow_train_ids) == 40

    def test_bad_fraction_rejected(self):
        g = make_graph(50, [(0, 1)])
        with pytest.raises(ValueError):
            make_splits(g, seed=0, shadow_fraction=0.0)
        with pytest.raises(ValueError):
            make_splits(g, seed=0, shadow_fraction=1.5)


class TestBuildPairDataset:
    def test_triangle_errors(self):
        with pytest.raises(ValueError):
            build_pair_dataset(complete_graph(3), seed=0)

    def test_path_errors(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            build_pair_dataset(g, seed=0)

    def test_balance_and_negative_membership(self):
        rng = np.random.default_rng(11)
        edges = {(u, v) for u in range(50) for v in range(u + 1, 50) if rng.random() < 0.1}
        g = make_graph(50, edges)
        ds = build_pair_dataset(g, seed=4)
        labels = ds.labels
        assert (labels == 1).sum() == (labels == 0).sum() == len(edges)
        for (u, v), label in zip(ds.pairs.tolist(), labels):
            assert u != v
            if label == 1:
                assert g.has_edge(u, v)
            else:
                assert not g.has_edge(u, v)

    def test_rejection_branch_negatives_are_non_edges(self):
        # 700 nodes give more than 200,000 cells, so negatives are drawn by rejection
        rng = np.random.default_rng(17)
        edges = rng.integers(0, 700, size=(5000, 2))
        g = make_graph(700, edges[edges[:, 0] != edges[:, 1]])
        ds = build_pair_dataset(g, seed=2)
        negatives = ds.pairs[ds.labels == 0].tolist()
        assert len(negatives) == g.num_edges
        assert not any(g.has_edge(u, v) for u, v in negatives)
        assert len({normalize_edge(u, v) for u, v in negatives}) == len(negatives)

    def test_no_duplicate_pairs_in_either_orientation(self):
        g = make_graph(30, [(i, (i + 3) % 30) for i in range(30)])
        ds = build_pair_dataset(g, seed=9)
        seen = {normalize_edge(u, v) for u, v in ds.pairs.tolist()}
        assert len(seen) == len(ds.pairs)

    def test_deterministic(self):
        g = make_graph(40, [(i, i + 1) for i in range(39)])
        first, second = build_pair_dataset(g, seed=3), build_pair_dataset(g, seed=3)
        assert np.array_equal(first.pairs, second.pairs)
        assert np.array_equal(first.labels, second.labels)

    def test_positives_are_exactly_the_edges(self):
        g = make_graph(25, [(i, i + 1) for i in range(24)])
        ds = build_pair_dataset(g, seed=5)
        positives = {normalize_edge(u, v) for u, v in ds.pairs[ds.labels == 1].tolist()}
        assert positives == {tuple(e) for e in g.edges.tolist()}


class TestPlantedPartition:
    def test_zero_out_probability_disconnects_communities(self):
        g = generate_planted_partition(60, 3, 0.3, 0.0, 8, 0.5, seed=2)
        for u, v in g.edges:
            assert g.labels[u] == g.labels[v]

    def test_zero_noise_identical_rows(self):
        g = generate_planted_partition(40, 4, 0.2, 0.01, 6, 0.0, seed=3)
        for c in range(4):
            rows = g.features[g.labels == c]
            assert np.all(rows == rows[0])

    def test_edge_rate_statistics(self):
        g = generate_planted_partition(400, 4, 0.1, 0.005, 8, 1.0, seed=6)
        labels = g.labels
        intra = sum(1 for u, v in g.edges if labels[u] == labels[v])
        comm_sizes = [int((labels == c).sum()) for c in range(4)]
        expected_intra = 0.1 * sum(s * (s - 1) / 2 for s in comm_sizes)
        assert abs(intra - expected_intra) / expected_intra < 0.10

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            generate_planted_partition(40, 4, 0.05, 0.1, 8, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_planted_partition(40, 1, 0.1, 0.01, 8, 1.0, seed=0)

    def test_labels_balanced_blocks(self):
        g = generate_planted_partition(10, 3, 0.5, 0.0, 2, 0.0, seed=1)
        counts = [int((g.labels == c).sum()) for c in range(3)]
        assert counts == [4, 3, 3]


class TestManifests:
    def test_roundtrip_reproduces_bundle(self, tmp_path):
        g = make_graph(64, [(i, (i * 5) % 64) for i in range(1, 64)])
        bundle = make_splits(g, seed=12)
        write_split_manifest(bundle, str(tmp_path))
        ids = read_split_manifest(str(tmp_path))
        assert ids == bundle.split_ids()
        rebuilt = bundle_from_manifest(g, str(tmp_path))
        np.testing.assert_array_equal(rebuilt.target_train.edges, bundle.target_train.edges)
        np.testing.assert_array_equal(rebuilt.shadow_test.features, bundle.shadow_test.features)
