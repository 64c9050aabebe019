"""Graph construction, neighborhoods, k-hop subgraphs, and the dataset loader."""

import numpy as np
import pytest
from graph_oracles import adjacency_sets, induced_oracle, khop_oracle, raw_graphs, single_khop
from hypothesis import given, settings
from hypothesis import strategies as st

from linklab.experiment import _graphs_equal
from linklab.graph import (
    Graph,
    cell_pairs,
    induced_subgraph,
    khop_union,
    load_dataset,
    normalize_edge,
    row_entries,
    save_dataset,
    upper_cells,
)


def make_graph(n, edges, d=3, labels=None):
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(n, d))
    if labels is None:
        labels = np.zeros(n, dtype=int)
    return Graph(num_nodes=n, edges=list(edges), features=feats, labels=labels)


def random_graph(rng, n, p):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return make_graph(n, edges)


def bfs_oracle(adj_sets, start, depth, banned=None):
    """Plain queue BFS over explicit adjacency sets, ignoring the banned edge."""
    reached = {start}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for w in adj_sets[u]:
                if banned and normalize_edge(u, w) == banned:
                    continue
                if w not in reached:
                    reached.add(w)
                    nxt.append(w)
        frontier = nxt
    return reached


def neighbors(g, v):
    """The CSR row of ``v`` as ``row_entries`` reads it."""
    return row_entries(g, np.array([v]))[1]


class TestGraphConstruction:
    def test_rejects_bad_edge(self):
        with pytest.raises(ValueError):
            make_graph(3, [(0, 5)])

    def test_rejects_feature_row_mismatch(self):
        with pytest.raises(ValueError):
            Graph(num_nodes=3, edges=[], features=np.zeros((2, 4)), labels=np.zeros(3, dtype=int))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Graph(num_nodes=3, edges=[], features=np.zeros((3, 4)), labels=np.zeros(2, dtype=int))

    def test_features_are_immutable(self):
        g = make_graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.features[0, 0] = 5.0


class TestNeighbors:
    def test_path_graph(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert neighbors(g, 1).tolist() == [0, 2]

    def test_isolated_node(self):
        g = make_graph(3, [(0, 1)])
        assert neighbors(g, 2).size == 0

    def test_star_matches_adjacency_oracle(self):
        edges = [(0, 1), (0, 2), (0, 3)]
        g = make_graph(4, edges)
        oracle = {v: set() for v in range(4)}
        for u, v in edges:
            oracle[u].add(v)
            oracle[v].add(u)
        for v in range(4):
            assert set(neighbors(g, v).tolist()) == oracle[v]
        owner, nbrs = row_entries(g, np.array([3, 0, 3]))
        assert owner.tolist() == [0, 1, 1, 1, 2] and nbrs.tolist() == [0, 1, 2, 3, 0]

    def test_excludes_self_without_self_loop(self):
        g = make_graph(3, [(0, 1)])
        assert 0 not in neighbors(g, 0)
        g2 = make_graph(3, [(0, 1), (0, 0)])
        assert 0 in neighbors(g2, 0)

    def test_invalid_node_errors(self):
        g = make_graph(3, [(0, 1)])
        with pytest.raises(ValueError, match=r"node id 3 out of range \[0, 3\)"):
            induced_subgraph(g, [0, 3])

    def test_symmetry_on_random_graphs(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 25, 0.2)
        for u in range(g.num_nodes):
            for v in neighbors(g, u):
                assert u in neighbors(g, v)


class TestKhopSubgraph:
    def test_zero_hop_is_self_loop_only(self):
        g = make_graph(5, [(0, 1), (1, 2), (1, 1)])
        assert single_khop(g, 1, 0) == ((1,), ())

    def test_path_one_hop(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert single_khop(g, 1, 1) == ((0, 1, 2), ((0, 1), (1, 2)))

    def test_invalid_inputs(self):
        # a center out of range is rejected by the caller, PosteriorTable.pair_posteriors
        g = make_graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="hop count must be 0, 1, or 2, got 3"):
            khop_union(g, [0], 3, [3], [3])

    def test_exclusion_removes_edge_and_frontier(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert single_khop(g, 0, 1, exclude=(1, 0)) == ((0,), ())

    def test_matches_bfs_oracle_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            g = random_graph(rng, 30, 0.2)
            adj = adjacency_sets(g)
            v = int(rng.integers(g.num_nodes))
            k = int(rng.integers(0, 3))
            banned = None
            if g.num_edges and rng.random() < 0.7:
                banned = tuple(g.edges[int(rng.integers(g.num_edges))].tolist())
            expected = bfs_oracle(adj, v, k, banned) if k else {v}
            nodes, _ = single_khop(g, v, k, exclude=banned)
            assert set(nodes) == expected

    def test_two_hop_superset_of_one_hop(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 24, 0.15)
        for v in range(g.num_nodes):
            e = tuple(g.edges[0].tolist()) if g.num_edges else None
            one = set(single_khop(g, v, 1, exclude=e)[0])
            two = set(single_khop(g, v, 2, exclude=e)[0])
            assert one <= two

    def test_exclusion_never_adds_anything(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, 20, 0.2)
        edges = g.edges.tolist()
        for trial in range(20):
            v = int(rng.integers(g.num_nodes))
            k = int(rng.integers(1, 3))
            e = edges[int(rng.integers(len(edges)))]
            with_nodes, with_edges = single_khop(g, v, k, exclude=e)
            nodes, edges_kept = single_khop(g, v, k)
            assert set(with_nodes) <= set(nodes)
            parent = {(nodes[a], nodes[b]) for a, b in edges_kept}
            assert {(with_nodes[a], with_nodes[b]) for a, b in with_edges} <= parent

    def test_local_edges_reindexed(self):
        g = make_graph(5, [(2, 4), (2, 3)])
        assert single_khop(g, 2, 1) == ((2, 3, 4), ((0, 1), (0, 2)))


class TestInducedSubgraph:
    def test_induced_keeps_internal_edges_only(self):
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, ids = induced_subgraph(g, [1, 2, 4])
        assert ids == (1, 2, 4)
        assert sub.num_nodes == 3
        assert sub.edges.tolist() == [[0, 1]]

    def test_feature_rows_follow_id_map(self):
        g = make_graph(5, [(0, 1)])
        sub, ids = induced_subgraph(g, [4, 0])
        np.testing.assert_array_equal(sub.features, g.features[list(ids)])


class TestUpperCells:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(raw_graphs(), st.sampled_from([(0, []), (1, [(0, 0)]), (2, [(1, 0)]),
                                                    (2, [(0, 0), (1, 1)])])))
    def test_cell_pairs_round_trip(self, drawn):
        n, raw = drawn
        g = make_graph(n, raw)
        cells = upper_cells(g)
        assert cells.dtype == bool and cells.shape == (n * (n - 1) // 2,)
        np.testing.assert_array_equal(cell_pairs(n, np.flatnonzero(cells)),
                                      g.edges[g.edges[:, 0] != g.edges[:, 1]])
        rows, cols = np.triu_indices(n, k=1)
        np.testing.assert_array_equal(cells, [g.has_edge(u, v) for u, v in zip(rows, cols)])
        np.testing.assert_array_equal(cell_pairs(n, np.arange(len(cells))),
                                      np.stack([rows, cols], axis=1))


class TestIdentity:
    def test_graphs_and_subgraphs_compare_by_identity(self):
        g = make_graph(4, [(0, 1), (1, 2)])
        twin = make_graph(4, [(0, 1), (1, 2)])
        assert g == g and g != twin
        assert len({g, g, twin}) == 2
        sub, _ = induced_subgraph(g, [1, 2])
        assert sub == sub and sub != induced_subgraph(g, [1, 2])[0]
        assert hash(sub) == hash(sub)
        assert _graphs_equal(g, twin)


class TestDatasetIo:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 15, 0.2)
        feats = g.features.copy()
        feats[0, :3] = [-0.0, 1e-5, 1e16]
        feats[1, 0] = 5e-324
        g = Graph(num_nodes=15, edges=g.edges, features=feats, labels=g.labels)
        save_dataset(g, str(tmp_path))
        # the per-cell formatter the row-wise writer replaced
        expected = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in g.features)
        assert (tmp_path / "features.csv").read_text() == expected
        loaded = load_dataset(str(tmp_path))
        np.testing.assert_array_equal(loaded.graph.edges, g.edges)
        np.testing.assert_array_equal(loaded.graph.features, g.features)
        np.testing.assert_array_equal(loaded.graph.labels, g.labels)
        assert loaded.source_ids == tuple(range(15))

    def test_remaps_external_ids(self, tmp_path):
        (tmp_path / "edges.tsv").write_text("100\t200\n200\t300\n")
        (tmp_path / "features.csv").write_text("1.0,0.0\n0.0,1.0\n1.0,1.0\n")
        (tmp_path / "labels.csv").write_text("0\n1\n0\n")
        loaded = load_dataset(str(tmp_path))
        assert loaded.graph.num_nodes == 3
        assert loaded.graph.edges.tolist() == [[0, 1], [1, 2]]
        assert loaded.source_ids == (100, 200, 300)

    def test_symmetrizes_directed_edges(self, tmp_path):
        (tmp_path / "edges.tsv").write_text("0\t1\n1\t0\n1\t2\n")
        (tmp_path / "features.csv").write_text("1.0\n2.0\n3.0\n")
        (tmp_path / "labels.csv").write_text("0\n1\n1\n")
        loaded = load_dataset(str(tmp_path))
        assert loaded.graph.edges.tolist() == [[0, 1], [1, 2]]

    def test_rejects_inconsistent_labels(self, tmp_path):
        (tmp_path / "edges.tsv").write_text("0\t1\n")
        (tmp_path / "features.csv").write_text("1.0\n2.0\n")
        (tmp_path / "labels.csv").write_text("0\n")
        with pytest.raises(ValueError):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_features(self, tmp_path, bad):
        (tmp_path / "edges.tsv").write_text("0\t1\n")
        (tmp_path / "features.csv").write_text(f"1.0,2.0\n3.0,4.0\n5.0,{bad}\n{bad},1.0\n")
        (tmp_path / "labels.csv").write_text("0\n1\n0\n1\n")
        with pytest.raises(ValueError, match=r"features\.csv row 2 \(line 3\) holds a non-finite"):
            load_dataset(str(tmp_path))

    def test_remaps_sparse_labels(self, tmp_path):
        (tmp_path / "edges.tsv").write_text("0\t1\n")
        (tmp_path / "features.csv").write_text("1.0\n2.0\n")
        (tmp_path / "labels.csv").write_text("3\n7\n")
        loaded = load_dataset(str(tmp_path))
        np.testing.assert_array_equal(loaded.graph.labels, [0, 1])
        assert loaded.label_values == (3, 7)


class TestCsrCore:
    @settings(max_examples=80, deadline=None)
    @given(raw_graphs())
    def test_edges_graph_csr_round_trip(self, drawn):
        n, raw = drawn
        g = make_graph(n, raw)
        expected = sorted({normalize_edge(u, v) for u, v in raw})
        assert g.edges.dtype == np.int64 and g.edges.shape == (len(expected), 2)
        assert [tuple(e) for e in g.edges.tolist()] == expected
        assert not g.edges.flags.writeable
        assert not g.indptr.flags.writeable and not g.indices.flags.writeable
        from_csr = set()
        for v in range(n):
            row = g.indices[g.indptr[v]:g.indptr[v + 1]].tolist()
            assert row == sorted(set(row))
            from_csr |= {normalize_edge(v, w) for w in row}
        assert sorted(from_csr) == expected
        assert len(g.indices) == 2 * len(expected) - sum(u == v for u, v in expected)
        # stored input, which skips the sort, and unsorted or repeated input,
        # which does not, all store the same arrays bit for bit
        for given in (g.edges, g.edges[::-1, ::-1], np.repeat(g.edges, 2, axis=0)):
            again = Graph(num_nodes=n, edges=given, features=g.features, labels=g.labels)
            for name in ("edges", "indptr", "indices"):
                assert getattr(again, name).tobytes() == getattr(g, name).tobytes()
        for u in range(n):
            for v in range(n):
                assert g.has_edge(u, v) == (normalize_edge(u, v) in from_csr)

    @settings(max_examples=60, deadline=None)
    @given(raw_graphs(), st.data())
    def test_khop_and_induced_match_set_oracles(self, drawn, data):
        n, raw = drawn
        if n == 0:
            return
        g = make_graph(n, raw)
        adj = adjacency_sets(g)
        stray = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        for v in range(n):
            exclusions = [None, stray] + [(w, v) for w in adj[v]]
            for k in (0, 1, 2):
                for exclude in exclusions:
                    assert single_khop(g, v, k, exclude) == khop_oracle(adj, v, k, exclude)
        kept = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
        sub, ids = induced_subgraph(g, kept)
        assert ({tuple(e) for e in sub.edges.tolist()}, ids) == induced_oracle(g, kept)
