"""Layer kernels vs explicit-summation oracles, gradients, training, queries."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from gnn_oracles import DenseMessageStructure
from graph_oracles import normalize_edge, raw_graphs
from hypothesis import given, settings
from hypothesis import strategies as st
from nn_oracles import use_oracle_tape

from linklab import gnn, nn
from linklab.data import generate_planted_partition, make_splits
from linklab.features import PosteriorTable
from linklab.gnn import (
    ARCHITECTURES,
    MessageStructure,
    evaluate_accuracy,
    gnn_forward,
    init_gnn,
    layer_forward,
    load_gnn,
    save_gnn,
    train_gnn,
)
from linklab.graph import Graph
from linklab.nn import Parameter, Tensor

DATA = Path(__file__).parent / "data"


def tiny_graph(n, edges, feats, labels=None):
    labels = np.zeros(n, dtype=int) if labels is None else labels
    return Graph(num_nodes=n, edges=list(edges),
                 features=np.asarray(feats, dtype=float), labels=labels)


def adjacency_with_self_loops(n, edges):
    adj = {v: {v} for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def relu(x):
    return np.maximum(x, 0.0)


def leaky(x, s=0.2):
    return np.where(x > 0, x, s * x)


def oracle_layer(kind, params, h, adj):
    """Explicit per-node aggregation, no matrix tricks."""
    n = len(adj)
    if kind == "gcn":
        w = params["w"].data
        out = np.stack([
            w.T @ (sum(h[u] for u in sorted(adj[v])) / len(adj[v])) for v in range(n)
        ])
        return relu(out)
    if kind == "sage":
        w = params["w"].data
        rows = []
        for v in range(n):
            mean = sum(h[u] for u in sorted(adj[v])) / len(adj[v])
            rows.append(w.T @ np.concatenate([h[v], mean]))
        return relu(np.stack(rows))
    if kind == "gin":
        eps = float(params["eps"].data[0])
        rows = []
        for v in range(n):
            # self-loop contributes h[v] inside the sum, eps scales it on top
            s = sum(h[u] for u in sorted(adj[v])) + eps * h[v]
            hidden = relu(s @ params["w1"].data + params["b1"].data)
            rows.append(hidden @ params["w2"].data + params["b2"].data)
        return relu(np.stack(rows))
    if kind == "gat":
        heads = []
        i = 0
        while f"w{i}" in params:
            w = params[f"w{i}"].data
            a_dst = params[f"a_dst{i}"].data[:, 0]
            a_src = params[f"a_src{i}"].data[:, 0]
            z = h @ w
            out = np.zeros((n, w.shape[1]))
            for v in range(n):
                nbrs = sorted(adj[v])
                scores = np.array([leaky(z[v] @ a_dst + z[u] @ a_src) for u in nbrs])
                scores -= scores.max()
                alpha = np.exp(scores) / np.exp(scores).sum()
                out[v] = sum(a * z[u] for a, u in zip(alpha, nbrs))
            heads.append(out)
            i += 1
        return relu(np.concatenate(heads, axis=1))
    raise ValueError(kind)


def aggregate_first_layer_forward(layer, h, structure, rng=None, dropout_rate=0.0):
    """Every layer kind in the aggregate-then-project order: each aggregation
    runs at the input width, on every call. The oracle for layer_forward."""
    if layer.kind == "gcn":
        out = nn.matmul(nn.matmul(structure.mean_mat, h), layer.params["w"])
    elif layer.kind == "sage":
        agg = nn.matmul(structure.mean_mat, h)
        out = nn.matmul(nn.concat_cols([h, agg]), layer.params["w"])
    elif layer.kind == "gat":
        return layer_forward(layer, h, structure, rng, dropout_rate)
    elif layer.kind == "gin":
        summed = nn.add(nn.matmul(structure.sum_mat, h), nn.scalar_mul(h, layer.params["eps"]))
        hidden = nn.relu_dropout(
            nn.add(nn.matmul(summed, layer.params["w1"]), layer.params["b1"]))
        out = nn.add(nn.matmul(hidden, layer.params["w2"]), layer.params["b2"])
    else:
        raise ValueError(layer.kind)
    return nn.relu_dropout(out, dropout_rate, rng)


PATH_EDGES = [(0, 1), (1, 2), (2, 3)]


def csr_structure(n, edges):
    """A MessageStructure on the CSR path whatever its density."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(gnn, "SPARSE_RATIO", 0)
        structure = MessageStructure(n, edges)
    assert structure.indptr is not None and structure.mean_mat is None
    return structure


def csr_mask(structure):
    """The n×n marks of a structure's CSR rows, which must be ascending
    within each row and hold no entry twice."""
    n = structure.num_nodes
    rows = np.repeat(np.arange(n), np.diff(structure.indptr))
    keys = rows * n + structure.indices
    assert (keys[1:] > keys[:-1]).all()
    mask = np.zeros((n, n), dtype=bool)
    mask[rows, structure.indices] = True
    return mask


def loop_adjacency(n, edges):
    """Per-edge construction of the self-looped boolean adjacency."""
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = True
        adj[v, u] = True
    np.fill_diagonal(adj, True)
    return adj


def model_outputs_and_gradients(model, x, structure, labels):
    """Logits of a two-layer forward with dropout off, then the gradients of
    their cross-entropy for every parameter and for the input."""
    h0 = Parameter(x)

    def loss_fn():
        loss, _ = nn.softmax_cross_entropy(gnn_forward(model, h0, structure), labels)
        return loss

    return [gnn_forward(model, h0, structure).data] + gradients(loss_fn, model.parameters() + [h0])


class TestMessageStructure:
    def test_matches_per_edge_construction(self):
        rng = np.random.default_rng(12)
        n = 30
        raw = rng.integers(0, n, size=(80, 2))
        edges = {normalize_edge(int(u), int(v)) for u, v in raw}
        structure = MessageStructure(n, raw)
        adj = loop_adjacency(n, edges)
        assert csr_mask(structure).tobytes() == adj.tobytes()
        np.testing.assert_array_equal(structure.deg, adj.sum(axis=1))
        dense = adj.astype(np.float64)
        deg = adj.sum(axis=1, keepdims=True).astype(np.float64)
        assert structure.mean_mat.data.tobytes() == (dense / deg).tobytes()
        assert structure.sum_mat.data.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("edges", [[(0, 1), (1, 3)], [(0, 1), (-1, 2)]])
    def test_out_of_range_edge_named(self, edges):
        bad = edges[-1]
        with pytest.raises(ValueError, match=rf"edge \({bad[0]}, {bad[1]}\) outside node range"):
            MessageStructure(3, edges)

    def test_fixed_aggregate_follows_its_input(self):
        structure = MessageStructure(3, [(0, 1)])
        frozen, other = np.arange(6.0).reshape(3, 2), np.ones((3, 2))
        frozen.setflags(write=False)
        other.setflags(write=False)
        first = structure.fixed_aggregate("mean", Tensor(frozen))
        assert structure.fixed_aggregate("mean", Tensor(frozen)) is first
        np.testing.assert_array_equal(structure.fixed_aggregate("mean", Tensor(other)).data,
                                      structure.mean_mat.data @ other)
        np.testing.assert_array_equal(structure.fixed_aggregate("sum", Tensor(frozen)).data,
                                      structure.sum_mat.data @ frozen)
        writable = Tensor(np.ones((3, 2)))
        assert structure.fixed_aggregate("mean", writable) is not structure.fixed_aggregate(
            "mean", writable)


class TestCsrAggregation:
    def test_path_follows_entry_count(self):
        # 128 nodes take CSR rows below 128 * 128 / 64 = 256 entries
        n = 128
        chain = [(i, i + 1) for i in range(63)]
        for edges, sparse in ((chain, True), (chain + [(5, 5)], True),
                              (chain + [(63, 64)], False)):
            structure = MessageStructure(n, edges)
            # every structure keeps its CSR rows; only a dense one adds matrices
            assert structure.indptr is not None
            if sparse:
                assert structure.mean_mat is None and structure.sum_mat is None
            else:
                assert structure.mean_mat.data.shape == (n, n)
        assert MessageStructure(64, []).mean_mat is not None
        assert MessageStructure(65, []).mean_mat is None

    @settings(max_examples=80, deadline=None)
    @given(raw_graphs(), st.sampled_from(("gcn", "sage", "gin")), st.integers(0, 2**32 - 1))
    def test_matches_dense_oracle(self, drawn, kind, seed):
        n, raw = drawn
        if n == 0:
            return
        sparse, dense = csr_structure(n, raw), DenseMessageStructure(n, raw)
        assert csr_mask(sparse).tobytes() == dense.mask.tobytes()
        np.testing.assert_array_equal(sparse.deg, dense.mask.sum(axis=1))
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 3))
        labels = rng.integers(0, 3, size=n)

        def outputs_and_gradients(structure, forward, tensors):
            def loss_fn():
                loss, _ = nn.softmax_cross_entropy(forward(structure), labels)
                return loss
            return [forward(structure).data] + gradients(loss_fn, tensors)

        def assert_same(forward, tensors):
            got = outputs_and_gradients(sparse, forward, tensors)
            want = outputs_and_gradients(dense, forward, tensors)
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

        for op in ("mean", "sum"):
            z = Parameter(x)
            assert_same(lambda s: s.aggregate(op, z), [z])
            assert_same(lambda s: s.fixed_aggregate(op, Tensor(x)), [])
        layer = init_gnn(kind, 3, 3, rng, hidden=3).layer1
        for p in layer.parameters():
            p.data = p.data + rng.normal(0.0, 0.3, p.data.shape)
        for h in (Tensor(x), Parameter(x)):
            tensors = layer.parameters() + ([h] if h.requires_grad else [])
            assert_same(lambda s: layer_forward(layer, h, s), tensors)

    def test_gat_matches_dense_structure(self):
        rng = np.random.default_rng(33)
        n = 300
        edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (7 * i) % n) for i in range(0, n, 10)]
        sparse, dense = MessageStructure(n, edges), DenseMessageStructure(n, edges)
        assert sparse.mean_mat is None
        model = init_gnn("gat", 4, 3, rng, hidden=8)
        x = rng.normal(size=(n, 4))
        labels = rng.integers(0, 3, size=n)
        for a, b in zip(model_outputs_and_gradients(model, x, sparse, labels),
                        model_outputs_and_gradients(model, x, dense, labels)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_feature_aggregation_runs_once_on_csr_rows(self, planted_split, monkeypatch):
        g, bundle = planted_split
        fixed_rows = []
        row_sum = nn.csr_row_sum

        def counting_row_sum(z, *args):
            if not z.requires_grad:
                fixed_rows.append(z.data.shape)
            return row_sum(z, *args)

        monkeypatch.setattr(nn, "csr_row_sum", counting_row_sum)
        monkeypatch.setattr(gnn, "SPARSE_RATIO", 0)
        train_gnn(bundle.shadow_train, "sage", seed=3, num_classes=g.num_classes, epochs=7)
        assert fixed_rows == [(bundle.shadow_train.num_nodes, g.feature_dim)]


class TestCsrAttention:
    """GAT over CSR rows (``nn.csr_attention``) against the dense n×n
    attention it replaced, kept in ``DenseMessageStructure``."""

    @settings(max_examples=60, deadline=None)
    @given(raw_graphs(), st.integers(0, 2**32 - 1))
    def test_matches_dense_oracle(self, drawn, seed):
        n, raw = drawn
        if n == 0:
            return
        rng = np.random.default_rng(seed)
        # layer 1 has two heads, layer 2 one
        model = init_gnn("gat", 3, 3, rng, hidden=4)
        for p in model.parameters():
            p.data = p.data + rng.normal(0.0, 0.3, p.data.shape)
        x = rng.normal(size=(n, 3))
        labels = rng.integers(0, 3, size=n)
        want = model_outputs_and_gradients(model, x, DenseMessageStructure(n, raw), labels)
        for structure in (MessageStructure(n, raw), csr_structure(n, raw)):
            got = model_outputs_and_gradients(model, x, structure, labels)
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_memory_stays_far_below_one_dense_matrix(self):
        n = 3000
        edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (7 * i) % n) for i in range(0, n, 10)]
        rng = np.random.default_rng(34)
        model = init_gnn("gat", 8, 3, rng, hidden=16)
        x = rng.normal(size=(n, 8))
        labels = rng.integers(0, 3, size=n)
        structure = MessageStructure(n, edges)
        tracemalloc.start()
        try:
            loss, _ = nn.softmax_cross_entropy(gnn_forward(model, Tensor(x), structure), labels)
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one n×n float64 array is 72 MB, one n×n boolean mask 9 MB
        assert peak < n * n


class TestLayerForwardOracles:
    @pytest.mark.parametrize("kind", ARCHITECTURES)
    def test_matches_explicit_oracle(self, kind):
        rng = np.random.default_rng(5)
        n, d_in, d_out = 4, 5, 6
        layer = init_gnn(kind, d_in, d_out, rng, hidden=d_out).layer1
        h = rng.normal(size=(n, d_in))
        structure = MessageStructure(n, PATH_EDGES)
        expected = oracle_layer(kind, layer.params, h, adjacency_with_self_loops(n, PATH_EDGES))
        # the fixed feature matrix, aggregated before its projection, and a
        # gradient-carrying hidden input, projected before its aggregation
        for x in (Tensor(h), Parameter(h)):
            got = layer_forward(layer, x, structure).data
            np.testing.assert_allclose(got, expected, atol=1e-10)
        old = aggregate_first_layer_forward(layer, Parameter(h), structure).data
        np.testing.assert_allclose(got, old, rtol=0, atol=1e-12)

    def test_gcn_single_node_identity_weights(self):
        layer = init_gnn("gcn", 3, 3, np.random.default_rng(0), hidden=3).layer1
        layer.params["w"].data = np.eye(3)
        x = np.array([[0.5, 1.5, 2.0]])
        out = layer_forward(layer, Tensor(x), MessageStructure(1, []))
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_gcn_symmetric_pair(self):
        rng = np.random.default_rng(1)
        layer = init_gnn("gcn", 4, 5, rng, hidden=5).layer1
        x = np.tile(rng.normal(size=(1, 4)), (2, 1))
        out = layer_forward(layer, Tensor(x), MessageStructure(2, [(0, 1)])).data
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)

    def test_gcn_path_center_mean_oracle(self):
        rng = np.random.default_rng(2)
        layer = init_gnn("gcn", 4, 3, rng, hidden=3).layer1
        h = rng.normal(size=(3, 4))
        out = layer_forward(layer, Tensor(h), MessageStructure(3, [(0, 1), (1, 2)])).data
        expected = relu(layer.params["w"].data.T @ h.mean(axis=0))
        np.testing.assert_allclose(out[1], expected, atol=1e-10)

    def test_row_count_mismatch_rejected(self):
        layer = init_gnn("gcn", 3, 2, np.random.default_rng(0), hidden=2).layer1
        with pytest.raises(ValueError):
            layer_forward(layer, Tensor(np.zeros((5, 3))), MessageStructure(3, []))


def gradients(loss_fn, tensors):
    """Gradients of ``loss_fn()`` for ``tensors``, which are left cleared."""
    loss_fn().backward()
    grads = [np.zeros_like(t.data) if t.grad is None else t.grad for t in tensors]
    for t in tensors:
        t.grad = None
    return grads


class TestLayerGradients:
    @pytest.mark.parametrize("kind", ARCHITECTURES)
    def test_finite_difference_on_four_node_graph(self, kind, monkeypatch):
        rng = np.random.default_rng(31)
        model = init_gnn(kind, 3, 2, rng, hidden=4)
        structure = MessageStructure(4, PATH_EDGES)
        x = rng.normal(size=(4, 3))
        labels = rng.integers(0, 2, size=4)
        params = model.parameters()
        # jitter zero-initialized biases to a generic point, away from kinks
        for p in params:
            p.data = p.data + rng.normal(0.0, 0.3, p.data.shape)

        # the fixed feature matrix, then a gradient-carrying input that both
        # layers project before they aggregate
        for h0 in (Tensor(x), Parameter(x)):
            checked = params + [h0] if h0.requires_grad else params

            def loss_fn():
                logits = gnn_forward(model, h0, structure)
                loss, _ = nn.softmax_cross_entropy(logits, labels)
                return loss

            analytic = gradients(loss_fn, checked)
            if h0.requires_grad:
                with monkeypatch.context() as m:
                    m.setattr(gnn, "layer_forward", aggregate_first_layer_forward)
                    old_loss = float(loss_fn().data)
                    old = gradients(loss_fn, checked)
                assert abs(float(loss_fn().data) - old_loss) <= 1e-12
                for ana, ref in zip(analytic, old):
                    np.testing.assert_allclose(ana, ref, rtol=0, atol=1e-12)
            assert_finite_differences(loss_fn, checked, analytic)

    @pytest.mark.parametrize("kind", ARCHITECTURES)
    def test_finite_difference_on_csr_rows(self, kind):
        rng = np.random.default_rng(32)
        model = init_gnn(kind, 3, 2, rng, hidden=4)
        structure = csr_structure(6, PATH_EDGES + [(0, 2), (3, 5)])
        x = rng.normal(size=(6, 3))
        labels = rng.integers(0, 2, size=6)
        params = model.parameters()
        for p in params:
            p.data = p.data + rng.normal(0.0, 0.3, p.data.shape)
        for h0 in (Tensor(x), Parameter(x)):
            checked = params + [h0] if h0.requires_grad else params

            def loss_fn():
                logits = gnn_forward(model, h0, structure)
                loss, _ = nn.softmax_cross_entropy(logits, labels)
                return loss

            assert_finite_differences(loss_fn, checked, gradients(loss_fn, checked))


def assert_finite_differences(loss_fn, checked, analytic, h=1e-5):
    """Central differences of ``loss_fn()`` in every entry of ``checked``
    agree with ``analytic`` to a relative 1e-4."""
    for p, ana in zip(checked, analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float(loss_fn().data)
            flat[i] = orig - h
            lo = float(loss_fn().data)
            flat[i] = orig
            numeric = (hi - lo) / (2 * h)
            denom = max(abs(numeric), 1.0)
            assert abs(ana.reshape(-1)[i] - numeric) / denom < 1e-4


class TestModelAssembly:
    def test_gat_heads_follow_convention(self):
        model = init_gnn("gat", 10, 3, np.random.default_rng(0), hidden=128)
        assert model.layer1.heads == 2
        assert model.layer2.heads == 1
        assert model.layer1.params["w0"].data.shape == (10, 64)

    def test_layer2_width_is_class_count(self):
        for arch in ARCHITECTURES:
            model = init_gnn(arch, 7, 5, np.random.default_rng(0), hidden=16)
            assert model.layer2.out_dim == 5

    def test_unknown_arch(self):
        with pytest.raises(ValueError):
            init_gnn("gcnn", 3, 2, np.random.default_rng(0))

    def test_dropout_reaches_the_hidden_layer_only(self):
        model = init_gnn("sage", 3, 2, np.random.default_rng(0), hidden=8)
        structure = MessageStructure(4, PATH_EDGES)
        h0 = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        rng, twin = np.random.default_rng(2), np.random.default_rng(2)
        logits = gnn_forward(model, h0, structure, rng, 0.5)
        hidden = layer_forward(model.layer1, h0, structure, twin, 0.5)
        class_scores = layer_forward(model.layer2, hidden, structure)
        assert logits.data.tobytes() == class_scores.data.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.fixture(scope="module")
def planted_split():
    g = generate_planted_partition(160, 2, 0.2, 0.01, 12, 1.0, seed=21)
    return g, make_splits(g, 3)


class TestTraining:
    def test_two_community_accuracy(self, planted_split):
        g, bundle = planted_split
        model = train_gnn(bundle.target_train, "sage", seed=9, num_classes=g.num_classes)
        assert evaluate_accuracy(model, bundle.target_train) > 0.9

    def test_no_signal_is_chance(self):
        rng = np.random.default_rng(5)
        n, c = 80, 4
        labels = rng.permutation(np.arange(n) % c)
        g = tiny_graph(n, [(i, (i + 1) % n) for i in range(n)],
                       np.ones((n, 6)), labels=labels)
        model = train_gnn(g, "sage", seed=2, epochs=60)
        acc = evaluate_accuracy(model, g)
        assert abs(acc - 1.0 / c) <= 0.1

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_training_follows_aggregate_first_order(self, arch, planted_split, monkeypatch):
        g, bundle = planted_split
        model = train_gnn(bundle.shadow_train, arch, seed=3, num_classes=g.num_classes, epochs=20)
        monkeypatch.setattr(gnn, "layer_forward", aggregate_first_layer_forward)
        old = train_gnn(bundle.shadow_train, arch, seed=3, num_classes=g.num_classes, epochs=20)
        for p, q in zip(model.parameters(), old.parameters()):
            np.testing.assert_allclose(p.data, q.data, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_parameters_match_two_op_oracle_tape(self, arch, planted_split, monkeypatch):
        g, bundle = planted_split
        model = train_gnn(bundle.shadow_train, arch, seed=3, num_classes=g.num_classes, epochs=20)
        use_oracle_tape(monkeypatch)
        old = train_gnn(bundle.shadow_train, arch, seed=3, num_classes=g.num_classes, epochs=20)
        for p, q in zip(model.parameters(), old.parameters()):
            assert p.data.tobytes() == q.data.tobytes()

    @pytest.mark.parametrize("arch", ("gcn", "sage", "gin"))
    def test_feature_aggregation_runs_once_per_training(self, arch, planted_split, monkeypatch):
        g, bundle = planted_split
        n = bundle.shadow_train.num_nodes
        fixed_products = []
        matmul = nn.matmul

        def counting_matmul(a, b):
            if a.data.shape == (n, n) and not b.requires_grad:
                fixed_products.append(b.data.shape)
            return matmul(a, b)

        monkeypatch.setattr(nn, "matmul", counting_matmul)
        train_gnn(bundle.shadow_train, arch, seed=3, num_classes=g.num_classes, epochs=7)
        assert fixed_products == [(n, g.feature_dim)]

    def test_single_class_rejected(self):
        g = tiny_graph(4, [(0, 1)], np.ones((4, 3)))
        with pytest.raises(ValueError):
            train_gnn(g, "gcn", seed=0, epochs=1)

    def test_deterministic_under_seed(self, planted_split):
        g, bundle = planted_split
        m1 = train_gnn(bundle.shadow_train, "gcn", seed=4, num_classes=g.num_classes, epochs=30)
        m2 = train_gnn(bundle.shadow_train, "gcn", seed=4, num_classes=g.num_classes, epochs=30)
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            assert p1.data.tobytes() == p2.data.tobytes()


@pytest.fixture(scope="module")
def trained(planted_split):
    g, bundle = planted_split
    model = train_gnn(bundle.target_train, "sage", seed=9, num_classes=g.num_classes)
    return bundle.target_train, model


def table_query(model, graph, center, hop, temperature=1.0):
    """One k-hop posterior through the run's path: a posterior table's pass,
    with the center paired with a non-neighbor, so no edge is removed."""
    table = PosteriorTable(model, graph, temperature)
    other = next(w for w in range(graph.num_nodes) if w != center and not graph.has_edge(center, w))
    return table.pair_posteriors(np.array([(center, other)]), hop)[0][0]


class TestKhopQuery:
    def test_zero_hop_depends_only_on_attributes(self, trained):
        graph, model = trained
        feats = graph.features
        # plant two nodes with identical rows
        g2 = Graph(num_nodes=graph.num_nodes, edges=graph.edges,
                   features=np.vstack([feats[:-1], feats[:1]]), labels=graph.labels)
        a, b = 0, g2.num_nodes - 1
        post_a = table_query(model, g2, a, 0)
        post_b = table_query(model, g2, b, 0)
        np.testing.assert_allclose(post_a, post_b, atol=1e-12)

    def test_high_temperature_near_uniform(self, trained):
        graph, model = trained
        post = table_query(model, graph, 3, 1, temperature=1000.0)
        assert post.max() - post.min() < 0.01

    def test_isolated_two_hop_equals_one_hop(self):
        # component 0-1 only: 2-hop neighborhood equals 1-hop neighborhood
        feats = np.random.default_rng(0).normal(size=(6, 4))
        g = tiny_graph(6, [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)], feats,
                       labels=np.array([0, 1, 0, 1, 0, 1]))
        model = train_gnn(g, "gcn", seed=1, epochs=20)
        p1 = table_query(model, g, 0, 1)
        p2 = table_query(model, g, 0, 2)
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_normalized_posterior(self, trained):
        graph, model = trained
        for v in range(0, graph.num_nodes, 17):
            for k in (0, 1, 2):
                post = table_query(model, graph, v, k)
                assert abs(post.sum() - 1.0) < 1e-9
                assert post.min() >= 0.0

    def test_dimension_mismatch(self, trained):
        graph, model = trained
        bad = tiny_graph(2, [(0, 1)], np.ones((2, 3)))
        with pytest.raises(ValueError, match="feature dim"):
            table_query(model, bad, 0, 1)

    def test_permutation_equivariance(self, trained):
        graph, model = trained
        rng = np.random.default_rng(8)
        perm = rng.permutation(graph.num_nodes)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(graph.num_nodes)
        g2 = Graph(num_nodes=graph.num_nodes, edges=inv[graph.edges],
                   features=graph.features[perm], labels=graph.labels[perm])
        for v in (0, 5, 33):
            p1 = table_query(model, graph, v, 2)
            p2 = table_query(model, g2, int(inv[v]), 2)
            np.testing.assert_allclose(p1, p2, atol=1e-10)


class TestPredictLabel:
    """A predicted label is the argmax of the k-hop posterior."""

    def test_argmax_and_tie_rule(self):
        assert int(np.argmax(np.array([0.1, 0.7, 0.2]))) == 1
        assert int(np.argmax(np.array([0.5, 0.5]))) == 0

    def test_temperature_never_changes_decision(self, trained):
        graph, model = trained
        for v in (1, 9, 25):
            base = int(np.argmax(table_query(model, graph, v, 1)))
            for t in (0.25, 5.0, 50.0):
                assert int(np.argmax(table_query(model, graph, v, 1, temperature=t))) == base


class TestCheckpointRoundtrip:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_bitwise_roundtrip(self, arch, tmp_path, planted_split):
        g, bundle = planted_split
        model = train_gnn(bundle.shadow_train, arch, seed=6, num_classes=g.num_classes, epochs=10)
        path = str(tmp_path / f"{arch}.ckpt")
        save_gnn(model, path)
        restored = load_gnn(path)
        assert restored.arch == model.arch
        for p1, p2 in zip(model.parameters(), restored.parameters()):
            assert p1.data.tobytes() == p2.data.tobytes()
        graph = bundle.shadow_train
        np.testing.assert_array_equal(table_query(model, graph, 0, 2), table_query(restored, graph, 0, 2))

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_legacy_checkpoint_loads_and_predicts(self, arch, tmp_path):
        # Written by the aggregate-then-project order, trained 10 epochs on
        # this graph; the posteriors were recorded at the same time.
        path = DATA / f"legacy_{arch}.ckpt"
        model = load_gnn(str(path))
        resaved = tmp_path / "resaved.ckpt"
        save_gnn(model, str(resaved))
        assert resaved.read_bytes() == path.read_bytes()
        graph = legacy_graph()
        recorded = np.load(DATA / "legacy_posteriors.npz")[arch]
        posts = np.array([[table_query(model, graph, v, k) for k in (0, 1, 2)]
                          for v in range(graph.num_nodes)])
        np.testing.assert_array_equal(posts.argmax(axis=2), recorded.argmax(axis=2))
        np.testing.assert_allclose(posts, recorded, rtol=0, atol=1e-12)


def legacy_graph():
    rng = np.random.default_rng(17)
    n = 12
    edges = [(i, (i + 1) % n) for i in range(n)] + [(0, 6), (2, 9), (3, 7)]
    return tiny_graph(n, edges, rng.normal(size=(n, 4)), labels=np.arange(n) % 3)
