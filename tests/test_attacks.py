"""Attack taxonomy conformance, architectures, training, and inference."""

import attack_oracles
import numpy as np
import pytest
from nn_oracles import use_oracle_tape

from linklab import nn
from linklab.attacks import (
    ATTACK_SPECS,
    attack_dataset_inputs,
    build_attack_model,
    link_scores,
    mlp_forward,
    spec_for,
    train_attack,
)
from linklab.data import build_pair_dataset, generate_planted_partition, make_splits
from linklab.features import PosteriorTable
from linklab.gnn import train_gnn
from linklab.metrics import auc
from linklab.nn import Tensor
from linklab.rng import stream

# Independent transcription of the attack-taxonomy table:
# id -> (hop, posteriors, node attributes, graph features)
TAXONOMY = {
    "a0": (0, True, False, False),
    "a1": (1, True, False, False),
    "a2": (2, True, False, False),
    "a3": (0, True, True, False),
    "a4": (1, True, True, False),
    "a5": (2, True, True, False),
    "a6": (1, True, False, True),
    "a7": (2, True, False, True),
    "a8": (1, True, True, True),
    "a9": (2, True, True, True),
    "b0": (None, False, True, False),
    "b1": (None, False, False, True),
    "b2": (None, False, True, True),
}


class TestTaxonomyConformance:
    def test_every_spec_matches_table(self):
        assert set(ATTACK_SPECS) == set(TAXONOMY)
        for attack_id, (hop, p, n, g) in TAXONOMY.items():
            spec = ATTACK_SPECS[attack_id]
            assert spec.hop == hop
            assert spec.uses_posteriors == p
            assert spec.uses_node_attrs == n
            assert spec.uses_graph_feats == g

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            spec_for("a10")


class TestArchitectures:
    def _widths(self, model):
        return {br.kind: tuple(br.widths) for br in model.branches}

    def test_posterior_only_mlp(self):
        model = build_attack_model("a0", {"posterior": 28}, stream(0, "init"))
        assert self._widths(model) == {"posterior": (128, 32)}
        assert model.head_w.data.shape == (32, 2)

    def test_attr_and_posterior(self):
        model = build_attack_model("a4", {"node_attr": 50, "posterior": 28}, stream(0, "init"))
        assert self._widths(model) == {"node_attr": (128, 64, 16), "posterior": (64, 16)}
        assert model.head_w.data.shape == (32, 2)

    def test_graph_and_posterior(self):
        model = build_attack_model("a6", {"graph": 3, "posterior": 28}, stream(0, "init"))
        assert self._widths(model) == {"graph": (16, 4), "posterior": (128, 64, 16)}
        assert model.head_w.data.shape == (20, 2)

    def test_three_branch(self):
        model = build_attack_model("a9", {"node_attr": 50, "posterior": 28, "graph": 3},
                                   stream(0, "init"))
        assert self._widths(model) == {
            "node_attr": (128, 64, 16), "posterior": (128, 64, 16), "graph": (4,)
        }
        assert model.head_w.data.shape == (36, 2)

    def test_baselines(self):
        b0 = build_attack_model("b0", {"node_attr": 50}, stream(0, "init"))
        assert self._widths(b0) == {"node_attr": (128, 32)}
        b1 = build_attack_model("b1", {"graph": 3}, stream(0, "init"))
        assert self._widths(b1) == {"graph": (16,)}
        b2 = build_attack_model("b2", {"node_attr": 50, "graph": 3}, stream(0, "init"))
        assert self._widths(b2) == {"node_attr": (256, 64, 8), "graph": (1,)}
        assert b2.head_w.data.shape == (9, 2)

    def test_wrong_input_kinds_rejected(self):
        with pytest.raises(ValueError):
            build_attack_model("a0", {"graph": 3}, stream(0, "init"))


@pytest.fixture(scope="module")
def pipeline():
    """A small trained pipeline shared by the feature-assembly tests."""
    g = generate_planted_partition(160, 4, 0.15, 0.01, 12, 1.0, seed=23)
    bundle = make_splits(g, 8)
    shadow = train_gnn(bundle.shadow_train, "sage", seed=3, num_classes=g.num_classes, epochs=60)
    attack_train = build_pair_dataset(bundle.shadow_train, seed=4)
    return g, bundle, shadow, attack_train


def one_pair(spec, table, graph, pair, **kwargs):
    """Each feature block of a single pair, built as a one-row batch."""
    return {kind: mat[0] for kind, mat in
            attack_dataset_inputs(spec, table, graph, [pair], **kwargs).items()}


class TestAssembleFeatures:
    def test_attack0_vector_length(self, pipeline):
        g, bundle, shadow, ds = pipeline
        feats = one_pair(spec_for("a0"), PosteriorTable(shadow, ds.graph), ds.graph, ds.pairs[0])
        assert set(feats) == {"posterior"}
        assert feats["posterior"].shape == (4 * g.num_classes,)

    def test_attack0_seven_class_length_28(self):
        from linklab.gnn import init_gnn

        g = generate_planted_partition(70, 7, 0.3, 0.02, 6, 1.0, seed=2)
        model = init_gnn("gcn", 6, 7, np.random.default_rng(0), hidden=8)
        feats = one_pair(spec_for("a0"), PosteriorTable(model, g), g, (0, 1))
        assert feats["posterior"].shape == (28,)

    def test_baseline1_vector(self, pipeline):
        _, _, shadow, ds = pipeline
        feats = one_pair(spec_for("b1"), None, ds.graph, ds.pairs[0])
        assert set(feats) == {"graph"}
        assert feats["graph"].shape == (3,)

    def test_attack9_three_kinds(self, pipeline):
        g, _, shadow, ds = pipeline
        feats = one_pair(spec_for("a9"), PosteriorTable(shadow, ds.graph), ds.graph, ds.pairs[0])
        assert set(feats) == {"posterior", "node_attr", "graph"}
        assert feats["posterior"].shape == (4 * g.num_classes,)
        assert feats["node_attr"].shape == (ds.graph.feature_dim,)
        assert feats["graph"].shape == (3,)

    def test_graph_features_at_hop_zero_rejected(self, pipeline):
        _, _, shadow, ds = pipeline
        from linklab.attacks import AttackSpec

        bogus = AttackSpec("custom", 0, True, False, True)
        with pytest.raises(ValueError, match="hop 0"):
            attack_dataset_inputs(bogus, PosteriorTable(shadow, ds.graph), ds.graph, ds.pairs)

    def test_self_pair_rejected(self, pipeline):
        _, _, shadow, ds = pipeline
        pairs = np.vstack([ds.pairs[:5], [[3, 3]]])
        with pytest.raises(ValueError, match="two distinct nodes"):
            attack_dataset_inputs(spec_for("a8"), PosteriorTable(shadow, ds.graph), ds.graph, pairs)

    def test_transfer_posterior_width(self, pipeline):
        _, _, shadow, ds = pipeline
        feats = one_pair(spec_for("a1"), PosteriorTable(shadow, ds.graph), ds.graph, ds.pairs[0],
                         transfer=True)
        assert feats["posterior"].shape == (7,)


def taxonomy_inputs(spec, rng, rows=30):
    """Random input blocks for every kind ``spec`` uses."""
    used = {"posterior": spec.uses_posteriors, "node_attr": spec.uses_node_attrs,
            "graph": spec.uses_graph_feats}
    widths = {"posterior": 12, "node_attr": 10, "graph": 3}
    return {kind: rng.normal(size=(rows, width)) for kind, width in widths.items() if used[kind]}


class TestTrainAttack:
    def test_separable_features_high_accuracy(self):
        rng = np.random.default_rng(2)
        n = 200
        labels = np.repeat([0, 1], n // 2)
        x = rng.normal(size=(n, 8)) + labels[:, None] * 4.0
        model = train_attack("a0", {"posterior": x}, labels, seed=1, epochs=120)
        scores = link_scores(model, {"posterior": x})
        acc = float(np.mean((scores >= 0.5).astype(int) == labels))
        assert acc > 0.99

    def test_random_labels_chance_auc(self):
        rng = np.random.default_rng(3)
        n = 400
        x = rng.normal(size=(n, 8))
        labels = np.repeat([0, 1], n // 2)
        model = train_attack("a0", {"posterior": x}, labels, seed=2, epochs=80)
        holdout = rng.normal(size=(n, 8))
        scores = link_scores(model, {"posterior": holdout})
        assert abs(auc(scores, labels) - 0.5) <= 0.05

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_attack("a0", {"posterior": np.zeros((0, 4))}, np.zeros(0), seed=0)

    def test_unbalanced_rejected(self):
        x = np.zeros((3, 4))
        with pytest.raises(ValueError):
            train_attack("a0", {"posterior": x}, np.array([1, 1, 0]), seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 6))
        labels = np.repeat([0, 1], 20)
        m1 = train_attack("b0", {"node_attr": x}, labels, seed=9, epochs=30)
        m2 = train_attack("b0", {"node_attr": x}, labels, seed=9, epochs=30)
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            assert p1.data.tobytes() == p2.data.tobytes()

    @pytest.mark.parametrize("rate", [0.5, 0.3])
    @pytest.mark.parametrize("attack_id", sorted(ATTACK_SPECS))
    def test_parameters_match_oracle_tape(self, attack_id, rate, monkeypatch):
        # every branch plan, on the tape before the fused dense layer and
        # the fused activation: matmul, add, relu, dropout
        inputs = taxonomy_inputs(ATTACK_SPECS[attack_id], np.random.default_rng(6))
        labels = np.repeat([0, 1], 15)
        model = train_attack(attack_id, inputs, labels, seed=6, epochs=20, dropout_rate=rate)
        use_oracle_tape(monkeypatch)
        old = train_attack(attack_id, inputs, labels, seed=6, epochs=20, dropout_rate=rate)
        for p, q in zip(model.parameters(), old.parameters(), strict=True):
            assert p.data.tobytes() == q.data.tobytes()


class TestFloat32Training:
    @pytest.mark.parametrize("attack_id", sorted(ATTACK_SPECS))
    def test_parameters_match_float64_oracle(self, attack_id):
        # Same draws, same schedule, no dropout: only the precision differs.
        # Adam divides each step by the gradient's running scale, so where a
        # gradient is near float32 rounding a step moves by a fraction of the
        # learning rate; the bound is a twentieth of one full step (the
        # largest difference seen over three input seeds was 1.2e-5).
        inputs = taxonomy_inputs(ATTACK_SPECS[attack_id], np.random.default_rng(6))
        labels = np.repeat([0, 1], 15)
        model = train_attack(attack_id, inputs, labels, seed=6, epochs=20, dropout_rate=0.0)
        oracle = attack_oracles.train_attack(attack_id, inputs, labels, seed=6, epochs=20,
                                             dropout_rate=0.0)
        for p, q in zip(model.parameters(), oracle.parameters(), strict=True):
            assert q.data.dtype == np.float64
            np.testing.assert_allclose(p.data, q.data, rtol=0, atol=0.05 * 0.001)

    @pytest.mark.parametrize("attack_id", sorted(ATTACK_SPECS))
    def test_training_runs_in_float32_and_scores_in_float64(self, attack_id, monkeypatch,
                                                            pipeline):
        outputs, mults, updates = [], [], []
        result, mult, step = nn._result, nn._relu_dropout_mult, nn.Adam.step

        def recording_result(data, parents, backward):
            outputs.append(data.dtype)
            return result(data, parents, backward)

        def recording_mult(pre, rate, rng):
            out = mult(pre, rate, rng)
            mults.append(out.dtype)
            return out

        def recording_step(self):
            updates.extend(p.grad.dtype for p in self.params)
            step(self)
            updates.extend(m.dtype for m in self.first_moment + self.second_moment)

        monkeypatch.setattr(nn, "_result", recording_result)
        monkeypatch.setattr(nn, "_relu_dropout_mult", recording_mult)
        monkeypatch.setattr(nn.Adam, "step", recording_step)
        inputs = taxonomy_inputs(ATTACK_SPECS[attack_id], np.random.default_rng(3))
        model = train_attack(attack_id, inputs, np.repeat([0, 1], 15), seed=3, epochs=3)
        monkeypatch.undo()
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
        assert set(outputs) == set(mults) == set(updates) == {np.dtype(np.float32)}
        assert len(mults) == 3 * sum(len(br.weights) for br in model.branches)
        assert link_scores(model, inputs).dtype == np.float64
        # the GNNs and their posteriors stay float64
        g, bundle, shadow, ds = pipeline
        assert {p.data.dtype for p in shadow.parameters()} == {np.dtype(np.float64)}
        post_u, post_v = PosteriorTable(shadow, ds.graph).pair_posteriors(ds.pairs[:5], 1)
        assert post_u.dtype == post_v.dtype == np.float64

    def test_input_too_large_for_float32_is_rejected_by_kind_and_row(self):
        rng = np.random.default_rng(1)
        inputs = taxonomy_inputs(ATTACK_SPECS["a9"], rng)
        assert np.isfinite(np.float64(1e39))
        inputs["node_attr"][3, 2] = 1e39
        labels = np.repeat([0, 1], 15)
        match = r"^node_attr input row 3 is not finite in float32$"
        with pytest.raises(ValueError, match=match):
            train_attack("a9", inputs, labels, seed=0, epochs=2)
        inputs["node_attr"][3, 2] = 0.0
        model = train_attack("a9", inputs, labels, seed=0, epochs=2)
        inputs["graph"][7, 0] = -np.inf
        with pytest.raises(ValueError, match=r"^graph input row 7 is not finite in float32$"):
            link_scores(model, inputs)


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(60, 5))
    labels = np.repeat([0, 1], 30)
    return train_attack("a0", {"posterior": x}, labels, seed=3, epochs=20)


class TestInferLink:
    """Scoring a single pair: ``link_scores`` on a one-row batch."""

    def test_equal_logits_half(self, model):
        # force the head to produce equal logits
        # the float32 logits, read in float64 as link_scores reads them
        logits = mlp_forward(model, {"posterior": np.zeros((1, 5))}).data.astype(np.float64)
        delta = logits[0, 1] - logits[0, 0]
        probs = 1.0 / (1.0 + np.exp(-delta))
        score = link_scores(model, {"posterior": np.zeros((1, 5))})[0]
        assert score == pytest.approx(float(probs), abs=1e-12)

    def test_scores_complement_to_one(self, model):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 5))
        from linklab import nn as nnmod

        logits = mlp_forward(model, {"posterior": x}).data.astype(np.float64)
        probs = nnmod.softmax_with_temperature(Tensor(logits), 1.0).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(link_scores(model, {"posterior": x}), probs[:, 1], atol=1e-15)

    def test_logit_closed_forms(self):
        from linklab import nn as nnmod

        even = nnmod.softmax_with_temperature(Tensor(np.array([[0.0, 0.0]])), 1.0).data
        assert even[0, 1] == pytest.approx(0.5, abs=1e-15)
        out = nnmod.softmax_with_temperature(Tensor(np.array([[-10.0, 10.0]])), 1.0).data
        assert out[0, 1] > 0.9999

    def test_shape_mismatch_rejected(self, model):
        with pytest.raises(ValueError):
            link_scores(model, {"posterior": np.zeros((1, 9))})


class TestEndToEndProperties:
    def test_order_invariance_quick(self, pipeline):
        g, bundle, shadow, ds = pipeline
        spec = spec_for("a1")
        inputs = attack_dataset_inputs(spec, PosteriorTable(shadow, ds.graph), ds.graph, ds.pairs)
        model = train_attack("a1", inputs, ds.labels, seed=5, epochs=40)
        rng = np.random.default_rng(11)

        def score(pair):
            table = PosteriorTable(shadow, ds.graph)
            return link_scores(model, attack_dataset_inputs(spec, table, ds.graph, [pair]))[0]

        for _ in range(20):
            u, v = ds.pairs[int(rng.integers(len(ds.pairs)))]
            assert score((u, v)) == score((v, u))
