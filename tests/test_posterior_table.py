"""The shared posterior table against the per-pair query path it replaces.

The reference here is the per-pair path: build both BFS subgraphs with the
attacked edge removed and run ``khop_query`` on each, once per pair.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linklab.features as features_module
from linklab.attacks import ALL_ATTACK_IDS, attack_dataset_inputs, spec_for
from linklab.data import build_pair_dataset, generate_planted_partition
from linklab.defenses import DefenseConfig, label_only_feature, query_temperature
from linklab.experiment import ExperimentConfig, SyntheticSpec, run_experiment
from linklab.features import PosteriorTable, pairwise_concat
from linklab.gnn import ARCHITECTURES, khop_query, train_gnn
from linklab.graph import Graph, khop_subgraph, normalize_edge

DEFENSES = {
    "none": None,
    "soft_posterior": DefenseConfig(kind="soft_posterior", temperature=20.0),
    "label_only": DefenseConfig(kind="label_only"),
}
POSTERIOR_ATTACK_BY_HOP = {0: "a0", 1: "a1", 2: "a2"}


def reference_posterior(model, graph, center, hop, pair, temperature=1.0):
    return khop_query(model, khop_subgraph(graph, center, hop, exclude=pair), temperature)


def reference_feature(model, graph, u, v, hop, defense):
    """The per-pair defended query: two fresh subgraphs, two forwards."""
    if defense is not None and defense.kind == "label_only":
        labels = [int(np.argmax(reference_posterior(model, graph, c, hop, (u, v))))
                  for c in (u, v)]
        return label_only_feature(labels[0], labels[1], model.num_classes)
    t = query_temperature(defense)
    return pairwise_concat(reference_posterior(model, graph, u, hop, (u, v), t),
                           reference_posterior(model, graph, v, hop, (u, v), t))


@pytest.fixture(scope="module")
def graph():
    return generate_planted_partition(72, 3, 0.2, 0.02, 8, 1.0, seed=19)


@pytest.fixture(scope="module")
def models(graph):
    return {arch: train_gnn(graph, arch, seed=3, hidden=16, epochs=15) for arch in ARCHITECTURES}


def sample_pairs(graph, count=4):
    """``count`` edges and ``count`` non-edges, in both orientations."""
    rng = np.random.default_rng(5)
    edges = [tuple(e) for e in graph.edges.tolist() if e[0] != e[1]]
    picked = [edges[i] for i in rng.choice(len(edges), size=count, replace=False)]
    non_edges = []
    while len(non_edges) < count:
        u, v = (int(x) for x in rng.choice(graph.num_nodes, size=2, replace=False))
        if not graph.has_edge(u, v):
            non_edges.append((u, v))
    pairs = picked + non_edges
    return pairs + [(v, u) for u, v in pairs]


class TestOracle:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("defense_name", sorted(DEFENSES))
    def test_table_bitwise_equals_per_pair_path(self, graph, models, arch, defense_name):
        model = models[arch]
        defense = DEFENSES[defense_name]
        # one table shared by every pair and hop, as in a run
        table = PosteriorTable(model, graph, query_temperature(defense))
        pairs = sample_pairs(graph)
        assert any(graph.has_edge(u, v) for u, v in pairs)
        assert any(not graph.has_edge(u, v) for u, v in pairs)
        for hop, attack_id in POSTERIOR_ATTACK_BY_HOP.items():
            for u, v in pairs:
                for c in (u, v):
                    expected = reference_posterior(model, graph, c, hop, (u, v), table.temperature)
                    assert np.array_equal(table.query(c, hop, (u, v)), expected)
            got = attack_dataset_inputs(spec_for(attack_id), table, graph, pairs,
                                        defense=defense)["posterior"]
            expected = [reference_feature(model, graph, u, v, hop, defense) for u, v in pairs]
            assert np.array_equal(got, np.array(expected))

    def test_stored_posteriors_are_read_only(self, graph, models):
        table = PosteriorTable(models["sage"], graph)
        post = table.query(0, 1)
        assert not post.flags.writeable
        assert table.query(0, 1) is post

    def test_temperature_must_match_defense(self, graph, models):
        table = PosteriorTable(models["sage"], graph)
        soft = DEFENSES["soft_posterior"]
        with pytest.raises(ValueError, match="temperature"):
            attack_dataset_inputs(spec_for("a1"), table, graph, [(0, 1)], defense=soft)
        with pytest.raises(ValueError):
            PosteriorTable(models["sage"], graph, 0.0)


class TestSymmetryProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           arch=st.sampled_from(ARCHITECTURES),
           hop=st.sampled_from((0, 1, 2)),
           defense_name=st.sampled_from(sorted(DEFENSES)))
    def test_swapped_pair_bitwise_equal(self, graph, models, data, arch, hop, defense_name):
        u = data.draw(st.integers(0, graph.num_nodes - 1), label="u")
        v = data.draw(st.integers(0, graph.num_nodes - 1).filter(lambda x: x != u), label="v")
        defense = DEFENSES[defense_name]
        spec = spec_for(POSTERIOR_ATTACK_BY_HOP[hop])

        def feature(pair):
            table = PosteriorTable(models[arch], graph, query_temperature(defense))
            return attack_dataset_inputs(spec, table, graph, [pair], defense=defense)["posterior"]

        assert np.array_equal(feature((u, v)), feature((v, u)))


class TestThreatModel:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_attacked_edge_never_reaches_the_model(self, graph, models, arch):
        model = models[arch]
        table = PosteriorTable(model, graph)
        for u, v in sample_pairs(graph)[:4]:
            assert graph.has_edge(u, v)
            kept = ~np.all(graph.edges == normalize_edge(u, v), axis=1)
            without = Graph(num_nodes=graph.num_nodes, edges=graph.edges[kept],
                            features=graph.features, labels=graph.labels)
            for hop in (1, 2):
                for c in (u, v):
                    expected = khop_query(model, khop_subgraph(without, c, hop))
                    assert np.array_equal(table.query(c, hop, (u, v)), expected)

    def test_each_distinct_query_computed_once_per_run(self, monkeypatch):
        computed = []
        original = features_module.khop_query

        def counting(model, sub, temperature=1.0):
            computed.append((id(model), temperature, sub.center, sub.hop, sub.nodes, sub.edges))
            return original(model, sub, temperature)

        monkeypatch.setattr(features_module, "khop_query", counting)
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(nodes=100, communities=3, p_in=0.15, p_out=0.01,
                                    feature_dim=8),
            attacks=ALL_ATTACK_IDS, runs=1, seed=2, epochs=10, attack_epochs=5, hidden=16,
        )
        art = run_experiment(cfg, keep_artifacts=True).artifacts

        expected = set()
        for side, dataset in (("shadow", art.attack_train), ("target", art.attack_test)):
            g = dataset.graph
            for u, v in dataset.pairs.tolist():
                for hop in (0, 1, 2):
                    excl = normalize_edge(u, v) if hop > 0 and g.has_edge(u, v) else None
                    expected.update((side, c, hop, excl) for c in (u, v))
        assert len(computed) == len(set(computed))
        assert len(computed) == len(expected)
        assert {id(art.shadow), id(art.target)} == {key[0] for key in computed}

    def test_table_on_another_graph_rejected(self, graph, models):
        shadow_pairs = build_pair_dataset(graph, seed=1)
        other = generate_planted_partition(40, 3, 0.2, 0.02, 8, 1.0, seed=4)
        target_table = PosteriorTable(models["sage"], other)
        with pytest.raises(ValueError, match=r"table graph \(40 nodes.*graph of the pairs \(72 nodes"):
            attack_dataset_inputs(spec_for("a1"), target_table, shadow_pairs.graph,
                                  shadow_pairs.pairs)
