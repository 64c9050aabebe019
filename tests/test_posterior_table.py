"""The shared posterior table against the per-pair query path it replaces.

The reference here is the per-pair path: build both BFS subgraphs with the
attacked edge removed and run the oracle ``khop_query`` (a set-based BFS
and a dense forward) on each, once per pair. The table answers its queries
in batched passes, which sum in another order, so its rows match the
reference within ``TOLERANCE``; where the label-only defense takes an
argmax, it is compared wherever the reference's top two classes are more
than ``TIE_GAP`` apart.
"""

import numpy as np
import pytest
from gnn_oracles import khop_query
from graph_oracles import normalize_edge
from hypothesis import given, settings
from hypothesis import strategies as st

import linklab.experiment as experiment_module
from linklab.attacks import ATTACK_SPECS, attack_dataset_inputs, spec_for
from linklab.data import build_pair_dataset, generate_planted_partition
from linklab.defenses import DefenseConfig, label_only_feature, query_temperature
from linklab.experiment import ExperimentConfig, SyntheticSpec, run_experiment
from linklab.features import PASS_QUERIES, PosteriorTable, pairwise_concat
from linklab.gnn import ARCHITECTURES, init_gnn, train_gnn
from linklab.graph import Graph

DEFENSES = {
    "none": None,
    "soft_posterior": DefenseConfig(kind="soft_posterior", temperature=20.0),
    "label_only": DefenseConfig(kind="label_only"),
}
POSTERIOR_ATTACK_BY_HOP = {0: "a0", 1: "a1", 2: "a2"}
TOLERANCE = 1e-12
TIE_GAP = 1e-9


def reference_posterior(model, graph, center, hop, pair, temperature=1.0):
    return khop_query(model, graph, center, hop, exclude=pair, temperature=temperature)


def reference_feature(model, graph, u, v, hop, defense):
    """The per-pair defended query: two fresh subgraphs, two forwards."""
    if defense is not None and defense.kind == "label_only":
        labels = [int(np.argmax(reference_posterior(model, graph, c, hop, (u, v))))
                  for c in (u, v)]
        return label_only_feature(labels[0], labels[1], model.num_classes)
    t = query_temperature(defense)
    return pairwise_concat(reference_posterior(model, graph, u, hop, (u, v), t),
                           reference_posterior(model, graph, v, hop, (u, v), t))


def top_two_gap(post):
    top = np.sort(post)[-2:]
    return top[1] - top[0]


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
            got = attack_dataset_inputs(spec_for(attack_id), table, graph, pairs,
                                        defense=defense)["posterior"]
            decided = []
            for u, v in pairs:
                for c, (post,) in zip((u, v), table.pair_posteriors(np.array([(u, v)]), hop)):
                    expected = reference_posterior(model, graph, c, hop, (u, v), table.temperature)
                    np.testing.assert_allclose(post, expected, rtol=0, atol=TOLERANCE)
                decided.append(min(top_two_gap(reference_posterior(model, graph, c, hop, (u, v)))
                                   for c in (u, v)) > TIE_GAP)
            expected = np.array([reference_feature(model, graph, u, v, hop, defense)
                                 for u, v in pairs])
            if defense is not None and defense.kind == "label_only":
                assert any(decided)
                assert np.array_equal(got[decided], expected[decided])
            else:
                np.testing.assert_allclose(got, expected, rtol=0, atol=TOLERANCE)

    def test_temperature_must_match_defense(self, graph, models):
        table = PosteriorTable(models["sage"], graph)
        soft = DEFENSES["soft_posterior"]
        with pytest.raises(ValueError, match="temperature"):
            attack_dataset_inputs(spec_for("a1"), table, graph, [(0, 1)], defense=soft)
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="temperature must be finite and positive"):
                PosteriorTable(models["sage"], graph, bad)

    def test_out_of_range_pair_named_before_any_pass(self, graph, models):
        table = PosteriorTable(models["sage"], graph)
        for bad in ([(0, 1), (3, 72)], [(-1, 5)]):
            with pytest.raises(ValueError, match=r"pair \((3, 72|-1, 5)\) has a node outside \[0, 72\)"):
                table.pair_posteriors(np.array(bad), 1)
        with pytest.raises(ValueError, match="hop count"):
            table.pair_posteriors(np.array([(0, 1)]), 3)
        assert table.counts.passes == 0


    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_non_finite_logits_raise(self, graph, arch):
        model = init_gnn(arch, graph.feature_dim, 3, np.random.default_rng(0), hidden=8)
        for param in model.layer2.parameters():
            param.data = np.full_like(param.data, 1e308)
        table = PosteriorTable(model, graph)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            table.pair_posteriors(np.array([(0, 1)]), 1)
        assert table.counts.computed == 0


@pytest.fixture(scope="module")
def small_models():
    g = generate_planted_partition(40, 3, 0.25, 0.02, 4, 1.0, seed=23)
    return {arch: train_gnn(g, arch, seed=1, hidden=8, epochs=15) for arch in ARCHITECTURES}


@st.composite
def query_graphs(draw):
    """A graph with explicit self-loops and isolated nodes, and pairs in
    both orientations with repeats."""
    linked = draw(st.integers(2, 14))
    n = linked + draw(st.integers(1, 3))  # the last nodes have no edges
    node = st.integers(0, linked - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * linked))
    edges += [(v, v) for v in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))]
    features = np.array(draw(st.lists(st.floats(-2, 2), min_size=4 * n, max_size=4 * n)))
    graph = Graph(num_nodes=n, edges=edges, features=features.reshape(n, 4),
                  labels=np.zeros(n, dtype=int))
    any_node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(any_node, any_node).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=12))
    return graph, pairs + [(v, u) for u, v in pairs] + pairs[:2]


class TestBatchedPasses:
    @settings(max_examples=80, deadline=None)
    @given(case=query_graphs(), arch=st.sampled_from(ARCHITECTURES),
           hop=st.sampled_from((0, 1, 2)), temperature=st.sampled_from((1.0, 20.0)))
    def test_matches_per_query_oracle(self, small_models, case, arch, hop, temperature):
        graph, pairs = case
        model = small_models[arch]
        table = PosteriorTable(model, graph, temperature)
        post_u, post_v = table.pair_posteriors(np.array(pairs), hop)
        argmax_u, argmax_v = PosteriorTable(model, graph).pair_posteriors(np.array(pairs), hop)
        for i, (u, v) in enumerate(pairs):
            for c, got, label_row in ((u, post_u[i], argmax_u[i]), (v, post_v[i], argmax_v[i])):
                excl = (u, v) if hop and graph.has_edge(u, v) else None
                expected = khop_query(model, graph, c, hop, exclude=excl, temperature=temperature)
                np.testing.assert_allclose(got, expected, rtol=0, atol=TOLERANCE)
                # the label-only defense answers with the argmax at temperature 1
                at_one = khop_query(model, graph, c, hop, exclude=excl)
                if top_two_gap(at_one) > TIE_GAP:
                    assert np.argmax(label_row) == np.argmax(at_one)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_row_does_not_depend_on_its_pass(self, graph, models, arch):
        pairs = np.array(build_pair_dataset(graph, seed=1).pairs)
        assert len(pairs) > 2 * PASS_QUERIES
        for hop in (0, 1, 2):
            large = PosteriorTable(models[arch], graph)
            large_u, large_v = large.pair_posteriors(pairs, hop)
            assert large.counts.passes > 1  # the first pass is full
            small = PosteriorTable(models[arch], graph)
            small_u, small_v = small.pair_posteriors(pairs[:3], hop)
            alone = PosteriorTable(models[arch], graph)
            for i in range(3):
                (alone_u,), (alone_v,) = alone.pair_posteriors(pairs[i:i + 1], hop)
                for row, small_row, single in ((large_u[i], small_u[i], alone_u),
                                               (large_v[i], small_v[i], alone_v)):
                    np.testing.assert_allclose(row, single, rtol=0, atol=TOLERANCE)
                    np.testing.assert_allclose(small_row, single, rtol=0, atol=TOLERANCE)

    def test_same_pairs_give_same_bits(self, graph, models):
        pairs = np.array(build_pair_dataset(graph, seed=2).pairs)
        for arch in ARCHITECTURES:
            first, second = (PosteriorTable(models[arch], graph, 20.0) for _ in range(2))
            for hop in (2, 0, 1):
                for a, b in zip(first.pair_posteriors(pairs, hop),
                                second.pair_posteriors(pairs, hop)):
                    assert a.tobytes() == b.tobytes()
            assert first.counts == second.counts


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
            moved = 0.0
            for hop in (1, 2):
                for c, (got,) in zip((u, v), table.pair_posteriors(np.array([(u, v)]), hop)):
                    expected = khop_query(model, without, c, hop)
                    np.testing.assert_allclose(got, expected, rtol=0, atol=TOLERANCE)
                    # paired with a non-neighbor, the center keeps every edge
                    other = next(w for w in range(graph.num_nodes)
                                 if w != c and not graph.has_edge(c, w))
                    kept_edge = table.pair_posteriors(np.array([(c, other)]), hop)[0][0]
                    moved = max(moved, np.abs(kept_edge - got).max())
            # keeping the edge changes some answer of the pair far beyond the
            # tolerance (ReLU-clipped class scores can hide it at one center)
            assert moved > 1e6 * TOLERANCE

    def test_each_distinct_query_computed_once_per_run(self, monkeypatch):
        tables = []

        class RecordedTable(PosteriorTable):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tables.append(self)

        monkeypatch.setattr(experiment_module, "PosteriorTable", RecordedTable)
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(nodes=100, communities=3, p_in=0.15, p_out=0.01,
                                    feature_dim=8),
            attacks=tuple(ATTACK_SPECS), runs=1, seed=2, epochs=10, attack_epochs=5, hidden=16,
        )
        art = run_experiment(cfg, keep_artifacts=True).artifacts

        shadow_table, target_table = tables
        assert (shadow_table.model, target_table.model) == (art.shadow, art.target)
        for table, dataset in ((shadow_table, art.attack_train), (target_table, art.attack_test)):
            g, pairs = dataset.graph, dataset.pairs.tolist()
            assert table.graph is g
            expected = {hop: set() for hop in (0, 1, 2)}
            for u, v in pairs:
                for hop in (0, 1, 2):
                    excl = normalize_edge(u, v) if hop > 0 and g.has_edge(u, v) else None
                    expected[hop].update((c, excl) for c in (u, v))
            counts = table.counts
            assert counts.computed == sum(map(len, expected.values()))
            # one call per hop found its keys missing; the others hit
            assert counts.passes == sum(-(-len(keys) // PASS_QUERIES)
                                        for keys in expected.values())
            assert counts.lookups > counts.computed
            assert counts.lookups % (2 * len(pairs)) == 0

    def test_table_on_another_graph_rejected(self, graph, models):
        shadow_pairs = build_pair_dataset(graph, seed=1)
        other = generate_planted_partition(40, 3, 0.2, 0.02, 8, 1.0, seed=4)
        target_table = PosteriorTable(models["sage"], other)
        with pytest.raises(ValueError, match=r"table graph \(40 nodes.*graph of the pairs \(72 nodes"):
            attack_dataset_inputs(spec_for("a1"), target_table, shadow_pairs.graph,
                                  shadow_pairs.pairs)
