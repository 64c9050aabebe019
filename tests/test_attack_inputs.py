"""The array feature builder and pair sampler against the per-pair paths
they replace.

The references below are the earlier implementations, kept verbatim in
behaviour: one feature dict per pair built from single posterior lookups,
and negative sampling from a Python list of every non-edge. The builder
and the sampler must match them bitwise, except for posterior features: a
single lookup is a pass of its own, whose last bits may differ from those
of a batched pass, so those match within ``POSTERIOR_TOLERANCE``.
"""

import feature_oracles
import numpy as np
import pytest
from graph_oracles import adjacency_sets, proximity_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from linklab.attacks import ATTACK_SPECS, attack_dataset_inputs, spec_for
from linklab.data import build_pair_dataset, generate_planted_partition
from linklab.defenses import DefenseConfig, label_only_feature, query_temperature
from linklab.features import (
    PAIRWISE_OP_NAMES,
    PosteriorTable,
    node_attr_block,
    pairwise_concat,
)
from linklab.gnn import train_gnn
from linklab.graph import Graph
from linklab.rng import stream

POSTERIOR_TOLERANCE = 1e-12

# name -> (defense, transfer)
MODES = {
    "none": (None, False),
    "soft": (DefenseConfig(kind="soft_posterior", temperature=20.0), False),
    "label_only": (DefenseConfig(kind="label_only"), False),
    "transfer": (None, True),
}


def reference_features(spec, table, graph, pair, defense=None, transfer=False, pairwise="all"):
    """One feature vector per active input kind for a single pair."""
    u, v = pair
    out = {}
    if spec.uses_posteriors:
        (post_u,), (post_v,) = table.pair_posteriors(np.array([pair]), spec.hop)
        if defense is not None and defense.kind == "label_only":
            out["posterior"] = label_only_feature(
                int(np.argmax(post_u)), int(np.argmax(post_v)), table.model.num_classes
            )
        elif transfer:
            out["posterior"] = feature_oracles.transfer_block(post_u, post_v)
        else:
            out["posterior"] = pairwise_concat(post_u, post_v, pairwise)
    if spec.uses_node_attrs:
        out["node_attr"] = node_attr_block(graph.features[u], graph.features[v])
    if spec.uses_graph_feats:
        cn, jaccard, pa = proximity_oracle(adjacency_sets(graph), u, v)
        out["graph"] = np.array([float(cn), jaccard, float(pa)])
    return out


def reference_pair_dataset(g, seed):
    """Pairs and labels of the candidate-list sampler, as two lists."""
    positives = sorted(tuple(e) for e in g.edges.tolist() if e[0] != e[1])
    if not positives:
        raise ValueError("graph has no edges to use as positive pairs")
    n = g.num_nodes
    if n * (n - 1) // 2 - len(positives) < len(positives):
        raise ValueError("graph too dense")
    rng = stream(seed, "negative-sample")
    edge_set = set(positives)
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edge_set]
    chosen = rng.choice(len(candidates), size=len(positives), replace=False)
    negatives = [candidates[i] for i in sorted(int(c) for c in chosen)]
    labeled = [(u, v, 1) for u, v in positives] + [(u, v, 0) for u, v in negatives]
    order = stream(seed, "pair-shuffle").permutation(len(labeled))
    return [labeled[i][:2] for i in order], [labeled[i][2] for i in order]


@pytest.fixture(scope="module")
def setup():
    graph = generate_planted_partition(60, 3, 0.2, 0.02, 6, 1.0, seed=13)
    model = train_gnn(graph, "sage", seed=2, hidden=16, epochs=15)
    dataset = build_pair_dataset(graph, seed=3)
    assert set(dataset.labels[:16].tolist()) == {0, 1}
    return graph, model, dataset.pairs[:16]


class TestBuilderOracle:
    @pytest.mark.parametrize("pairwise", ("all",) + PAIRWISE_OP_NAMES)
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_bitwise_equals_per_pair_path(self, setup, mode, pairwise):
        graph, model, pairs = setup
        defense, transfer = MODES[mode]
        temperature = query_temperature(defense)
        table = PosteriorTable(model, graph, temperature)
        reference_table = PosteriorTable(model, graph, temperature)
        for oriented in (pairs, pairs[:, ::-1]):
            for attack_id in ATTACK_SPECS:
                spec = spec_for(attack_id)
                got = attack_dataset_inputs(spec, table, graph, oriented, defense=defense,
                                            transfer=transfer, pairwise=pairwise)
                rows = [reference_features(spec, reference_table, graph, pair, defense=defense,
                                           transfer=transfer, pairwise=pairwise)
                        for pair in map(tuple, oriented.tolist())]
                assert set(got) == set(rows[0])
                for kind, matrix in got.items():
                    expected = np.vstack([row[kind] for row in rows])
                    assert matrix.dtype == expected.dtype
                    if kind == "posterior":
                        np.testing.assert_allclose(matrix, expected, rtol=0,
                                                   atol=POSTERIOR_TOLERANCE,
                                                   err_msg=attack_id)
                    else:
                        assert np.array_equal(matrix, expected), (attack_id, kind)


class TestSamplerOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(3, 24), seed=st.integers(0, 2**32 - 1))
    def test_equals_candidate_list_sampler(self, data, n, seed):
        cells = [(u, v) for u in range(n) for v in range(u + 1, n)]
        present = data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
        edges = [(u, v) for (u, v), p in zip(cells, present) if p]
        g = Graph(num_nodes=n, edges=edges, features=np.zeros((n, 2)),
                  labels=np.zeros(n, dtype=int))
        try:
            pairs, labels = reference_pair_dataset(g, seed)
        except ValueError:
            with pytest.raises(ValueError):
                build_pair_dataset(g, seed)
            return
        ds = build_pair_dataset(g, seed)
        assert ds.pairs.dtype == np.int64 and ds.labels.dtype == np.int64
        assert ds.pairs.tolist() == [list(p) for p in pairs]
        assert ds.labels.tolist() == labels
        assert not ds.pairs.flags.writeable and not ds.labels.flags.writeable
