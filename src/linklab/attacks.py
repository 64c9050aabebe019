"""The thirteen link-inference classifiers: Baselines 0-2 and Attacks 0-9.

Each classifier is a (possibly multi-input) MLP over the feature blocks
its threat model grants the adversary. Branch widths follow the published
architectures; the final head is always a two-unit linear layer read
through a softmax. The MLPs train and score in float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .defenses import DefenseConfig, label_only_feature, query_temperature
from .features import (
    PosteriorTable,
    graph_block,
    label_block_names,
    node_attr_block,
    pairwise_concat,
    posterior_block_names,
    transfer_block,
    transfer_block_names,
)
from .graph import Graph
from .nn import Parameter, Tensor
from .rng import stream


@dataclass(frozen=True)
class AttackSpec:
    """One row of the attack taxonomy: query hop plus active feature kinds."""

    attack_id: str
    hop: int | None
    uses_posteriors: bool
    uses_node_attrs: bool
    uses_graph_feats: bool


ATTACK_SPECS: dict[str, AttackSpec] = {
    "a0": AttackSpec("a0", 0, True, False, False),
    "a1": AttackSpec("a1", 1, True, False, False),
    "a2": AttackSpec("a2", 2, True, False, False),
    "a3": AttackSpec("a3", 0, True, True, False),
    "a4": AttackSpec("a4", 1, True, True, False),
    "a5": AttackSpec("a5", 2, True, True, False),
    "a6": AttackSpec("a6", 1, True, False, True),
    "a7": AttackSpec("a7", 2, True, False, True),
    "a8": AttackSpec("a8", 1, True, True, True),
    "a9": AttackSpec("a9", 2, True, True, True),
    "b0": AttackSpec("b0", None, False, True, False),
    "b1": AttackSpec("b1", None, False, False, True),
    "b2": AttackSpec("b2", None, False, True, True),
}

ALL_ATTACK_IDS = tuple(ATTACK_SPECS)

# Ordered (input kind, hidden widths) per classifier. The head takes the
# concatenated final widths down to two logits.
_BRANCH_PLANS: dict[str, tuple[tuple[str, tuple[int, ...]], ...]] = {
    "a0": (("posterior", (128, 32)),),
    "a1": (("posterior", (128, 32)),),
    "a2": (("posterior", (128, 32)),),
    "a3": (("node_attr", (128, 64, 16)), ("posterior", (64, 16))),
    "a4": (("node_attr", (128, 64, 16)), ("posterior", (64, 16))),
    "a5": (("node_attr", (128, 64, 16)), ("posterior", (64, 16))),
    "a6": (("graph", (16, 4)), ("posterior", (128, 64, 16))),
    "a7": (("graph", (16, 4)), ("posterior", (128, 64, 16))),
    "a8": (("node_attr", (128, 64, 16)), ("posterior", (128, 64, 16)), ("graph", (4,))),
    "a9": (("node_attr", (128, 64, 16)), ("posterior", (128, 64, 16)), ("graph", (4,))),
    "b0": (("node_attr", (128, 32)),),
    "b1": (("graph", (16,)),),
    "b2": (("node_attr", (256, 64, 8)), ("graph", (1,))),
}


def spec_for(attack_id: str) -> AttackSpec:
    if attack_id not in ATTACK_SPECS:
        raise ValueError(f"unknown attack id {attack_id!r}")
    return ATTACK_SPECS[attack_id]


@dataclass
class MlpBranch:
    kind: str
    widths: tuple[int, ...]
    weights: list[Parameter]
    biases: list[Parameter]


@dataclass
class MultiInputMlp:
    """Per-kind sub-networks whose embeddings feed one linear head."""

    attack_id: str
    branches: list[MlpBranch]
    head_w: Parameter
    head_b: Parameter
    input_dims: dict[str, int]

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for br in self.branches:
            out.extend(br.weights)
            out.extend(br.biases)
        out.extend([self.head_w, self.head_b])
        return out


def build_attack_model(attack_id: str, input_dims: dict[str, int],
                       rng: np.random.Generator) -> MultiInputMlp:
    """Instantiate the classifier for ``attack_id`` given its input widths."""
    spec = spec_for(attack_id)
    plan = _BRANCH_PLANS[attack_id]
    expected_kinds = {kind for kind, _ in plan}
    if set(input_dims) != expected_kinds:
        raise ValueError(
            f"{attack_id} expects inputs {sorted(expected_kinds)}, got {sorted(input_dims)}"
        )

    branches = []
    for kind, widths in plan:
        dims = (input_dims[kind],) + tuple(widths)
        weights = []
        biases = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w = nn.glorot_uniform(rng, fan_in, fan_out, (fan_in, fan_out))
            weights.append(Parameter(w.astype(np.float32)))
            biases.append(Parameter(np.zeros(fan_out, dtype=np.float32)))
        branches.append(MlpBranch(kind=kind, widths=tuple(widths), weights=weights, biases=biases))

    concat_dim = sum(br.widths[-1] for br in branches)
    head_w = Parameter(nn.glorot_uniform(rng, concat_dim, 2, (concat_dim, 2)).astype(np.float32))
    head_b = Parameter(np.zeros(2, dtype=np.float32))
    return MultiInputMlp(attack_id=spec.attack_id, branches=branches,
                         head_w=head_w, head_b=head_b, input_dims=dict(input_dims))


def mlp_forward(model: MultiInputMlp, inputs: dict[str, np.ndarray],
                rng: np.random.Generator | None = None, dropout_rate: float = 0.0) -> Tensor:
    """Logits for a batch of feature rows keyed by input kind; every hidden
    layer drops at ``dropout_rate``, which is 0 outside training."""
    if set(inputs) != {br.kind for br in model.branches}:
        raise ValueError(
            f"model expects inputs {sorted(br.kind for br in model.branches)}, "
            f"got {sorted(inputs)}"
        )
    embeddings = []
    for br in model.branches:
        x = np.asarray(inputs[br.kind], dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != model.input_dims[br.kind]:
            raise ValueError(
                f"input {br.kind} has shape {x.shape}, expected width {model.input_dims[br.kind]}"
            )
        h = Tensor(x)
        for w, b in zip(br.weights, br.biases):
            h = nn.dense_relu_dropout(h, w, b, dropout_rate, rng)
        embeddings.append(h)
    joined = embeddings[0] if len(embeddings) == 1 else nn.concat_cols(embeddings)
    return nn.add(nn.matmul(joined, model.head_w), model.head_b)


def attack_dataset_inputs(spec: AttackSpec, table: PosteriorTable | None, graph: Graph,
                          pairs, defense: DefenseConfig | None = None, transfer: bool = False,
                          pairwise: str = "all") -> dict[str, np.ndarray]:
    """One feature matrix per active input kind, one row per node pair of
    ``graph`` in the ``(m, 2)`` array ``pairs``; posteriors come from
    ``table``, bound to ``graph`` at the defense's query temperature."""
    pairs = np.asarray(pairs, dtype=np.int64)
    us, vs = pairs[:, 0], pairs[:, 1]
    if np.any(us == vs):
        raise ValueError("a pair needs two distinct nodes")
    if spec.uses_graph_feats and spec.hop == 0:
        raise ValueError(f"{spec.attack_id}: graph features unavailable at hop 0")
    if table is not None and table.graph is not graph:
        sizes = [f"{g.num_nodes} nodes, {g.num_edges} edges" for g in (table.graph, graph)]
        raise ValueError(f"posterior table graph ({sizes[0]}) is not the graph "
                         f"of the pairs ({sizes[1]})")
    out: dict[str, np.ndarray] = {}
    if spec.uses_posteriors:
        if table is None:
            raise ValueError("posterior features need a posterior table")
        if table.temperature != query_temperature(defense):
            raise ValueError(f"posterior table answers at temperature {table.temperature}, "
                             f"the defense at {query_temperature(defense)}")
        post_u, post_v = table.pair_posteriors(pairs, spec.hop)
        if defense is not None and defense.kind == "label_only":
            out["posterior"] = label_only_feature(post_u.argmax(axis=1), post_v.argmax(axis=1),
                                                  table.model.num_classes)
        elif transfer:
            out["posterior"] = transfer_block(post_u, post_v)
        else:
            out["posterior"] = pairwise_concat(post_u, post_v, pairwise)
    if spec.uses_node_attrs:
        out["node_attr"] = node_attr_block(graph.features[us], graph.features[vs])
    if spec.uses_graph_feats:
        out["graph"] = graph_block(graph, pairs)
    return out


def posterior_columns(num_classes: int, defense: DefenseConfig | None = None,
                      transfer: bool = False, pairwise: str = "all") -> list[str]:
    """Column names of the posterior block ``attack_dataset_inputs`` builds
    with the same defense, transfer and pairwise settings."""
    if defense is not None and defense.kind == "label_only":
        return label_block_names(num_classes)
    if transfer:
        return transfer_block_names()
    return posterior_block_names(num_classes, pairwise)


def _float32_inputs(inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The input blocks in float32, the MLPs' dtype; values not finite there are rejected."""
    with np.errstate(over="ignore"):
        out = {kind: np.asarray(mat, dtype=np.float32) for kind, mat in inputs.items()}
    for kind, x in out.items():
        bad = np.argwhere(~np.isfinite(x))
        if len(bad):
            raise ValueError(f"{kind} input row {bad[0, 0]} is not finite in float32")
    return out


def train_attack(attack_id: str, inputs: dict[str, np.ndarray], labels: np.ndarray,
                 seed: int, *, epochs: int = 200, learning_rate: float = 0.001,
                 dropout_rate: float = 0.5) -> MultiInputMlp:
    """Full-batch training with cosine-annealed Adam."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty attack dataset")
    pos = int((labels == 1).sum())
    neg = int((labels == 0).sum())
    if pos != neg:
        raise ValueError(f"attack training set must be balanced, got {pos} pos / {neg} neg")

    inputs = _float32_inputs(inputs)
    input_dims = {kind: mat.shape[1] for kind, mat in inputs.items()}
    model = build_attack_model(attack_id, input_dims, stream(seed, "init"))
    drop_rng = stream(seed, "dropout")
    optimizer = nn.Adam(model.parameters(), learning_rate=learning_rate)
    for epoch in range(epochs):
        optimizer.learning_rate = nn.cosine_anneal(learning_rate, epoch, epochs)
        logits = mlp_forward(model, inputs, drop_rng, dropout_rate)
        loss, _ = nn.softmax_cross_entropy(logits, labels)
        loss.backward()
        optimizer.step()
    return model


def link_scores(model: MultiInputMlp, inputs: dict[str, np.ndarray]) -> np.ndarray:
    """Per-pair link probability: the link class's softmax weight over float64 logits."""
    logits = mlp_forward(model, _float32_inputs(inputs)).data.astype(np.float64)
    probs = nn.softmax_with_temperature(Tensor(logits), 1.0).data
    return np.array(probs[:, 1])
