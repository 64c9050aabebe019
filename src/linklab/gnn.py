"""Inductive GNN layer kernels, two-layer models, training, and posteriors.

``layer_forward`` is the one forward of every layer kind. It reads the
neighborhood off a ``MessageStructure``, the one place that adds a
self-loop to every node, so whole-graph training, accuracy and a posterior
table's batched queries (``features.PosteriorTable``, over the disjoint
union of the query subgraphs) all run the same arithmetic. ``posteriors``
turns class scores into checked posteriors at an output temperature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checkpoint
from . import nn
from .graph import Graph
from .nn import Parameter, Tensor
from .rng import stream

ARCHITECTURES = ("gcn", "sage", "gat", "gin")

HIDDEN_UNITS = 128
GAT_HEADS = (2, 1)
LEAKY_SLOPE = 0.2


# A structure with fewer than n² / SPARSE_RATIO self-looped entries
# aggregates over CSR rows; a denser one multiplies n×n matrices. 64 is the
# measured crossover of mean aggregation at width 7 (numpy 2.4 on a 2-core
# x86 host): a dense product costs about 1.1 ns per n×n cell, a CSR gather
# and row sum about 60 ns per entry, and 60 / 1.1 ≈ 55.
SPARSE_RATIO = 64


class MessageStructure:
    """Neighborhood aggregation over one fixed node set.

    Built from an ``(E, 2)`` array-like of node pairs, in either
    orientation, with a self-loop forced onto every node. Every structure
    keeps CSR rows ``indptr`` and ``indices`` (ascending within a row) with
    the degrees ``deg``; GAT attends over them (``attend``). ``aggregate``
    averages or sums over each neighborhood, on a path chosen once from the
    entry count ``n + 2 * (non-loop pairs)``, exact for distinct pairs such
    as a ``Graph`` holds:

    - sparse: a gather and row sum over the CSR rows, and no n×n array;
    - dense: ``mean_mat``, which row-normalizes over the neighborhood, and
      ``sum_mat``, which sums it; on the sparse path both are ``None``.
    """

    def __init__(self, num_nodes: int, edges):
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= num_nodes):
            u, v = pairs[((pairs < 0) | (pairs >= num_nodes)).any(axis=1)][0]
            raise ValueError(f"edge ({u}, {v}) outside node range")
        n = num_nodes
        u, v = pairs.T
        self.num_nodes = n
        self.mean_mat = self.sum_mat = None
        self._fixed: dict[str, tuple[np.ndarray, Tensor]] = {}
        # entries >= n, so a structure of at most SPARSE_RATIO nodes is dense
        # without counting
        if n > SPARSE_RATIO and SPARSE_RATIO * (n + 2 * np.count_nonzero(u != v)) < n * n:
            loops = np.arange(n, dtype=np.int64) * (n + 1)
            cells = np.unique(np.concatenate([u * n + v, v * n + u, loops]))
            src, self.indices = np.divmod(cells, n)
            counts = np.bincount(src, minlength=n)
        else:
            adj = np.zeros((n, n), dtype=bool)
            adj[u, v] = True
            adj[v, u] = True
            np.fill_diagonal(adj, True)
            self.indices = np.flatnonzero(adj)
            self.indices %= n
            counts = adj.sum(axis=1)
            dense = adj.astype(np.float64)
            self.mean_mat = Tensor(dense / counts[:, None])
            self.sum_mat = Tensor(dense)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        self.deg = counts.astype(np.float64)

    def aggregate(self, op: str, z: Tensor) -> Tensor:
        """The neighborhood mean (``op="mean"``) or sum (``op="sum"``) of
        every row of ``z``, as one taped op: ``nn.csr_row_sum`` on a sparse
        structure, ``mean_mat @ z`` or ``sum_mat @ z`` on a dense one."""
        if self.mean_mat is not None:
            return nn.matmul(self.mean_mat if op == "mean" else self.sum_mat, z)
        return nn.csr_row_sum(z, self.indptr, self.indices, self.deg if op == "mean" else None)

    def fixed_aggregate(self, op: str, h: Tensor) -> Tensor:
        """``aggregate(op, h)`` for a gradient-free input.

        A read-only array, such as a graph's frozen feature matrix, cannot
        change, so its aggregate is computed once and kept here until another
        array arrives; a writable one is aggregated afresh on every call.
        """
        if h.data.flags.writeable:
            return self.aggregate(op, h)
        hit = self._fixed.get(op)
        if hit is None or hit[0] is not h.data:
            hit = self._fixed[op] = (h.data, self.aggregate(op, h))
        return hit[1]

    def attend(self, z: Tensor, a_dst: Tensor, a_src: Tensor) -> Tensor:
        """One GAT head over every neighborhood (``nn.csr_attention``), on
        either path."""
        return nn.csr_attention(z, a_dst, a_src, self.indptr, self.indices, LEAKY_SLOPE)


@dataclass
class GnnLayer:
    """One message-passing layer; ``params`` holds its named weights."""

    kind: str
    in_dim: int
    out_dim: int
    heads: int
    params: dict[str, Parameter]

    def parameters(self) -> list[Parameter]:
        return [self.params[name] for name in sorted(self.params)]


def _make_layer(kind: str, in_dim: int, out_dim: int, heads: int, rng: np.random.Generator) -> GnnLayer:
    if kind not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {kind!r}")
    params: dict[str, Parameter] = {}
    if kind == "gcn":
        params["w"] = Parameter(nn.glorot_uniform(rng, in_dim, out_dim, (in_dim, out_dim)))
    elif kind == "sage":
        params["w"] = Parameter(nn.glorot_uniform(rng, 2 * in_dim, out_dim, (2 * in_dim, out_dim)))
    elif kind == "gat":
        if out_dim % heads != 0:
            raise ValueError(f"out_dim {out_dim} not divisible by {heads} heads")
        head_dim = out_dim // heads
        for h in range(heads):
            params[f"w{h}"] = Parameter(nn.glorot_uniform(rng, in_dim, head_dim, (in_dim, head_dim)))
            params[f"a_dst{h}"] = Parameter(nn.glorot_uniform(rng, head_dim, 1, (head_dim, 1)))
            params[f"a_src{h}"] = Parameter(nn.glorot_uniform(rng, head_dim, 1, (head_dim, 1)))
    elif kind == "gin":
        params["eps"] = Parameter(np.zeros(1))
        params["w1"] = Parameter(nn.glorot_uniform(rng, in_dim, out_dim, (in_dim, out_dim)))
        params["b1"] = Parameter(np.zeros(out_dim))
        params["w2"] = Parameter(nn.glorot_uniform(rng, out_dim, out_dim, (out_dim, out_dim)))
        params["b2"] = Parameter(np.zeros(out_dim))
    return GnnLayer(kind=kind, in_dim=in_dim, out_dim=out_dim, heads=heads, params=params)


def layer_forward(layer: GnnLayer, h: Tensor, structure,
                  rng: np.random.Generator | None = None, dropout_rate: float = 0.0) -> Tensor:
    """Run one layer over the nodes described by ``structure``.

    ``structure`` is a MessageStructure. One ``nn.relu_dropout`` follows
    aggregation; it drops at ``dropout_rate``, which is 0 outside training.

    Each mean or sum aggregation runs at a narrow width. A gradient-free
    input is the fixed feature matrix of the first layer: it is aggregated
    (once per structure when read-only, see
    ``MessageStructure.fixed_aggregate``), then projected. A gradient-carrying input is the hidden matrix of the second
    layer: it is projected to the class count first, and the projection is
    aggregated, as in GCN's ``A(HW)``.
    """
    if h.data.ndim != 2 or h.data.shape[0] != structure.num_nodes:
        raise ValueError(
            f"feature rows {h.data.shape} do not match {structure.num_nodes} nodes"
        )
    if h.data.shape[1] != layer.in_dim:
        raise ValueError(f"feature dim {h.data.shape[1]} != layer in_dim {layer.in_dim}")
    fixed = not h.requires_grad

    if layer.kind == "gcn":
        w = layer.params["w"]
        if fixed:
            out = nn.matmul(structure.fixed_aggregate("mean", h), w)
        else:
            out = structure.aggregate("mean", nn.matmul(h, w))
    elif layer.kind == "sage":
        w = layer.params["w"]
        if fixed:
            out = nn.matmul(nn.concat_cols([h, structure.fixed_aggregate("mean", h)]), w)
        else:
            d = layer.in_dim
            own = nn.matmul(h, nn.row_slice(w, 0, d))
            neighbors = nn.matmul(h, nn.row_slice(w, d, 2 * d))
            out = nn.add(own, structure.aggregate("mean", neighbors))
    elif layer.kind == "gat":
        head_outs = [structure.attend(nn.matmul(h, layer.params[f"w{i}"]),
                                      layer.params[f"a_dst{i}"], layer.params[f"a_src{i}"])
                     for i in range(layer.heads)]
        out = head_outs[0] if len(head_outs) == 1 else nn.concat_cols(head_outs)
    elif layer.kind == "gin":
        w1, eps = layer.params["w1"], layer.params["eps"]
        if fixed:
            summed = nn.add(structure.fixed_aggregate("sum", h), nn.scalar_mul(h, eps))
            projected = nn.matmul(summed, w1)
        else:
            z = nn.matmul(h, w1)
            projected = nn.add(structure.aggregate("sum", z), nn.scalar_mul(z, eps))
        hidden = nn.relu_dropout(nn.add(projected, layer.params["b1"]))
        out = nn.add(nn.matmul(hidden, layer.params["w2"]), layer.params["b2"])
    else:
        raise ValueError(f"unknown layer kind {layer.kind!r}")

    return nn.relu_dropout(out, dropout_rate, rng)


@dataclass
class TrainedGnn:
    """A two-layer node classifier; immutable once training finishes."""

    arch: str
    layer1: GnnLayer
    layer2: GnnLayer
    num_classes: int
    in_dim: int

    def parameters(self) -> list[Parameter]:
        return self.layer1.parameters() + self.layer2.parameters()


def init_gnn(arch: str, in_dim: int, num_classes: int, rng: np.random.Generator,
             hidden: int = HIDDEN_UNITS) -> TrainedGnn:
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}")
    heads1, heads2 = GAT_HEADS if arch == "gat" else (1, 1)
    layer1 = _make_layer(arch, in_dim, hidden, heads1, rng)
    layer2 = _make_layer(arch, hidden, num_classes, heads2, rng)
    return TrainedGnn(arch=arch, layer1=layer1, layer2=layer2,
                      num_classes=num_classes, in_dim=in_dim)


def gnn_forward(model: TrainedGnn, h0: Tensor, structure,
                rng: np.random.Generator | None = None, dropout_rate: float = 0.0) -> Tensor:
    """Two-layer pass; dropout regularizes only the hidden layer, the class
    scores themselves are never dropped."""
    h1 = layer_forward(model.layer1, h0, structure, rng, dropout_rate)
    return layer_forward(model.layer2, h1, structure)


def train_gnn(train_graph: Graph, arch: str, seed: int, *, num_classes: int | None = None,
              hidden: int = HIDDEN_UNITS, epochs: int = 200, learning_rate: float = 0.001,
              dropout_rate: float = 0.5) -> TrainedGnn:
    """Full-batch training over the whole training graph.

    Every node is a center simultaneously; the k-hop query path is used
    only at inference time.
    """
    classes = train_graph.num_classes if num_classes is None else int(num_classes)
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if train_graph.labels.max() >= classes:
        raise ValueError("label outside declared class range")

    init_rng = stream(seed, "init")
    drop_rng = stream(seed, "dropout")
    model = init_gnn(arch, train_graph.feature_dim, classes, init_rng, hidden=hidden)
    structure = MessageStructure(train_graph.num_nodes, train_graph.edges)
    h0 = Tensor(train_graph.features)
    optimizer = nn.Adam(model.parameters(), learning_rate=learning_rate)
    for _ in range(epochs):
        logits = gnn_forward(model, h0, structure, drop_rng, dropout_rate)
        loss, _ = nn.softmax_cross_entropy(logits, train_graph.labels)
        loss.backward()
        optimizer.step()
    return model


def posteriors(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Row-wise ``softmax(logits / temperature)`` of finite class scores,
    each row checked to be a probability distribution."""
    post = nn.softmax_with_temperature(Tensor(logits), temperature).data
    if (np.abs(post.sum(axis=1) - 1.0) > 1e-9).any() or (post < 0.0).any():
        raise FloatingPointError("posterior failed normalization check")
    return post


def evaluate_accuracy(model: TrainedGnn, g: Graph) -> float:
    """Whole-graph classification accuracy (dropout off, self-loops added)."""
    structure = MessageStructure(g.num_nodes, g.edges)
    logits = gnn_forward(model, Tensor(g.features), structure)
    predictions = np.argmax(logits.data, axis=1)
    return float(np.mean(predictions == g.labels))


def save_gnn(model: TrainedGnn, path: str) -> None:
    meta = {
        "kind": "gnn",
        "arch": model.arch,
        "in_dim": model.in_dim,
        "hidden": model.layer1.out_dim,
        "num_classes": model.num_classes,
        "heads": [model.layer1.heads, model.layer2.heads],
    }
    arrays = []
    for tag, layer in (("layer1", model.layer1), ("layer2", model.layer2)):
        for name in sorted(layer.params):
            arrays.append((f"{tag}.{name}", layer.params[name].data))
    checkpoint.save_container(path, meta, arrays)


def load_gnn(path: str) -> TrainedGnn:
    meta, arrays = checkpoint.load_container(path)
    if meta.get("kind") != "gnn":
        raise ValueError(f"{path} does not hold a GNN checkpoint")
    rng = np.random.default_rng(0)
    model = init_gnn(meta["arch"], meta["in_dim"], meta["num_classes"], rng, hidden=meta["hidden"])
    for tag, layer in (("layer1", model.layer1), ("layer2", model.layer2)):
        for name in sorted(layer.params):
            key = f"{tag}.{name}"
            if key not in arrays:
                raise ValueError(f"checkpoint missing entry {key}")
            if arrays[key].shape != layer.params[name].data.shape:
                raise ValueError(f"checkpoint entry {key} has wrong shape")
            layer.params[name].data = np.array(arrays[key])
    return model
