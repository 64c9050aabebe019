"""Inductive GNN layer kernels, two-layer models, training, and k-hop queries.

Training and ``khop_query`` run the taped kernels, which read the
neighborhood off a ``MessageStructure``, the one place that adds a
self-loop to every node, so a 0-hop query (one node and no edges) flows
through the same code path as whole-graph training. ``center_posteriors``
answers a batch of queries at once on plain arrays, with no tape, over
neighborhoods whose self-loops its caller has placed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import checkpoint
from . import nn
from .graph import Graph, Subgraph
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
    orientation, with a self-loop forced onto every node. ``aggregate``
    averages or sums over each neighborhood. The path is chosen once, from
    the entry count ``n + 2 * (non-loop pairs)``, exact for the distinct
    pairs a ``Graph`` or ``Subgraph`` holds:

    - sparse: CSR rows ``indptr`` and ``indices`` with the degrees ``deg``,
      and no n×n array;
    - dense: ``mean_mat``, which row-normalizes over the neighborhood, and
      ``sum_mat``, which sums it.

    ``mask``, the n×n admissible attention cells, is built when a GAT layer
    first asks for it.
    """

    def __init__(self, num_nodes: int, edges):
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= num_nodes):
            u, v = pairs[((pairs < 0) | (pairs >= num_nodes)).any(axis=1)][0]
            raise ValueError(f"edge ({u}, {v}) outside node range")
        n = num_nodes
        u, v = pairs.T
        self.num_nodes = n
        self.indptr = self.indices = self.deg = None
        self.mean_mat = self.sum_mat = None
        self._mask: np.ndarray | None = None
        self._fixed: dict[str, tuple[np.ndarray, Tensor]] = {}
        # entries >= n, so a structure of at most SPARSE_RATIO nodes is dense
        # without counting
        if n > SPARSE_RATIO and SPARSE_RATIO * (n + 2 * np.count_nonzero(u != v)) < n * n:
            loops = np.arange(n, dtype=np.int64) * (n + 1)
            src, dst = np.divmod(np.unique(np.concatenate([u * n + v, v * n + u, loops])), n)
            counts = np.bincount(src, minlength=n)
            self.indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=self.indptr[1:])
            self.indices = dst
            self.deg = counts.astype(np.float64)
            return
        adj = np.zeros((n, n), dtype=bool)
        adj[u, v] = True
        adj[v, u] = True
        np.fill_diagonal(adj, True)
        deg = adj.sum(axis=1, keepdims=True).astype(np.float64)
        dense = adj.astype(np.float64)
        self.mean_mat = Tensor(dense / deg)
        self.sum_mat = Tensor(dense)

    @property
    def mask(self) -> np.ndarray:
        """Boolean n×n marks of every neighborhood entry, built on first use."""
        if self._mask is None:
            if self.indptr is None:
                self._mask = self.sum_mat.data != 0.0
            else:
                self._mask = np.zeros((self.num_nodes, self.num_nodes), dtype=bool)
                rows = np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))
                self._mask[rows, self.indices] = True
        return self._mask

    def aggregate(self, op: str, z: Tensor) -> Tensor:
        """The neighborhood mean (``op="mean"``) or sum (``op="sum"``) of
        every row of ``z``, as one taped op: ``nn.csr_row_sum`` on a sparse
        structure, ``mean_mat @ z`` or ``sum_mat @ z`` on a dense one."""
        if self.indptr is None:
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
        head_outs = []
        for i in range(layer.heads):
            z = nn.matmul(h, layer.params[f"w{i}"])
            scores = nn.outer_sum(nn.matmul(z, layer.params[f"a_dst{i}"]),
                                  nn.matmul(z, layer.params[f"a_src{i}"]))
            scores = nn.leaky_relu(scores, LEAKY_SLOPE)
            attn = nn.masked_row_softmax(scores, structure.mask)
            head_outs.append(nn.matmul(attn, z))
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


def khop_query(model: TrainedGnn, sub: Subgraph, temperature: float = 1.0) -> np.ndarray:
    """Posterior of the subgraph's center node under the trained model.

    The single-query API: one subgraph, one taped forward. A run's
    ``features.PosteriorTable`` answers the same queries in batches through
    ``center_posteriors``, and tests hold it to this function."""
    if sub.feature_view.shape[1] != model.in_dim:
        raise ValueError(
            f"subgraph feature dim {sub.feature_view.shape[1]} != model in_dim {model.in_dim}"
        )
    structure = MessageStructure(sub.num_nodes, sub.edges)
    logits = gnn_forward(model, Tensor(sub.feature_view), structure)
    post = nn.softmax_with_temperature(logits, temperature).data[sub.center_index]
    if abs(post.sum() - 1.0) > 1e-9 or post.min() < 0.0:
        raise FloatingPointError("posterior failed normalization check")
    return np.array(post)


class Neighborhoods(NamedTuple):
    """Where one layer of a plain-array forward reads its input rows.

    Output row ``i`` is input row ``own[i]``; its neighborhood is the input
    rows ``indices[indptr[i]:indptr[i + 1]]`` in ascending order, ``own[i]``
    among them (the forced self-loop), so no row is empty.
    """

    own: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    def sum(self, z: np.ndarray) -> np.ndarray:
        return np.add.reduceat(z[self.indices], self.indptr[:-1], axis=0)

    def mean(self, z: np.ndarray) -> np.ndarray:
        return self.sum(z) / np.diff(self.indptr)[:, None]


def _plain_layer(layer: GnnLayer, h: np.ndarray, nb: Neighborhoods, fixed: bool) -> np.ndarray:
    """``layer_forward`` at inference on plain arrays, for the output rows of
    ``nb`` only. ``fixed`` picks the same order as the taped layer: a fixed
    input is aggregated, then projected; a hidden one is projected first."""
    p = {name: param.data for name, param in layer.params.items()}
    if layer.kind == "gcn":
        out = nb.mean(h) @ p["w"] if fixed else nb.mean(h @ p["w"])
    elif layer.kind == "sage":
        if fixed:
            out = np.concatenate([h[nb.own], nb.mean(h)], axis=1) @ p["w"]
        else:
            d = layer.in_dim
            out = h[nb.own] @ p["w"][:d] + nb.mean(h @ p["w"][d:])
    elif layer.kind == "gat":
        starts = nb.indptr[:-1]
        rows = np.repeat(np.arange(len(nb.own)), np.diff(nb.indptr))
        heads = []
        for i in range(layer.heads):
            z = h @ p[f"w{i}"]
            # one score per neighborhood entry and a softmax over each row
            scores = (z[nb.own] @ p[f"a_dst{i}"])[rows, 0] + (z @ p[f"a_src{i}"])[nb.indices, 0]
            scores = np.where(scores > 0.0, scores, LEAKY_SLOPE * scores)
            ex = np.exp(scores - np.maximum.reduceat(scores, starts)[rows])
            attn = ex / np.add.reduceat(ex, starts)[rows]
            heads.append(np.add.reduceat(attn[:, None] * z[nb.indices], starts, axis=0))
        out = heads[0] if len(heads) == 1 else np.concatenate(heads, axis=1)
    elif layer.kind == "gin":
        eps = float(p["eps"].reshape(()))
        if fixed:
            projected = (nb.sum(h) + h[nb.own] * eps) @ p["w1"]
        else:
            z = h @ p["w1"]
            projected = nb.sum(z) + z[nb.own] * eps
        out = np.maximum(projected + p["b1"], 0.0) @ p["w2"] + p["b2"]
    else:
        raise ValueError(f"unknown layer kind {layer.kind!r}")
    return np.maximum(out, 0.0)


def center_posteriors(model: TrainedGnn, features: np.ndarray, first: Neighborhoods,
                      second: Neighborhoods, temperature: float = 1.0) -> np.ndarray:
    """Posteriors at ``temperature`` of a batch of query centers, one row
    each, from a tape-free two-layer forward.

    Layer 1 reads ``features`` through ``first``; layer 2 reads layer 1's
    rows through ``second``, whose output rows are the centers. Several
    disjoint query subgraphs side by side form one such batch.
    """
    hidden = _plain_layer(model.layer1, features, first, fixed=True)
    logits = _plain_layer(model.layer2, hidden, second, fixed=False)
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite values produced in forward pass")
    z = logits / temperature
    z -= z.max(axis=1, keepdims=True)
    ex = np.exp(z)
    post = ex / ex.sum(axis=1, keepdims=True)
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
