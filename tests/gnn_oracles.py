"""The dense GNN code the CSR paths replaced, kept as oracles.

``DenseMessageStructure`` is the all-dense ``MessageStructure`` from before
the density switch: it builds its self-looped adjacency as n×n matrices,
aggregates with ``nn.matmul``, and runs GAT as dense n×n attention
(``outer_sum``, ``leaky_relu``, ``masked_row_softmax``, then a product with
the attention matrix), the taped ops GAT used before ``nn.csr_attention``.
``gnn.layer_forward`` runs on it unchanged. ``khop_query`` is the
single-query path a posterior table's batched passes replaced: one
set-based BFS subgraph, one dense taped forward.
"""

import numpy as np
from graph_oracles import adjacency_sets, khop_oracle

from linklab import nn
from linklab.gnn import LEAKY_SLOPE, gnn_forward, posteriors
from linklab.nn import Tensor, _result


def leaky_relu(x, slope=0.2):
    out_data = np.where(x.data > 0.0, x.data, slope * x.data)

    def backward(g):
        x._accumulate(g * np.where(x.data > 0.0, 1.0, slope))

    return _result(out_data, (x,), backward)


def outer_sum(col, row):
    """``out[i, j] = col[i, 0] + row[j, 0]`` for two column vectors."""
    if col.data.ndim != 2 or col.data.shape[1] != 1:
        raise ValueError("outer_sum expects (n, 1) column tensors")
    if row.data.ndim != 2 or row.data.shape[1] != 1:
        raise ValueError("outer_sum expects (n, 1) column tensors")
    out_data = col.data + row.data.T

    def backward(g):
        if col.requires_grad:
            col._accumulate(g.sum(axis=1, keepdims=True))
        if row.requires_grad:
            row._accumulate(g.sum(axis=0)[:, None])

    return _result(out_data, (col, row), backward)


def masked_row_softmax(scores, mask):
    """Row-wise softmax restricted to ``mask``; masked-out cells stay zero.

    Every row must have at least one admissible cell.
    """
    mask = np.asarray(mask, dtype=bool)
    if scores.data.shape != mask.shape:
        raise ValueError("mask shape must match scores")
    if not mask.any(axis=1).all():
        raise ValueError("every row needs at least one unmasked cell")
    neg = np.where(mask, scores.data, -np.inf)
    m = neg.max(axis=1, keepdims=True)
    ex = np.exp(np.where(mask, scores.data - m, -np.inf))
    out_data = ex / ex.sum(axis=1, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=1, keepdims=True)
        scores._accumulate(out_data * (g - inner))

    return _result(out_data, (scores,), backward)


class DenseMessageStructure:
    """``mean_mat``, ``sum_mat`` and ``mask`` at n×n for any density."""

    def __init__(self, num_nodes, edges):
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        adj = np.zeros((num_nodes, num_nodes), dtype=bool)
        u, v = pairs.T
        adj[u, v] = True
        adj[v, u] = True
        np.fill_diagonal(adj, True)
        deg = adj.sum(axis=1, keepdims=True).astype(np.float64)
        dense = adj.astype(np.float64)
        self.num_nodes = num_nodes
        self.mask = adj
        self.mean_mat = Tensor(dense / deg)
        self.sum_mat = Tensor(dense)

    def aggregate(self, op, z):
        return nn.matmul(self.mean_mat if op == "mean" else self.sum_mat, z)

    def fixed_aggregate(self, op, h):
        return self.aggregate(op, h)

    def attend(self, z, a_dst, a_src):
        scores = outer_sum(nn.matmul(z, a_dst), nn.matmul(z, a_src))
        attn = masked_row_softmax(leaky_relu(scores, LEAKY_SLOPE), self.mask)
        return nn.matmul(attn, z)


def khop_query(model, graph, center, hop, exclude=None, temperature=1.0):
    """Posterior of ``center`` on its ``hop``-hop subgraph of ``graph``
    with the edge ``exclude`` removed: the set-based BFS, one dense taped
    forward, and the table's posterior step."""
    nodes, edges = khop_oracle(adjacency_sets(graph), center, hop, exclude)
    logits = gnn_forward(model, Tensor(graph.features[list(nodes)]),
                         DenseMessageStructure(len(nodes), edges))
    return posteriors(logits.data, temperature)[nodes.index(center)]
