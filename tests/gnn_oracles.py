"""The all-dense ``MessageStructure``, kept as the oracle for CSR aggregation.

Before the density switch every structure built its self-looped adjacency
as n×n matrices and aggregated with ``nn.matmul``. This is that structure
as it was, plus an ``aggregate`` method over the same matrices, so that
``gnn.layer_forward`` runs on it unchanged.
"""

import numpy as np

from linklab import nn
from linklab.nn import Tensor


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
