"""Attack input feature builders.

Every builder is order-symmetric: swapping the two nodes of a pair yields
bitwise-identical features, which makes the end-to-end attack score
independent of pair orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gnn import MessageStructure, TrainedGnn, gnn_forward, posteriors
from .graph import Graph, khop_union, row_entries
from .nn import Tensor

PAIRWISE_OP_NAMES = ("hadamard", "average", "weighted_l1", "weighted_l2")
GRAPH_FEATURE_NAMES = ("common_neighbors", "jaccard", "preferential_attachment")
TRANSFER_FEATURE_NAMES = (
    "entropy_hadamard", "entropy_average", "entropy_weighted_l1", "entropy_weighted_l2",
    "cosine_similarity", "js_divergence", "correlation_distance",
)


def pairwise_ops(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hadamard, average, absolute difference, squared difference."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"pairwise length mismatch: {a.shape} vs {b.shape}")
    return (a * b, (a + b) / 2.0, np.abs(a - b), np.abs(a - b) ** 2)


def pairwise_concat(a: np.ndarray, b: np.ndarray, ops: str = "all") -> np.ndarray:
    """Concatenate the selected pairwise operations in their fixed order;
    stacked ``(m, C)`` inputs give one row per pair."""
    blocks = dict(zip(PAIRWISE_OP_NAMES, pairwise_ops(a, b)))
    if ops == "all":
        selected = PAIRWISE_OP_NAMES
    elif ops in PAIRWISE_OP_NAMES:
        selected = (ops,)
    else:
        raise ValueError(f"unknown pairwise op selection {ops!r}")
    return np.concatenate([blocks[name] for name in selected], axis=-1)


# Queries per batched pass of a posterior table. A pass holds its queries'
# subgraphs side by side, so its memory grows with this count. Measured on
# the 400-node acceptance-size graph (13 attacks, hops 0-2; numpy 2.4 on a
# 2-core x86 host), one run per size: passes of 16-128 queries peaked the
# process at 53.7-54.3 MB, as answering one query at a time did (54.0 MB),
# 256 at 55.5 MB and 1,024 at 69.0 MB, while the run's posterior lookups
# took 0.16-0.19 s at every size (1.30 s one query at a time).
PASS_QUERIES = 64


@dataclass(frozen=True)
class TableCounts:
    """What a ``PosteriorTable`` did so far: posterior lookups, distinct
    queries computed, and the disjoint-union node count of each pass."""

    lookups: int
    computed: int
    union_nodes: tuple[int, ...]

    @property
    def passes(self) -> int:
        return len(self.union_nodes)


class PosteriorTable:
    """Center posteriors of one trained model on one query graph at one
    output temperature, each distinct k-hop query computed once per run.

    A query is the center's ``hop``-hop BFS subgraph of the graph with one
    edge removed, as ``graph.khop_union`` builds it: explicit self-loops
    are dropped and every node gets one forced self-loop. Its key is
    (center, hop, removed edge); no edge is removed at hop 0 or for a
    non-edge, which cannot change the subgraph.

    Each call gathers the keys it lacks, sorts them, and computes them in
    passes of ``PASS_QUERIES``: the query subgraphs of a pass side by side
    as one block-diagonal graph, through one ``gnn.gnn_forward``, the
    forward training runs. A row's last bit may depend on its pass, so a
    pass depends only on the call's sorted missing keys: the same calls
    give the same rows bit for bit.
    """

    def __init__(self, model: TrainedGnn, graph: Graph, temperature: float = 1.0):
        if not (math.isfinite(temperature) and temperature > 0):
            raise ValueError(f"temperature must be finite and positive, got {temperature}")
        if graph.feature_dim != model.in_dim:
            raise ValueError(f"graph feature dim {graph.feature_dim} != model in_dim {model.in_dim}")
        self.model = model
        self.graph = graph
        self.temperature = float(temperature)
        n = graph.num_nodes
        if 3 * n * (n + 1) ** 2 >= 2 ** 63:
            raise ValueError(f"{n} nodes overflow the int64 query keys")
        self._edge_keys = graph.edges[:, 0] * n + graph.edges[:, 1]
        self._keys = np.zeros(0, dtype=np.int64)
        self._posteriors = np.zeros((0, model.num_classes))
        self._lookups = 0
        self._union_nodes: list[int] = []

    @property
    def counts(self) -> TableCounts:
        return TableCounts(self._lookups, len(self._keys), tuple(self._union_nodes))

    def pair_posteriors(self, pairs: np.ndarray, hop: int) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``(m, C)`` posteriors of the first and of the second node
        of every pair in ``pairs``, each query without the pair's own edge."""
        n = self.graph.num_nodes
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
        if outside.any():
            u, v = pairs[outside][0].tolist()
            raise ValueError(f"pair ({u}, {v}) has a node outside [0, {n})")
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        removed = np.zeros(len(pairs), dtype=bool)
        if hop != 0 and len(self._edge_keys):
            at = np.searchsorted(self._edge_keys, lo * n + hi).clip(max=len(self._edge_keys) - 1)
            removed = self._edge_keys[at] == lo * n + hi
        a, b = np.where(removed, lo, n), np.where(removed, hi, n)
        posts = self._lookup(hop, pairs.T.ravel(), np.tile(a, 2), np.tile(b, 2))
        return posts[:len(pairs)], posts[len(pairs):]

    def _lookup(self, hop: int, centers: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Rows for the keys (``centers[i]``, ``hop``, edge (``a[i]``,
        ``b[i]``)), where ``a = b = n`` removes no edge; missing keys are
        computed first."""
        if hop not in (0, 1, 2):
            raise ValueError(f"hop count must be 0, 1, or 2, got {hop}")
        n = self.graph.num_nodes
        codes = ((hop * n + centers) * (n + 1) + a) * (n + 1) + b
        self._lookups += len(codes)
        at = np.searchsorted(self._keys, codes)
        known = np.zeros(len(codes), dtype=bool)
        inside = at < len(self._keys)
        known[inside] = self._keys[at[inside]] == codes[inside]
        missing, first = np.unique(codes[~known], return_index=True)
        if missing.size:
            todo = np.flatnonzero(~known)[first]
            cuts = range(PASS_QUERIES, len(todo), PASS_QUERIES)
            fresh = [self._pass(hop, centers[i], a[i], b[i]) for i in np.split(todo, cuts)]
            keys = np.concatenate([self._keys, missing])
            order = np.argsort(keys, kind="stable")
            self._keys = keys[order]
            self._posteriors = np.concatenate([self._posteriors, *fresh])[order]
            at = np.searchsorted(self._keys, codes)
        return self._posteriors[at]

    def _pass(self, hop: int, centers: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Posteriors of the queries (``centers[i]``, ``hop``, edge
        (``a[i]``, ``b[i]``)): one ``gnn_forward`` over the disjoint union
        of their subgraphs (``graph.khop_union``), read at the centers."""
        n = self.graph.num_nodes
        union, edges = khop_union(self.graph, centers, hop, a, b)
        self._union_nodes.append(len(union))
        logits = gnn_forward(self.model, Tensor(self.graph.features[union % n]),
                             MessageStructure(len(union), edges))
        rows = np.searchsorted(union, np.arange(len(centers)) * n + centers)
        return posteriors(logits.data[rows], self.temperature)


def node_attr_block(features_u: np.ndarray, features_v: np.ndarray) -> np.ndarray:
    """Hadamard product of the two attribute rows."""
    a = np.asarray(features_u, dtype=np.float64)
    b = np.asarray(features_v, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"attribute dim mismatch: {a.shape} vs {b.shape}")
    return a * b


def proximity_counts(graph: Graph, pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common neighbors, Jaccard and preferential attachment of every pair
    in the ``(m, 2)`` array ``pairs``, read off the CSR rows. Both nodes of
    a pair are left out of both neighborhoods, so the pair's own edge and
    a self-loop count for nothing."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    m, n = len(pairs), graph.num_nodes
    sizes, keys = [], []
    for side in (0, 1):
        owner, nbrs = row_entries(graph, pairs[:, side])
        kept = (nbrs != pairs[owner, 0]) & (nbrs != pairs[owner, 1])
        sizes.append(np.bincount(owner[kept], minlength=m))
        keys.append(owner[kept] * n + nbrs[kept])
    # each neighborhood holds a node once, so a key seen twice is shared
    keys = np.sort(np.concatenate(keys))
    common = np.bincount(keys[1:][keys[1:] == keys[:-1]] // n, minlength=m)
    union = sizes[0] + sizes[1] - common
    jaccard = np.divide(common, union, out=np.zeros(m), where=union > 0)
    return common, jaccard, sizes[0] * sizes[1]


def graph_block(graph: Graph, pairs) -> np.ndarray:
    """[common neighbors, Jaccard, preferential attachment], one row per pair."""
    return np.column_stack(proximity_counts(graph, pairs))


def _distribution_rows(p: np.ndarray) -> np.ndarray:
    """``p`` as an ``(m, C)`` float array whose every row is a probability
    distribution; the error names the first row that is not."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] == 0:
        raise ValueError(f"posteriors must be an (m, C) array with C > 0, got shape {p.shape}")
    bad = np.flatnonzero((p.min(axis=1) < -1e-9) | (np.abs(p.sum(axis=1) - 1.0) > 1e-6))
    if bad.size:
        raise ValueError(f"posterior row {bad[0]} is not a probability distribution: "
                         f"{p[bad[0]].tolist()}")
    return p


def row_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity of each row of ``a`` with the same row of ``b``;
    zero where either row is all zeros."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"cosine needs rows of equal shape, got {a.shape} and {b.shape}")
    sq_a, sq_b = np.vecdot(a, a), np.vecdot(b, b)
    return np.divide(np.vecdot(a, b), np.sqrt(sq_a) * np.sqrt(sq_b), out=np.zeros(len(a)),
                     where=(sq_a != 0.0) & (sq_b != 0.0))


def transfer_block(post_u: np.ndarray, post_v: np.ndarray) -> np.ndarray:
    """Class-count-independent posterior features for cross-dataset shadows,
    one row of seven per pair of ``(m, C)`` posterior rows.

    Four pairwise combinations of the two posterior entropies (nats), then
    cosine similarity, Jensen-Shannon divergence (nats) and correlation
    distance ``1 - Pearson r`` (zero when either row is constant) of the
    posterior vectors. Both posteriors must have the same width.
    """
    pu, pv = _distribution_rows(post_u), _distribution_rows(post_v)
    if pu.shape != pv.shape:
        raise ValueError(f"transfer block needs posteriors of equal shape, "
                         f"got {pu.shape} and {pv.shape}")
    mid = (pu + pv) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy_u = -np.where(pu > 0.0, pu * np.log(pu), 0.0).sum(axis=1)
        entropy_v = -np.where(pv > 0.0, pv * np.log(pv), 0.0).sum(axis=1)
        kl_u = np.where(pu > 0.0, pu * np.log(pu / mid), 0.0).sum(axis=1)
        kl_v = np.where(pv > 0.0, pv * np.log(pv / mid), 0.0).sum(axis=1)
    du = pu - pu.mean(axis=1, keepdims=True)
    dv = pv - pv.mean(axis=1, keepdims=True)
    var_u, var_v = np.vecdot(du, du), np.vecdot(dv, dv)
    varying = (var_u != 0.0) & (var_v != 0.0)
    pearson = np.divide(np.vecdot(du, dv), np.sqrt(var_u * var_v),
                        out=np.zeros(len(pu)), where=varying)
    return np.column_stack([
        pairwise_concat(entropy_u[:, None], entropy_v[:, None], "all"),
        row_cosine(pu, pv),
        0.5 * kl_u + 0.5 * kl_v,
        np.where(varying, 1.0 - pearson, 0.0),
    ])


def posterior_block_names(num_classes: int, ops: str = "all") -> list[str]:
    selected = PAIRWISE_OP_NAMES if ops == "all" else (ops,)
    return [f"posterior_{op}_{c}" for op in selected for c in range(num_classes)]


def node_attr_block_names(feature_dim: int) -> list[str]:
    return [f"attr_hadamard_{i}" for i in range(feature_dim)]


def graph_block_names() -> list[str]:
    return [f"graph_{name}" for name in GRAPH_FEATURE_NAMES]


def transfer_block_names() -> list[str]:
    return [f"transfer_{name}" for name in TRANSFER_FEATURE_NAMES]


def label_block_names(num_classes: int) -> list[str]:
    return [f"label_count_{c}" for c in range(num_classes)]


def export_features_csv(path: str, columns: list[str], matrix: np.ndarray) -> None:
    """Write a feature matrix with one named column per feature."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(columns):
        raise ValueError("column names must match matrix width")
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in matrix.tolist():
            fh.write(",".join(map(repr, row)) + "\n")
