"""Attack input feature builders.

Every builder is order-symmetric: swapping the two nodes of a pair yields
bitwise-identical features, which makes the end-to-end attack score
independent of pair orientation.
"""

from __future__ import annotations

import numpy as np

from .gnn import TrainedGnn, khop_query
from .graph import Edge, Graph, khop_subgraph, normalize_edge, row_entries

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


class PosteriorTable:
    """Center posteriors of one trained model on one query graph at one
    output temperature, each distinct k-hop query computed once per run.

    The key drops an exclusion that cannot change the query subgraph: any
    exclusion at hop 0, and a non-edge at any hop. Every stored posterior
    is thus bitwise the ``khop_query`` of the pair's own ``khop_subgraph``.
    """

    def __init__(self, model: TrainedGnn, graph: Graph, temperature: float = 1.0):
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        self.model = model
        self.graph = graph
        self.temperature = float(temperature)
        self._posteriors: dict[tuple[int, int, Edge | None], np.ndarray] = {}

    def query(self, center: int, hop: int, exclude: Edge | None = None) -> np.ndarray:
        """Read-only posterior of ``center`` on its ``hop``-hop subgraph
        with the edge ``exclude`` removed."""
        if hop == 0 or exclude is None or not self.graph.has_edge(*exclude):
            exclude = None
        else:
            exclude = normalize_edge(*exclude)
        key = (center, hop, exclude)
        post = self._posteriors.get(key)
        if post is None:
            post = khop_query(self.model, khop_subgraph(self.graph, center, hop, exclude=exclude),
                              self.temperature)
            post.setflags(write=False)
            self._posteriors[key] = post
        return post

    def pair_posteriors(self, pairs: np.ndarray, hop: int) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``(m, C)`` posteriors of the first and of the second node
        of every pair in ``pairs``, each query without the pair's own edge."""
        pairs = np.asarray(pairs).tolist()
        return (np.array([self.query(u, hop, (u, v)) for u, v in pairs]),
                np.array([self.query(v, hop, (u, v)) for u, v in pairs]))


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
