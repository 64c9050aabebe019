"""Undirected in-memory graphs, neighborhood queries, and dataset loading.

Node ids are dense integers in ``[0, num_nodes)``. A graph keeps its edges
in one read-only ``(E, 2)`` int64 array: each row is an unordered pair
``(u, v)`` with ``u <= v``, the rows are sorted and unique, and ``(v, v)``
is an explicit self-loop. From it the graph builds CSR rows once:
``indices[indptr[v]:indptr[v + 1]]`` are the neighbors of ``v`` in
ascending order, ``v`` itself only on a self-loop. Graphs are immutable
after construction and safe to share; graphs compare and hash by
identity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True, eq=False)
class Graph:
    """A simple undirected graph with node attributes and class labels.

    ``edges`` may be given as any ``(E, 2)`` array-like of node pairs, in
    either orientation and with repeats; it is stored normalized.
    """

    num_nodes: int
    edges: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    indptr: np.ndarray = field(init=False, repr=False)
    indices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if labels.ndim != 1:
            raise ValueError("labels must be a 1-D vector")
        if features.shape[0] != self.num_nodes:
            raise ValueError(
                f"features have {features.shape[0]} rows for {self.num_nodes} nodes"
            )
        if labels.shape[0] != self.num_nodes:
            raise ValueError(
                f"labels have {labels.shape[0]} entries for {self.num_nodes} nodes"
            )
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be non-negative class ids")
        n = self.num_nodes
        pairs = np.asarray(self.edges, dtype=np.int64)
        pairs = pairs.reshape(0, 2) if pairs.size == 0 else pairs
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be an (E, 2) array of node pairs, got shape {pairs.shape}")
        outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
        if outside.any():
            u, v = pairs[outside][0]
            raise ValueError(f"edge ({u}, {v}) references an invalid node id")
        keys = pairs.min(axis=1) * n + pairs.max(axis=1)
        # already sorted and unique, as cell_pairs output is: skip the sort
        if not (keys[1:] > keys[:-1]).all():
            keys = np.unique(keys)
        u, v = np.divmod(keys, n)
        # CSR: both directions of every edge, a self-loop once
        loop = u == v
        src = np.concatenate([u, v[~loop]])
        dst = np.concatenate([v, u[~loop]])
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        for name, value in (("features", features), ("labels", labels),
                            ("edges", np.stack([u, v], axis=1)), ("indptr", indptr),
                            ("indices", dst[np.argsort(src * n + dst)])):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            return False
        row = self.indices[self.indptr[u]:self.indptr[u + 1]]
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)


def row_entries(g: Graph, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every CSR entry of the nodes ``rows``, in row order, as two arrays:
    the position in ``rows`` it belongs to, and the neighbor."""
    starts = g.indptr[rows]
    counts = g.indptr[rows + 1] - starts
    owner = np.repeat(np.arange(len(rows)), counts)
    shift = starts - (np.cumsum(counts) - counts)
    return owner, g.indices[np.arange(len(owner)) + shift[owner]]


def khop_union(g: Graph, centers, hop: int, a, b) -> tuple[np.ndarray, np.ndarray]:
    """The depth-``hop`` BFS balls around ``centers[i]``, each in the graph
    without the edge (``a[i]``, ``b[i]``), side by side as one graph.

    A node of the union is a (query, node) pair, held as the code
    ``i * num_nodes + node``; the codes come back sorted, so each query's
    nodes are one ascending block. The edges are the ``(E, 2)`` sorted
    pairs ``(p, q)``, ``p < q``, of union positions of every edge induced
    within a ball, explicit self-loops and the query's removed edge left
    out. An endpoint outside the graph, such as ``num_nodes``, removes no
    edge.
    """
    if hop not in (0, 1, 2):
        raise ValueError(f"hop count must be 0, 1, or 2, got {hop}")
    n = g.num_nodes
    centers, a, b = (np.asarray(x, dtype=np.int64).reshape(-1) for x in (centers, a, b))

    def ball_entries(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each neighbor entry of the union nodes ``codes`` in their own
        query's graph: the position in ``codes``, and the neighbor's code."""
        query, nodes = np.divmod(codes, n)
        entry, nbrs = row_entries(g, nodes)
        x, q = nodes[entry], query[entry]
        keep = (nbrs != x) & ~(((x == a[q]) & (nbrs == b[q])) | ((x == b[q]) & (nbrs == a[q])))
        return entry[keep], q[keep] * n + nbrs[keep]

    union = frontier = np.arange(len(centers)) * n + centers
    for _ in range(hop):
        frontier = np.setdiff1d(ball_entries(frontier)[1], union)
        union = np.union1d(union, frontier)
    entry, reached = ball_entries(union)
    at = np.searchsorted(union, reached).clip(max=len(union) - 1)
    inside = (union[at] == reached) & (entry < at)
    return union, np.stack([entry[inside], at[inside]], axis=1)


def induced_subgraph(g: Graph, node_ids) -> tuple[Graph, tuple[int, ...]]:
    """Induce the subgraph on ``node_ids`` with dense relabeling.

    Returns the new graph plus the tuple mapping local id -> parent id.
    """
    ids = np.unique(np.asarray(node_ids, dtype=np.int64))
    bad = ids[(ids < 0) | (ids >= g.num_nodes)]
    if bad.size:
        raise ValueError(f"node id {bad[0]} out of range [0, {g.num_nodes})")
    local = np.full(g.num_nodes, -1, dtype=np.int64)
    local[ids] = np.arange(len(ids))
    mapped = local[g.edges]
    sub = Graph(
        num_nodes=len(ids),
        edges=mapped[(mapped >= 0).all(axis=1)],
        features=g.features[ids],
        labels=g.labels[ids],
    )
    return sub, tuple(ids.tolist())


def upper_cells(g: Graph) -> np.ndarray:
    """Edge marks over the ``n(n - 1) / 2`` cells ``(i, j)``, ``i < j``, in
    row-major order: cell ``i(2n - i - 1) / 2 + j - i - 1``. Self-loops
    have no cell."""
    n = g.num_nodes
    cells = np.zeros(n * (n - 1) // 2, dtype=bool)
    u, v = g.edges[g.edges[:, 0] != g.edges[:, 1]].T
    cells[u * (2 * n - u - 1) // 2 + v - u - 1] = True
    return cells


def cell_pairs(n: int, cells) -> np.ndarray:
    """The ``(i, j)`` rows of the cell ids ``cells`` in the order of
    ``upper_cells`` on ``n`` nodes."""
    cells = np.asarray(cells, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(starts, cells, side="right") - 1
    return np.stack([i, cells - starts[i] + i + 1], axis=1)


@dataclass(frozen=True)
class LoadedDataset:
    """A dataset read from disk, with the external-id and label mappings kept."""

    graph: Graph
    source_ids: tuple[int, ...]
    label_values: tuple[int, ...]


def load_dataset(directory: str) -> LoadedDataset:
    """Read the on-disk dataset layout.

    Expects ``features.csv`` (one comma-separated row per node),
    ``labels.csv`` (one integer per line), and ``edges.tsv`` (two integer
    columns per line). Feature values must be finite. Directed duplicates
    are symmetrized. Node identity comes from feature-row order; when edge
    endpoints are not already in ``[0, n)`` the sorted unique endpoint ids
    are remapped onto it.
    """
    features = np.loadtxt(os.path.join(directory, "features.csv"), delimiter=",", ndmin=2, dtype=np.float64)
    bad_rows = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad_rows.size:
        row = int(bad_rows[0])
        raise ValueError(f"features.csv row {row} (line {row + 1}) holds a non-finite value")
    raw_labels = np.loadtxt(os.path.join(directory, "labels.csv"), ndmin=1)
    labels = raw_labels.astype(np.int64)
    if not np.array_equal(labels, raw_labels):
        raise ValueError("labels.csv must contain integers")
    n = features.shape[0]
    if labels.shape[0] != n:
        raise ValueError(
            f"labels.csv has {labels.shape[0]} rows but features.csv has {n}"
        )

    edges_path = os.path.join(directory, "edges.tsv")
    raw = np.loadtxt(edges_path, ndmin=2) if os.path.getsize(edges_path) else np.zeros((0, 2))
    pairs = raw.astype(np.int64)
    if raw.size and not np.array_equal(pairs, raw):
        raise ValueError("edges.tsv must contain integers")
    if raw.size and pairs.shape[1] != 2:
        raise ValueError("edges.tsv must have exactly two columns")

    source_ids = tuple(range(n))
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        ext, pairs = np.unique(pairs, return_inverse=True)
        if len(ext) > n:
            raise ValueError(
                f"edges.tsv references {len(ext)} distinct nodes but features.csv has {n} rows"
            )
        source_ids = tuple(ext.tolist()) + source_ids[len(ext):]

    values, labels = np.unique(labels, return_inverse=True)
    graph = Graph(num_nodes=n, edges=pairs.reshape(-1, 2), features=features, labels=labels)
    return LoadedDataset(graph=graph, source_ids=source_ids, label_values=tuple(values.tolist()))


def save_dataset(g: Graph, directory: str) -> None:
    """Write a graph in the loadable dataset layout."""
    os.makedirs(directory, exist_ok=True)
    np.savetxt(os.path.join(directory, "edges.tsv"), g.edges, fmt="%d", delimiter="\t")
    with open(os.path.join(directory, "features.csv"), "w") as fh:
        for row in g.features.tolist():
            fh.write(",".join(map(repr, row)) + "\n")
    with open(os.path.join(directory, "labels.csv"), "w") as fh:
        for c in g.labels:
            fh.write(f"{int(c)}\n")
