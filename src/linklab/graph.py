"""Undirected in-memory graphs, neighborhood queries, and dataset loading.

Node ids are dense integers in ``[0, num_nodes)``. Edges are unordered
pairs stored as ``(min, max)`` tuples; a pair ``(v, v)`` is an explicit
self-loop. Graphs are immutable after construction and safe to share.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with node attributes and class labels."""

    num_nodes: int
    edges: frozenset[Edge]
    features: np.ndarray
    labels: np.ndarray
    _adj: dict[int, frozenset[int]] = field(repr=False, compare=False, default=None)

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
        adj: dict[int, set[int]] = {v: set() for v in range(self.num_nodes)}
        for u, v in self.edges:
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ValueError(f"edge ({u}, {v}) references an invalid node id")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) is not normalized")
            adj[u].add(v)
            adj[v].add(u)
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "_adj", {v: frozenset(s) for v, s in adj.items()})

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
        return normalize_edge(u, v) in self.edges

    def _check_node(self, v: int) -> None:
        if not (0 <= v < self.num_nodes):
            raise ValueError(f"node id {v} out of range [0, {self.num_nodes})")


def neighbors(g: Graph, v: int) -> frozenset[int]:
    """All nodes sharing an edge with ``v``; includes ``v`` only on a self-loop."""
    g._check_node(v)
    return g._adj[v]


@dataclass(frozen=True)
class Subgraph:
    """The induced subgraph an inference query presents to a model.

    ``nodes`` are parent node ids in ascending order; ``edges`` are stored in
    parent ids and carry a self-loop on every included node. ``feature_view``
    holds the parent feature rows in ``nodes`` order.
    """

    center: int
    hop: int
    nodes: tuple[int, ...]
    edges: frozenset[Edge]
    feature_view: np.ndarray

    def __post_init__(self):
        view = np.ascontiguousarray(np.asarray(self.feature_view, dtype=np.float64))
        view.setflags(write=False)
        object.__setattr__(self, "feature_view", view)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def center_index(self) -> int:
        return self.nodes.index(self.center)

    def local_edges(self) -> frozenset[Edge]:
        """Edges re-indexed into local positions within ``nodes``."""
        index = {v: i for i, v in enumerate(self.nodes)}
        return frozenset(normalize_edge(index[u], index[v]) for u, v in self.edges)


def khop_subgraph(g: Graph, v: int, k: int, exclude: Edge | None = None) -> Subgraph:
    """BFS-induced subgraph of depth ``k`` around ``v`` with ``exclude`` removed.

    Every included node carries a self-loop, matching the aggregation
    convention of the model layers; ``k = 0`` therefore yields the single
    node with only its self-loop.
    """
    g._check_node(v)
    if k not in (0, 1, 2):
        raise ValueError(f"hop count must be 0, 1, or 2, got {k}")
    banned = normalize_edge(*exclude) if exclude is not None else None

    reached = {v}
    frontier = {v}
    for _ in range(k):
        nxt = set()
        for u in frontier:
            for w in g._adj[u]:
                if banned is not None and normalize_edge(u, w) == banned:
                    continue
                if w not in reached:
                    nxt.add(w)
        reached |= nxt
        frontier = nxt
    nodes = tuple(sorted(reached))
    node_set = set(nodes)
    edges = set()
    if k > 0:
        for a in nodes:
            for b in g._adj[a]:
                if b in node_set:
                    e = normalize_edge(a, b)
                    if banned is None or e != banned:
                        edges.add(e)
    edges.update((u, u) for u in nodes)
    view = g.features[list(nodes)]
    return Subgraph(center=v, hop=k, nodes=nodes, edges=frozenset(edges), feature_view=view)


def induced_subgraph(g: Graph, node_ids) -> tuple[Graph, tuple[int, ...]]:
    """Induce the subgraph on ``node_ids`` with dense relabeling.

    Returns the new graph plus the tuple mapping local id -> parent id.
    """
    ids = tuple(sorted(set(int(v) for v in node_ids)))
    for v in ids:
        g._check_node(v)
    index = {v: i for i, v in enumerate(ids)}
    kept = frozenset(
        normalize_edge(index[u], index[v])
        for u, v in g.edges
        if u in index and v in index
    )
    sub = Graph(
        num_nodes=len(ids),
        edges=kept,
        features=g.features[list(ids)],
        labels=g.labels[list(ids)],
    )
    return sub, ids


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense symmetric boolean adjacency; self-loops land on the diagonal."""
    adj = np.zeros((g.num_nodes, g.num_nodes), dtype=bool)
    for u, v in g.edges:
        adj[u, v] = True
        adj[v, u] = True
    return adj


def graph_from_adjacency(adj: np.ndarray, features: np.ndarray, labels: np.ndarray) -> Graph:
    adj = np.asarray(adj, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency must be symmetric")
    n = adj.shape[0]
    rows, cols = np.nonzero(adj)
    edges = frozenset(normalize_edge(int(u), int(v)) for u, v in zip(rows, cols))
    return Graph(num_nodes=n, edges=edges, features=features, labels=labels)


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
    columns per line). Directed duplicates are symmetrized. Node identity
    comes from feature-row order; when edge endpoints are not already in
    ``[0, n)`` the sorted unique endpoint ids are remapped onto it.
    """
    features = np.loadtxt(os.path.join(directory, "features.csv"), delimiter=",", ndmin=2, dtype=np.float64)
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
    if os.path.getsize(edges_path) == 0:
        raw = np.zeros((0, 2))
    else:
        raw = np.loadtxt(edges_path, ndmin=2)
    pairs = raw.astype(np.int64)
    if raw.size and not np.array_equal(pairs, raw):
        raise ValueError("edges.tsv must contain integers")
    if raw.size and pairs.shape[1] != 2:
        raise ValueError("edges.tsv must have exactly two columns")

    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        ext = np.unique(pairs)
        if len(ext) > n:
            raise ValueError(
                f"edges.tsv references {len(ext)} distinct nodes but features.csv has {n} rows"
            )
        remap = {int(e): i for i, e in enumerate(ext)}
        source_ids = tuple(int(e) for e in ext) + tuple(range(len(ext), n))
        pairs = np.array([[remap[int(u)], remap[int(v)]] for u, v in pairs], dtype=np.int64)
    else:
        source_ids = tuple(range(n))

    edges = frozenset(normalize_edge(int(u), int(v)) for u, v in pairs)

    label_values = tuple(int(c) for c in np.unique(labels)) if labels.size else ()
    if label_values and label_values != tuple(range(len(label_values))):
        lut = {c: i for i, c in enumerate(label_values)}
        labels = np.array([lut[int(c)] for c in labels], dtype=np.int64)

    graph = Graph(num_nodes=n, edges=edges, features=features, labels=labels)
    return LoadedDataset(graph=graph, source_ids=source_ids, label_values=label_values)


def save_dataset(g: Graph, directory: str) -> None:
    """Write a graph in the loadable dataset layout."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "edges.tsv"), "w") as fh:
        for u, v in sorted(g.edges):
            fh.write(f"{u}\t{v}\n")
    with open(os.path.join(directory, "features.csv"), "w") as fh:
        for row in g.features:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    with open(os.path.join(directory, "labels.csv"), "w") as fh:
        for c in g.labels:
            fh.write(f"{int(c)}\n")
