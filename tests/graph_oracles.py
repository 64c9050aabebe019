"""The graph code the edge-array/CSR core replaced, kept as oracles.

The set-based functions read a graph only through its list of edge rows
and rebuild the Python sets and dicts the earlier implementation kept: a
set of ``(min, max)`` tuples and one neighbor set per node. The DP
mechanisms work on the dense boolean adjacency matrix, as the earlier
implementation did, and draw the same named streams.
"""

import numpy as np
from hypothesis import strategies as st

from linklab.graph import khop_union
from linklab.rng import stream

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


def edge_set(g):
    return {normalize_edge(u, v) for u, v in g.edges.tolist()}


def adjacency_sets(g):
    adj = {v: set() for v in range(g.num_nodes)}
    for u, v in g.edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def khop_oracle(adj, v, k, exclude=None):
    """``(nodes, edges)`` of the depth-``k`` BFS subgraph around ``v`` in the
    graph of ``adjacency_sets``: parent ids in ascending order, and the
    sorted local-position pairs without self-loops."""
    banned = normalize_edge(*exclude) if exclude is not None else None
    reached = {v}
    frontier = {v}
    for _ in range(k):
        nxt = set()
        for u in frontier:
            for w in adj[u]:
                if banned is not None and normalize_edge(u, w) == banned:
                    continue
                if w not in reached:
                    nxt.add(w)
        reached |= nxt
        frontier = nxt
    nodes = tuple(sorted(reached))
    edges = set()
    if k > 0:
        for a in nodes:
            for b in adj[a]:
                if b in reached and a != b:
                    e = normalize_edge(a, b)
                    if e != banned:
                        edges.add(e)
    index = {u: i for i, u in enumerate(nodes)}
    return nodes, tuple(sorted(normalize_edge(index[a], index[b]) for a, b in edges))


def single_khop(g, v, k, exclude=None):
    """``khop_union`` for the one query around ``v``, as ``khop_oracle``'s
    ``(nodes, edges)`` tuples; no ``exclude`` removes no edge."""
    a, b = (g.num_nodes, g.num_nodes) if exclude is None else exclude
    nodes, edges = khop_union(g, [v], k, [a], [b])
    return tuple(nodes.tolist()), tuple(map(tuple, edges.tolist()))


def induced_oracle(g, node_ids):
    """``(edges, ids)``: the re-indexed edge set induced on ``node_ids``."""
    ids = tuple(sorted(set(int(v) for v in node_ids)))
    index = {v: i for i, v in enumerate(ids)}
    kept = {normalize_edge(index[u], index[v]) for u, v in edge_set(g)
            if u in index and v in index}
    return kept, ids


def proximity_oracle(adj, u, v):
    """Common neighbors, Jaccard, preferential attachment of one pair in the
    graph of ``adjacency_sets``, both nodes left out of both neighborhoods."""
    nu = adj[u] - {u, v}
    nv = adj[v] - {u, v}
    inter = len(nu & nv)
    union = len(nu | nv)
    jaccard = inter / union if union else 0.0
    return inter, jaccard, len(nu) * len(nv)


def adjacency_matrix(g):
    """Dense symmetric boolean adjacency; self-loops land on the diagonal."""
    adj = np.zeros((g.num_nodes, g.num_nodes), dtype=bool)
    u, v = g.edges.T
    adj[u, v] = True
    adj[v, u] = True
    return adj


def edge_rand_oracle(adj, epsilon, seed):
    """Randomized response on every upper-triangular cell of ``adj``; a
    symmetric matrix with an empty diagonal."""
    n = adj.shape[0]
    flip_prob = 2.0 / (np.exp(epsilon) + 1.0)
    iu, ju = np.triu_indices(n, k=1)
    flips = stream(seed, "edge-rand").random(len(iu)) < flip_prob
    out = np.zeros((n, n), dtype=bool)
    out[iu, ju] = adj[iu, ju] ^ flips
    return out | out.T


def lap_graph_edge_estimate_oracle(adj, epsilon, budget_split, seed):
    iu, ju = np.triu_indices(adj.shape[0], k=1)
    return _edge_count_estimate(adj[iu, ju], budget_split * epsilon, stream(seed, "lap-graph"))


def _edge_count_estimate(upper, eps_count, rng):
    estimate = int(round(int(upper.sum()) + rng.laplace(0.0, 1.0 / eps_count)))
    return max(0, min(estimate, len(upper)))


def lap_graph_oracle(adj, epsilon, budget_split, seed):
    """Laplace-noised upper cells of ``adj``, the estimated number of
    largest kept; a symmetric matrix with an empty diagonal."""
    n = adj.shape[0]
    eps_count = budget_split * epsilon
    rng = stream(seed, "lap-graph")
    iu, ju = np.triu_indices(n, k=1)
    upper = adj[iu, ju]
    estimate = _edge_count_estimate(upper, eps_count, rng)
    noisy = upper.astype(np.float64) + rng.laplace(0.0, 1.0 / (epsilon - eps_count), size=len(iu))
    keep = np.argsort(-noisy, kind="stable")[:estimate]
    out = np.zeros((n, n), dtype=bool)
    out[iu[keep], ju[keep]] = True
    return out | out.T


@st.composite
def raw_graphs(draw):
    """A node count of 0-30 and a list of raw input pairs: self-loops,
    repeats and both orientations allowed, some nodes left isolated."""
    n = draw(st.integers(0, 30))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=3 * n))
