"""The set-based graph code the edge-array/CSR core replaced, kept as oracles.

Each function reads a graph only through its list of edge rows and rebuilds
the Python sets and dicts the earlier implementation kept: a set of
``(min, max)`` tuples and one neighbor set per node.
"""

from hypothesis import strategies as st

from linklab.graph import normalize_edge


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


@st.composite
def raw_graphs(draw):
    """A node count of 0-30 and a list of raw input pairs: self-loops,
    repeats and both orientations allowed, some nodes left isolated."""
    n = draw(st.integers(0, 30))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=3 * n))
