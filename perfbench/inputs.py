"""Workload definitions and the benchmark's own input generator.

The graphs are drawn here, not by ``linklab.data.generate_planted_partition``,
so a change to the package's generator cannot change a workload. Each graph
is written in the package's on-disk dataset layout and handed to the
pipeline as ``--dataset``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

ALL_ATTACKS = ("a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "b0", "b1", "b2")


@dataclass(frozen=True)
class GraphSpec:
    """Planted partition: equal contiguous communities, edge probability
    ``p_in`` within and ``p_out`` across them, community centroid plus
    Gaussian noise as node features."""

    nodes: int
    communities: int
    p_in: float
    p_out: float
    feature_dim: int = 32
    noise: float = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    graph: GraphSpec
    attacks: tuple[str, ...]
    flags: tuple[str, ...]

    def argv(self, dataset: str, seed: int, out: str) -> list[str]:
        """``linklab attack`` arguments for one seeded pipeline pass."""
        return ["attack", "--dataset", dataset, "--runs", "1", "--seed", str(seed),
                "--out", out, "--attack", ",".join(self.attacks), *self.flags]


DESK = GraphSpec(nodes=400, communities=4, p_in=0.1, p_out=0.005)
CORA = GraphSpec(nodes=2708, communities=7, p_in=0.0083, p_out=0.0003)

WORKLOADS = {
    w.name: w
    for w in (
        # The paper's full taxonomy: per-pair k-hop queries and 13 MLP trainings.
        Workload("desk-taxonomy", DESK, ALL_ATTACKS,
                 ("--arch", "sage", "--shadow-arch", "sage", "--defense", "none", "--analyses")),
        # Dense full-graph GNN training on a sparse graph; one-node hop-0 queries.
        Workload("cora-sparse", CORA, ("a0",),
                 ("--arch", "sage", "--shadow-arch", "sage", "--defense", "none")),
        # The same training layer on a target graph EdgeRand makes dense. SAGE
        # keeps each node's own features apart from its neighbours', so the
        # target still learns; GCN averages them into the random neighbourhood
        # and scores at chance there, which the accuracy check cannot tell
        # from a wrong answer.
        Workload("cora-edgerand", CORA, ("a1",),
                 ("--arch", "sage", "--shadow-arch", "sage", "--defense", "edgerand",
                  "--epsilon", "1")),
    )
}


def planted_partition(spec: GraphSpec, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(edges, features, labels)`` drawn from ``seed`` alone.

    Each pair of communities gets exactly ``round(p * cells)`` edges, drawn
    uniformly without replacement, rather than one Bernoulli draw per cell.
    The expected graph is the same, but the edge count, which sets how much
    work an operation does, no longer varies from seed to seed.
    """
    edge_rng, centroid_rng, noise_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence([seed, 0x11CB]).spawn(3)
    )
    n, c = spec.nodes, spec.communities
    labels = np.arange(n, dtype=np.int64) * c // n
    starts = np.searchsorted(labels, np.arange(c + 1))
    chunks = []
    for a in range(c):
        size_a = starts[a + 1] - starts[a]
        for b in range(a, c):
            if a == b:
                rows, cols = np.triu_indices(size_a, k=1)
                p = spec.p_in
            else:
                size_b = starts[b + 1] - starts[b]
                rows, cols = np.divmod(np.arange(size_a * size_b), size_b)
                p = spec.p_out
            picks = edge_rng.choice(rows.size, size=round(p * rows.size), replace=False)
            chunks.append(np.column_stack([rows[picks] + starts[a], cols[picks] + starts[b]]))
    edges = np.concatenate(chunks).astype(np.int64)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    centroids = centroid_rng.normal(0.0, 1.0, size=(c, spec.feature_dim))
    features = centroids[labels] + spec.noise * noise_rng.normal(0.0, 1.0, size=(n, spec.feature_dim))
    return edges, features, labels


def write_dataset(directory: str, spec: GraphSpec, seed: int) -> None:
    """Write ``edges.tsv``, ``features.csv`` and ``labels.csv`` for one seed."""
    edges, features, labels = planted_partition(spec, seed)
    os.makedirs(directory, exist_ok=True)
    np.savetxt(os.path.join(directory, "edges.tsv"), edges, fmt="%d", delimiter="\t")
    np.savetxt(os.path.join(directory, "features.csv"), features, fmt="%.17g", delimiter=",")
    np.savetxt(os.path.join(directory, "labels.csv"), labels, fmt="%d")
