"""Dataset configuration: halving, splits, pair sampling, and synthetic graphs.

The source graph is halved by node count into disjoint target and shadow
datasets (cross-half edges dropped), each of which is split 8:2 into train
and test node sets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .graph import Graph, cell_pairs, induced_subgraph, upper_cells
from .rng import stream

@dataclass(frozen=True)
class SplitBundle:
    """The four disjoint working graphs plus their source-id maps."""

    target_train: Graph
    target_test: Graph
    shadow_train: Graph
    shadow_test: Graph
    target_train_ids: tuple[int, ...]
    target_test_ids: tuple[int, ...]
    shadow_train_ids: tuple[int, ...]
    shadow_test_ids: tuple[int, ...]

    def split_ids(self) -> dict[str, tuple[int, ...]]:
        return {
            "target_train": self.target_train_ids,
            "target_test": self.target_test_ids,
            "shadow_train": self.shadow_train_ids,
            "shadow_test": self.shadow_test_ids,
        }


def _train_test(ids: np.ndarray, rng: np.random.Generator) -> tuple[list[int], list[int]]:
    perm = rng.permutation(len(ids))
    cut = (4 * len(ids)) // 5
    train = sorted(int(ids[i]) for i in perm[:cut])
    test = sorted(int(ids[i]) for i in perm[cut:])
    return train, test


def make_splits(g: Graph, seed: int, shadow_fraction: float = 1.0) -> SplitBundle:
    """Random node halving followed by an 8:2 train/test split in each half."""
    if g.num_nodes < 4:
        raise ValueError("graph too small to split")
    if not (0.0 < shadow_fraction <= 1.0):
        raise ValueError(f"shadow fraction must be in (0, 1], got {shadow_fraction}")

    perm = stream(seed, "halving").permutation(g.num_nodes)
    half = g.num_nodes // 2
    target_ids = np.sort(perm[:half])
    shadow_ids = np.sort(perm[half:])

    if shadow_fraction < 1.0:
        keep = int(round(shadow_fraction * len(shadow_ids)))
        chosen = stream(seed, "shadow-subsample").permutation(len(shadow_ids))[:keep]
        shadow_ids = np.sort(shadow_ids[chosen])

    target_train, target_test = _train_test(target_ids, stream(seed, "target-split"))
    shadow_train, shadow_test = _train_test(shadow_ids, stream(seed, "shadow-split"))
    for name, part in (("target_train", target_train), ("target_test", target_test),
                       ("shadow_train", shadow_train), ("shadow_test", shadow_test)):
        if not part:
            raise ValueError(f"{name} split is empty; graph or shadow fraction too small")

    return _induce_bundle(g, target_train, target_test, shadow_train, shadow_test)


def _induce_bundle(g: Graph, target_train, target_test, shadow_train, shadow_test) -> SplitBundle:
    """The four working graphs induced on their source-node id lists."""
    (tt_graph, tt_ids), (te_graph, te_ids), (st_graph, st_ids), (se_graph, se_ids) = (
        induced_subgraph(g, ids) for ids in (target_train, target_test, shadow_train, shadow_test)
    )
    return SplitBundle(
        target_train=tt_graph, target_test=te_graph,
        shadow_train=st_graph, shadow_test=se_graph,
        target_train_ids=tt_ids, target_test_ids=te_ids,
        shadow_train_ids=st_ids, shadow_test_ids=se_ids,
    )


@dataclass(frozen=True, eq=False)
class PairDataset:
    """Balanced positive/negative node pairs over one training graph: an
    ``(m, 2)`` array of node ids and its ``(m,)`` link labels, both read-only."""

    pairs: np.ndarray
    labels: np.ndarray
    graph: Graph

    def __post_init__(self):
        self.pairs.setflags(write=False)
        self.labels.setflags(write=False)


def build_pair_dataset(g: Graph, seed: int) -> PairDataset:
    """All edges as positives plus an equal number of sampled non-edges."""
    positives = g.edges[g.edges[:, 0] != g.edges[:, 1]]
    if not len(positives):
        raise ValueError("graph has no edges to use as positive pairs")
    n = g.num_nodes
    total_pairs = n * (n - 1) // 2
    num_non_edges = total_pairs - len(positives)
    if num_non_edges < len(positives):
        raise ValueError(
            f"graph too dense: {num_non_edges} non-edges for {len(positives)} edges"
        )

    rng = stream(seed, "negative-sample")
    needed = len(positives)
    if total_pairs <= 200_000 or num_non_edges < 3 * needed:
        # every non-edge cell in row-major upper-triangle order
        candidates = np.flatnonzero(~upper_cells(g))
        chosen = rng.choice(len(candidates), size=needed, replace=False)
        negatives = cell_pairs(n, candidates[np.sort(chosen)])
    else:
        seen: set[int] = set()
        negatives = []
        while len(negatives) < needed:
            u, v = sorted((int(rng.integers(0, n)), int(rng.integers(0, n))))
            if u == v or u * n + v in seen or g.has_edge(u, v):
                continue
            seen.add(u * n + v)
            negatives.append((u, v))

    pairs = np.concatenate([positives, np.array(negatives, dtype=np.int64)])
    labels = np.repeat(np.array([1, 0], dtype=np.int64), needed)
    order = stream(seed, "pair-shuffle").permutation(len(pairs))
    return PairDataset(pairs=pairs[order], labels=labels[order], graph=g)


def generate_planted_partition(n: int, communities: int, p_in: float, p_out: float,
                               feature_dim: int, noise: float, seed: int) -> Graph:
    """Synthetic community graph with community-correlated Gaussian features.

    Labels are community ids; features are the community centroid plus
    isotropic noise.
    """
    if communities < 2:
        raise ValueError("need at least 2 communities")
    if n < communities:
        raise ValueError("need at least one node per community")
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ValueError(f"require 0 <= p_out < p_in <= 1, got p_in={p_in} p_out={p_out}")
    if feature_dim < 1:
        raise ValueError("feature_dim must be positive")
    if noise < 0:
        raise ValueError("noise must be non-negative")

    base = n // communities
    remainder = n % communities
    labels = np.concatenate([
        np.full(base + (1 if c < remainder else 0), c, dtype=np.int64)
        for c in range(communities)
    ])

    iu, ju = np.triu_indices(n, k=1)
    same = labels[iu] == labels[ju]
    probs = np.where(same, p_in, p_out)
    draws = stream(seed, "edges").random(len(iu))
    chosen = draws < probs
    edges = np.stack([iu[chosen], ju[chosen]], axis=1)

    centroids = stream(seed, "centroids").normal(0.0, 1.0, size=(communities, feature_dim))
    features = centroids[labels] + noise * stream(seed, "feature-noise").normal(
        0.0, 1.0, size=(n, feature_dim)
    )
    return Graph(num_nodes=n, edges=edges, features=features, labels=labels)


def write_split_manifest(bundle: SplitBundle, directory: str, prefix: str = "") -> None:
    """One text file per split listing the source-graph node ids."""
    os.makedirs(directory, exist_ok=True)
    for name, ids in bundle.split_ids().items():
        with open(os.path.join(directory, f"{prefix}{name}.txt"), "w") as fh:
            for v in ids:
                fh.write(f"{v}\n")


def read_split_manifest(directory: str, prefix: str = "") -> dict[str, tuple[int, ...]]:
    out = {}
    for name in ("target_train", "target_test", "shadow_train", "shadow_test"):
        path = os.path.join(directory, f"{prefix}{name}.txt")
        with open(path) as fh:
            out[name] = tuple(int(line.strip()) for line in fh if line.strip())
    return out


def bundle_from_manifest(g: Graph, directory: str, prefix: str = "") -> SplitBundle:
    """Rebuild the exact SplitBundle recorded by ``write_split_manifest``."""
    return _induce_bundle(g, **read_split_manifest(directory, prefix))
