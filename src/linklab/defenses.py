"""Defense mechanisms: label-only outputs, soft posteriors, EdgeRand, LapGraph.

The two differential-privacy mechanisms perturb the upper-triangle cells
of the training graph (``graph.upper_cells``) before the defended model is
trained; the other two only transform what a query returns. Every defended
pipeline plugs into the unmodified attack stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graph import Graph, cell_pairs, upper_cells
from .rng import stream

DEFENSE_KINDS = ("none", "label_only", "soft_posterior", "edge_rand", "lap_graph")
DP_KINDS = ("edge_rand", "lap_graph")


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class DefenseConfig:
    kind: str = "none"
    temperature: float = 20.0
    epsilon: float | None = None
    budget_split: float = 0.01

    def __post_init__(self):
        if self.kind not in DEFENSE_KINDS:
            raise ValueError(f"unknown defense kind {self.kind!r}")
        if self.kind == "soft_posterior" and not _finite_positive(self.temperature):
            raise ValueError(f"temperature must be finite and positive, got {self.temperature}")
        if self.kind in DP_KINDS:
            if self.epsilon is None or not _finite_positive(self.epsilon):
                raise ValueError("differential-privacy defenses need a finite epsilon > 0, "
                                 f"got {self.epsilon}")
            if not (0.0 < self.budget_split < 1.0):
                raise ValueError("budget_split must lie in (0, 1)")


def query_temperature(defense: DefenseConfig | None) -> float:
    """Softmax temperature of the posteriors a defended model answers with.

    Label-only replies are argmaxes of the T=1 posteriors; the DP mechanisms
    leave query-time behavior untouched.
    """
    if defense is not None and defense.kind == "soft_posterior":
        return defense.temperature
    return 1.0


def label_only_feature(label_u, label_v, num_classes: int) -> np.ndarray:
    """Sum of the two one-hot label vectors; entries are 0, 1, or 2. Label
    arrays give one row per pair."""
    for labels in (label_u, label_v):
        outside = np.asarray(labels)[(labels < 0) | (labels >= num_classes)]
        if outside.size:
            raise ValueError(f"label {outside.flat[0]} outside [0, {num_classes})")
    one_hot = np.eye(num_classes)
    return one_hot[label_u] + one_hot[label_v]


def edge_rand(g: Graph, epsilon: float, seed: int) -> Graph:
    """Randomized response on every upper-triangular cell.

    Each cell flips independently with probability ``2 / (e^eps + 1)``, the
    calibration that makes the per-edge output epsilon-indistinguishable.
    """
    if not _finite_positive(epsilon):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    cells = upper_cells(g)
    flips = stream(seed, "edge-rand").random(len(cells)) < 2.0 / (np.exp(epsilon) + 1.0)
    return replace(g, edges=cell_pairs(g.num_nodes, np.flatnonzero(cells ^ flips)))


def lap_graph(g: Graph, epsilon: float, budget_split: float, seed: int) -> Graph:
    """Laplace perturbation keeping a privately estimated edge count.

    A ``budget_split`` share of epsilon estimates how many edges to keep;
    the rest noises every upper-triangular cell, and exactly the estimated
    number of largest cells become edges.
    """
    if not _finite_positive(epsilon):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    if not (0.0 < budget_split < 1.0):
        raise ValueError("budget_split must lie in (0, 1)")
    eps_count = budget_split * epsilon
    eps_cells = epsilon - eps_count
    rng = stream(seed, "lap-graph")
    cells = upper_cells(g)
    estimate = _edge_count_estimate(cells, eps_count, rng)
    noisy = cells + rng.laplace(0.0, 1.0 / eps_cells, size=len(cells))
    keep = np.argsort(-noisy, kind="stable")[:estimate]
    return replace(g, edges=cell_pairs(g.num_nodes, keep))


def _edge_count_estimate(cells: np.ndarray, eps_count: float, rng: np.random.Generator) -> int:
    """Laplace-noised count of the upper-triangular edges, clamped to the
    number of cells; the first draw of the mechanism's stream."""
    estimate = int(round(int(cells.sum()) + rng.laplace(0.0, 1.0 / eps_count)))
    return max(0, min(estimate, len(cells)))


def lap_graph_edge_estimate(g: Graph, epsilon: float, budget_split: float, seed: int) -> int:
    """The private edge-count estimate the mechanism will preserve exactly."""
    return _edge_count_estimate(upper_cells(g), budget_split * epsilon, stream(seed, "lap-graph"))


def perturb_graph(g: Graph, defense: DefenseConfig, seed: int) -> Graph:
    """Apply a pre-training edge perturbation when the defense asks for one.

    Self-loops never survive it: a cell always has ``i < j``."""
    if defense.kind == "edge_rand":
        return edge_rand(g, defense.epsilon, seed)
    if defense.kind == "lap_graph":
        return lap_graph(g, defense.epsilon, defense.budget_split, seed)
    return g
