"""Evaluation: AUC, robustness groups, correlation, link analyses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned their average rank."""
    values = np.asarray(values, dtype=np.float64)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    # each run of ties fills the sorted positions i..j, 0-based
    j = np.cumsum(counts) - 1
    i = j - counts + 1
    return ((i + j) / 2.0 + 1.0)[inverse]


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based (Mann-Whitney) area under the ROC curve; ties count half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be matching vectors")
    num_pos = int((labels == 1).sum())
    num_neg = int((labels == 0).sum())
    if num_pos == 0 or num_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    ranks = average_ranks(scores)
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg))


@dataclass(frozen=True)
class GroupReport:
    """Per-group AUC over positives binned by one pair metric.

    Groups are listed in descending metric order; ``boundaries`` holds the
    (max, min) metric values inside each group.
    """

    metric_name: str
    group_aucs: tuple[float, ...]
    boundaries: tuple[tuple[float, float], ...]
    group_sizes: tuple[int, ...]


def metric_groups(positive_metric: np.ndarray, groups: int = 10) -> list[np.ndarray]:
    """Positions of the positives in each of ``groups`` near-equal groups,
    ordered by descending metric value; the first groups take the remainder."""
    positive_metric = np.asarray(positive_metric, dtype=np.float64)
    num_pos = len(positive_metric)
    if num_pos < groups:
        raise ValueError(f"need at least {groups} positives, got {num_pos}")
    # Descending metric, ties broken by ascending position for reproducibility.
    order = np.lexsort((np.arange(num_pos), -positive_metric))
    return np.array_split(order, groups)


def robustness_groups(positive_scores: np.ndarray, positive_metric: np.ndarray,
                      negative_scores: np.ndarray, metric_name: str,
                      groups: int = 10) -> GroupReport:
    """Bin positives into near-equal groups by descending metric value and
    score each group against all negatives."""
    positive_scores = np.asarray(positive_scores, dtype=np.float64)
    positive_metric = np.asarray(positive_metric, dtype=np.float64)
    negative_scores = np.asarray(negative_scores, dtype=np.float64)
    if positive_metric.shape != positive_scores.shape:
        raise ValueError("every positive pair needs a metric value")

    aucs = []
    bounds = []
    neg_labels = np.zeros(len(negative_scores), dtype=np.int64)
    chunks = metric_groups(positive_metric, groups)
    for chunk in chunks:
        chunk_metric = positive_metric[chunk]
        combined = np.concatenate([positive_scores[chunk], negative_scores])
        labels = np.concatenate([np.ones(len(chunk), dtype=np.int64), neg_labels])
        aucs.append(auc(combined, labels))
        bounds.append((float(chunk_metric.max()), float(chunk_metric.min())))
    return GroupReport(metric_name=metric_name, group_aucs=tuple(aucs),
                       boundaries=tuple(bounds),
                       group_sizes=tuple(len(chunk) for chunk in chunks))


def pearson_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Sample Pearson correlation; 0 when either side is degenerate."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be matching vectors")
    if len(x) < 2:
        return 0.0
    dx = x - x.mean()
    dy = y - y.mean()
    vx = np.dot(dx, dx)
    vy = np.dot(dy, dy)
    if vx == 0.0 or vy == 0.0:
        return 0.0
    return float(np.dot(dx, dy) / np.sqrt(vx * vy))


@dataclass(frozen=True)
class SurprisingLinks:
    """Share of positives caught by the attack but missed by the baseline."""

    last_group_rate: float
    overall_rate: float


def surprising_links(attack_decisions: np.ndarray, baseline_decisions: np.ndarray,
                     last_group) -> SurprisingLinks:
    """Rate of attack-hit / baseline-miss positives in the lowest-metric
    group, with the same rate over all positives as reference."""
    attack_decisions = np.asarray(attack_decisions, dtype=np.int64)
    baseline_decisions = np.asarray(baseline_decisions, dtype=np.int64)
    if attack_decisions.shape != baseline_decisions.shape:
        raise ValueError("verdicts must align over the same positive pairs")
    idx = np.asarray(list(last_group), dtype=np.int64)
    if idx.size == 0:
        raise ValueError("last group is empty")
    surprising = (attack_decisions == 1) & (baseline_decisions == 0)
    return SurprisingLinks(
        last_group_rate=float(surprising[idx].mean()),
        overall_rate=float(surprising.mean()),
    )


def leading_probability_cdf(posteriors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of each posterior's largest entry.

    Returns the sorted leading probabilities and their cumulative fractions.
    """
    posteriors = np.asarray(posteriors, dtype=np.float64)
    if posteriors.ndim != 2 or posteriors.shape[0] == 0:
        raise ValueError("need a non-empty [rows x classes] posterior matrix")
    leading = np.sort(posteriors.max(axis=1))
    fractions = np.arange(1, len(leading) + 1, dtype=np.float64) / len(leading)
    return leading, fractions
