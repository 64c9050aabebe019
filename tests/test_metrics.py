"""AUC against the pair-count oracle, groups, correlation, link analyses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linklab.metrics import (
    auc,
    average_ranks,
    leading_probability_cdf,
    metric_groups,
    pearson_correlation,
    robustness_groups,
    surprising_links,
)


def average_ranks_loop_oracle(values):
    """The Python loop ``average_ranks`` replaced: walk the stable sort and
    give each run of ties, positions i..j, the rank ``(i + j) / 2 + 1``."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def auc_with_ranks(scores, labels, ranks):
    num_pos = int((labels == 1).sum())
    num_neg = len(labels) - num_pos
    return float((ranks[labels == 1].sum() - num_pos * (num_pos + 1) / 2.0)
                 / (num_pos * num_neg))


# few distinct values, so ties are common; -0.0 and 0.0 tie with each other
tied_scores = st.lists(st.sampled_from([-0.0, 0.0, 0.5, -1.5, 1e-300, 2.0, 3.25]), max_size=60)


def auc_pair_count_oracle(scores, labels):
    """O(P*N): fraction of (positive, negative) pairs won, ties half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert auc(scores, labels) == 1.0

    def test_all_ties_half(self):
        scores = np.ones(10)
        labels = np.array([1] * 5 + [0] * 5)
        assert auc(scores, labels) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_matches_pair_count_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(20, 200))
            scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert abs(auc(scores, labels) - auc_pair_count_oracle(scores, labels)) < 1e-12

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=100)
        labels = rng.integers(0, 2, size=100)
        labels[0], labels[1] = 0, 1
        base = auc(scores, labels)
        assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)

    def test_label_flip_complements(self):
        rng = np.random.default_rng(5)
        scores = np.round(rng.normal(size=80), 1)
        labels = rng.integers(0, 2, size=80)
        labels[0], labels[1] = 0, 1
        assert auc(scores, labels) + auc(scores, 1 - labels) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(tied_scores, st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                           max_size=60)), st.data())
    def test_ranks_and_auc_bitwise_equal_to_loop(self, values, data):
        values = np.array(values, dtype=np.float64)
        ranks = average_ranks(values)
        assert ranks.dtype == np.float64 and ranks.shape == values.shape
        assert ranks.tobytes() == average_ranks_loop_oracle(values).tobytes()
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(values),
                                             max_size=len(values))), dtype=np.int64)
        if 0 < labels.sum() < len(labels):
            want = auc_with_ranks(values, labels, average_ranks_loop_oracle(values))
            assert np.float64(auc(values, labels)).tobytes() == np.float64(want).tobytes()

    def test_average_ranks_signed_zeros_tie(self):
        np.testing.assert_array_equal(average_ranks(np.array([0.0, -0.0, 1.0, -0.0])),
                                      [2.0, 2.0, 4.0, 2.0])

    def test_average_ranks_ties(self):
        np.testing.assert_array_equal(average_ranks(np.array([10.0, 20.0, 20.0, 30.0])),
                                      [1.0, 2.5, 2.5, 4.0])


class TestRobustnessGroups:
    def test_all_equal_metric_still_defined(self):
        rng = np.random.default_rng(7)
        rep = robustness_groups(rng.random(40), np.ones(40), rng.random(40), "jaccard")
        assert len(rep.group_aucs) == 10
        assert sum(rep.group_sizes) == 40

    def test_perfect_scores_all_groups_one(self):
        rep = robustness_groups(np.ones(30), np.arange(30, dtype=float), np.zeros(25), "cn")
        assert all(a == 1.0 for a in rep.group_aucs)

    def test_monotone_construction(self):
        # positive scores proportional to metric rank: group AUCs never increase
        metric = np.arange(100, dtype=float)
        pos_scores = metric / 100.0
        neg_scores = np.full(60, 0.495)
        rep = robustness_groups(pos_scores, metric, neg_scores, "pa")
        assert all(a >= b - 1e-12 for a, b in zip(rep.group_aucs, rep.group_aucs[1:]))

    def test_size_balancing_with_remainder(self):
        rep = robustness_groups(np.random.default_rng(1).random(23),
                                np.arange(23, dtype=float),
                                np.random.default_rng(2).random(9), "ns")
        assert rep.group_sizes == (3, 3, 3, 2, 2, 2, 2, 2, 2, 2)

    def test_too_few_positives(self):
        with pytest.raises(ValueError):
            robustness_groups(np.ones(5), np.ones(5), np.zeros(5), "cn")

    def test_boundaries_descend(self):
        rng = np.random.default_rng(9)
        metric = rng.random(57)
        rep = robustness_groups(rng.random(57), metric, rng.random(31), "ns")
        highs = [b[0] for b in rep.boundaries]
        assert highs == sorted(highs, reverse=True)

    def test_overall_auc_within_group_range(self):
        rng = np.random.default_rng(10)
        pos = rng.random(70)
        neg = rng.random(50)
        rep = robustness_groups(pos, rng.random(70), neg, "jaccard")
        overall = auc(np.concatenate([pos, neg]),
                      np.concatenate([np.ones(70, dtype=int), np.zeros(50, dtype=int)]))
        assert min(rep.group_aucs) - 1e-12 <= overall <= max(rep.group_aucs) + 1e-12


class TestPearson:
    def test_affine_positive(self):
        x = np.arange(20, dtype=float)
        assert pearson_correlation(x, 2 * x + 1) == pytest.approx(1.0)

    def test_negative(self):
        x = np.arange(20, dtype=float)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_degenerate_zero(self):
        assert pearson_correlation(np.ones(5), np.arange(5, dtype=float)) == 0.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            x = rng.normal(size=50)
            y = rng.normal(size=50)
            mx, my = x.mean(), y.mean()
            num = float(np.sum((x - mx) * (y - my)))
            den = float(np.sqrt(np.sum((x - mx) ** 2) * np.sum((y - my) ** 2)))
            assert abs(pearson_correlation(x, y) - num / den) < 1e-12


class TestSurprisingLinks:
    def test_identical_verdicts_zero(self):
        v = np.array([1, 0, 1, 1])
        result = surprising_links(v, v, [0, 1])
        assert result.last_group_rate == 0.0
        assert result.overall_rate == 0.0

    def test_attack_right_baseline_wrong(self):
        attack = np.ones(6, dtype=int)
        baseline = np.zeros(6, dtype=int)
        result = surprising_links(attack, baseline, [4, 5])
        assert result.last_group_rate == 1.0
        assert result.overall_rate == 1.0

    def test_counting_oracle(self):
        rng = np.random.default_rng(12)
        attack = rng.integers(0, 2, size=40)
        baseline = rng.integers(0, 2, size=40)
        idx = np.arange(30, 40)
        manual = sum(1 for i in idx if attack[i] == 1 and baseline[i] == 0) / 10
        assert surprising_links(attack, baseline, idx).last_group_rate == pytest.approx(manual)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            surprising_links(np.ones(3, dtype=int), np.zeros(3, dtype=int), [])

    def test_last_group_indices_lowest_metric(self):
        metric = np.array([5.0, 1.0, 4.0, 0.5, 3.0, 2.5, 2.0, 1.5, 4.5, 3.5,
                           0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9, 1.1, 1.2])
        idx = metric_groups(metric, groups=10)[-1]
        assert len(idx) == 2
        assert set(metric[idx]) == {0.1, 0.2}


class TestLeadingProbabilityCdf:
    def test_one_hot_single_step(self):
        posts = np.eye(4)[np.array([0, 1, 2, 3, 1])]
        values, fractions = leading_probability_cdf(posts)
        assert np.all(values == 1.0)
        assert fractions[-1] == 1.0

    def test_uniform_posteriors(self):
        posts = np.full((6, 4), 0.25)
        values, fractions = leading_probability_cdf(posts)
        assert np.all(values == 0.25)

    def test_monotone_and_complete(self):
        rng = np.random.default_rng(13)
        posts = rng.dirichlet(np.ones(5), size=40)
        values, fractions = leading_probability_cdf(posts)
        assert np.all(np.diff(values) >= 0)
        assert np.all(np.diff(fractions) > 0)
        assert fractions[-1] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            leading_probability_cdf(np.zeros((0, 3)))
