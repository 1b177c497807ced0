"""Metric contracts: hand-computed values, brute-force oracle equivalence,
and the comparison-statistics conventions."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

from funnellab import metrics
from funnellab.oracles import brute_force_pr_auc

from oracles import welch_t_statistic


class TestWeightedCe:
    def test_matching_predictions_near_zero(self):
        labels = np.array([1.0, 0.0, 1.0])
        assert metrics.weighted_ce(labels, labels) < 1e-5

    def test_half_everywhere_is_ln2(self):
        preds = np.full(5, 0.5)
        labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        assert metrics.weighted_ce(preds, labels) == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_computed_pair(self):
        got = metrics.weighted_ce([0.9, 0.2], [1.0, 0.0], [1.0, 1.0])
        assert got == pytest.approx(0.164252033486018, abs=1e-12)

    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        preds = rng.random(50)
        labels = (rng.random(50) < 0.4).astype(float)
        weights = rng.uniform(0.1, 5.0, 50)
        a = metrics.weighted_ce(preds, labels, weights)
        b = metrics.weighted_ce(preds, labels, weights * 37.5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            metrics.weighted_ce([], [], [])

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError):
            metrics.weighted_ce([0.5], [1.0], [0.0])


class TestPrAuc:
    def test_perfect_separation(self):
        preds = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        assert metrics.pr_auc(preds, labels) == 1.0

    def test_hand_enumerated(self):
        # positives at ranks 1 and 3: (1/1 + 2/3) / 2
        got = metrics.pr_auc([0.9, 0.8, 0.3], [1.0, 0.0, 1.0])
        assert got == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_random_predictions_approach_positive_rate(self):
        rng = np.random.default_rng(11)
        n, rho = 10_000, 0.3
        labels = (rng.random(n) < rho).astype(float)
        preds = rng.random(n)
        got = metrics.pr_auc(preds, labels)
        assert got == pytest.approx(labels.mean(), abs=0.02)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            metrics.pr_auc([0.5, 0.6], [1.0, 1.0])
        with pytest.raises(ValueError):
            metrics.pr_auc([0.5, 0.6], [0.0, 0.0])

    def test_matches_brute_force_on_1000_random_instances(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 201))
            labels = (rng.random(n) < rng.uniform(0.05, 0.9)).astype(float)
            if labels.sum() in (0, n):
                continue
            # quantized predictions force plenty of ties
            preds = np.round(rng.random(n), 2)
            weights = rng.uniform(0.1, 10.0, n)
            fast = metrics.pr_auc(preds, labels, weights)
            brute = brute_force_pr_auc(list(preds), list(labels), list(weights))
            assert abs(fast - brute) <= 1e-9
            checked += 1

    def test_tie_break_is_stable_input_order(self):
        # equal predictions: positives listed first win earlier ranks
        a = metrics.pr_auc([0.5, 0.5], [1.0, 0.0])
        b = metrics.pr_auc([0.5, 0.5], [0.0, 1.0])
        assert a == 1.0
        assert b == 0.5


class TestCalibrationRatio:
    def test_all_zero_predictions(self):
        assert metrics.calibration_ratio([0.0, 0.0], [1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_doubling_predictions_doubles_ratio(self):
        rng = np.random.default_rng(1)
        preds = rng.uniform(0.0, 0.4, 30)
        labels = (rng.random(30) < 0.3).astype(float)
        labels[0] = 1.0
        one = metrics.calibration_ratio(preds, labels)
        two = metrics.calibration_ratio(2 * preds, labels)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_zero_positive_weight_rejected(self):
        with pytest.raises(ValueError):
            metrics.calibration_ratio([0.5], [0.0])


class TestNormalizedPerformance:
    def test_baseline_vs_itself_mean_exactly_one(self):
        ces = np.array([0.21, 0.34, 0.27, 0.31])
        mean, sem = metrics.normalized_performance(ces, ces)
        assert mean == 1.0
        assert sem > 0

    def test_half_ce_scores_two(self):
        baseline = np.array([0.2, 0.2, 0.2])
        model = np.full(3, np.mean(baseline) / 2.0)
        mean, sem = metrics.normalized_performance(model, baseline)
        assert mean == pytest.approx(2.0, rel=1e-12)
        assert sem == 0.0

    def test_lower_ce_scores_above_one(self):
        baseline = np.array([0.30, 0.32, 0.28])
        better = baseline * 0.9
        worse = baseline * 1.1
        assert metrics.normalized_performance(better, baseline)[0] > 1.0
        assert metrics.normalized_performance(worse, baseline)[0] < 1.0

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            metrics.normalized_performance([0.2], [0.3, 0.4])


class TestTwoSidedTTest:
    def test_identical_samples_p_one(self):
        assert metrics.two_sided_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_extreme_separation(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 1.0, 10)
        b = rng.normal(0.0, 1.0, 10) + 10.0 * np.sqrt((a.var() + 1.0) / 2)
        assert metrics.two_sided_t_test(a, b) < 0.001

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0, 1, 8)
        b = rng.normal(0.5, 2, 12)
        assert metrics.two_sided_t_test(a, b) == metrics.two_sided_t_test(b, a)

    def test_zero_variance_equal_samples(self):
        assert metrics.two_sided_t_test([2.0, 2.0], [2.0, 2.0]) == 1.0

    def test_zero_variance_distinct_samples(self):
        assert metrics.two_sided_t_test([2.0, 2.0], [3.0, 3.0]) == 0.0

    def test_matches_first_principles_welch(self):
        rng = np.random.default_rng(5)
        a = list(rng.normal(0.0, 1.0, 9))
        b = list(rng.normal(0.4, 1.7, 14))
        t, df = welch_t_statistic(a, b)
        expected = 2.0 * scipy_stats.t.sf(abs(t), df)
        assert metrics.two_sided_t_test(a, b) == pytest.approx(expected, rel=1e-10)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            metrics.two_sided_t_test([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("na,nb", [(10, 10), (6, 15), (2, 24), (3, 2)])
    def test_equals_scipy_to_the_last_bit(self, na, nb):
        rng = np.random.default_rng(100 * na + nb)
        for _ in range(250):
            scale = 10.0 ** rng.uniform(-6.0, 1.0)
            a = 1.0 + scale * rng.standard_normal(na)
            b = 1.0 + scale * (rng.uniform(-1, 1) + rng.uniform(0.1, 3) * rng.standard_normal(nb))
            expected = scipy_stats.ttest_ind(a, b, equal_var=False).pvalue
            assert metrics.two_sided_t_test(a, b) == expected

    def test_one_zero_variance_group_equals_scipy(self):
        rng = np.random.default_rng(7)
        for na, nb in ((4, 4), (5, 9), (12, 2)):
            constant = np.full(na, 1.25)
            varied = 1.0 + 0.3 * rng.standard_normal(nb)
            for a, b in ((constant, varied), (varied, constant)):
                # the oracle warns of precision loss on the constant group;
                # funnellab's own call below must stay warning-free
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "Precision loss", RuntimeWarning)
                    expected = scipy_stats.ttest_ind(a, b, equal_var=False).pvalue
                assert metrics.two_sided_t_test(a, b) == expected


class TestCompareModels:
    def test_baseline_mean_is_one_and_pvalues_symmetric(self):
        rng = np.random.default_rng(6)
        ces = {"IP": rng.uniform(0.2, 0.3, 10),
               "ESP": rng.uniform(0.25, 0.35, 10),
               "IPSP": rng.uniform(0.18, 0.28, 10)}
        stats = metrics.compare_models(ces, baseline="IP")
        assert stats.mean_norm_perf["IP"] == 1.0
        for a in stats.models:
            for b in stats.models:
                if a != b:
                    assert stats.pvalues[(a, b)] == stats.pvalues[(b, a)]

    def test_better_than_requires_significance_and_higher_mean(self):
        ces = {"IP": [0.30, 0.31, 0.29, 0.305, 0.295],
               "ESP": [0.40, 0.41, 0.39, 0.405, 0.395]}
        stats = metrics.compare_models(ces, baseline="IP")
        table = metrics.better_than_table(stats, alpha=0.01)
        assert table["IP"] == ["ESP"]
        assert table["ESP"] == []

    def test_missing_baseline_rejected(self):
        with pytest.raises(ValueError):
            metrics.compare_models({"ESP": [0.1, 0.2]}, baseline="IP")


class TestMetricsRecord:
    def test_pr_auc_bounds_enforced(self):
        with pytest.raises(ValueError):
            metrics.MetricsRecord(joint_ce=0.1, joint_pr_auc=1.5, calibration_ratio=1.0)
