"""Metric contracts: hand-computed values, brute-force oracle equivalence,
and the comparison-statistics conventions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special
from scipy import stats as scipy_stats

from funnellab import metrics

from oracles import brute_force_pr_auc, t_tail_df1, t_tail_df2, welch_t_statistic

# How far the Welch p-value may sit from scipy's, relative, where Welch's df
# is small (at most 2n - 2 for n seeds): the Student-t tail is computed in
# house, so its last bits differ from scipy's.
WELCH_P_REL = 1e-12
# The same bound for the tail over df in [1, 1000], where lgamma differences
# cancel (worst seen against scipy.special.stdtr: 1.0e-11).
T_TAIL_REL = 5e-11


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


def _scores(model_ces, baseline_ces):
    """(mean, sem) of a model against the baseline, through compare_models."""
    stats = metrics.compare_models({"B": dict(enumerate(baseline_ces)),
                                    "M": dict(enumerate(model_ces))}, baseline="B")
    return stats.mean_norm_perf["M"], stats.sem["M"]


class TestNormalizedPerformance:
    def test_baseline_vs_itself_mean_exactly_one(self):
        ces = np.array([0.21, 0.34, 0.27, 0.31])
        mean, sem = _scores(ces, ces)
        assert mean == 1.0
        assert sem > 0

    def test_half_ce_scores_two(self):
        baseline = np.array([0.2, 0.2, 0.2])
        model = np.full(3, np.mean(baseline) / 2.0)
        mean, sem = _scores(model, baseline)
        assert mean == pytest.approx(2.0, rel=1e-12)
        assert sem == 0.0

    def test_lower_ce_scores_above_one(self):
        baseline = np.array([0.30, 0.32, 0.28])
        better = baseline * 0.9
        worse = baseline * 1.1
        assert _scores(better, baseline)[0] > 1.0
        assert _scores(worse, baseline)[0] < 1.0

    @pytest.mark.parametrize("seed,n", [(0, 2), (1, 3), (2, 10), (3, 17)])
    def test_equals_textbook_forms_bit_for_bit(self, seed, n):
        """mean(b) / mean(m) for the mean score, the per-seed ratios
        mean(b) / m for the scores, and their sample std / sqrt(n) for the SEM."""
        rng = np.random.default_rng(seed)
        b = rng.uniform(0.1, 0.5, n)
        ces = {"B": dict(enumerate(b))}
        for name in ("M1", "M2"):
            ces[name] = dict(enumerate(rng.uniform(0.1, 0.5, n)))
        stats = metrics.compare_models(ces, baseline="B")
        for name, by_seed in ces.items():
            m = np.array(list(by_seed.values()))
            assert stats.mean_norm_perf[name] == np.mean(b) / np.mean(m)
            assert stats.sem[name] == np.std(np.mean(b) / m, ddof=1) / math.sqrt(n)
            assert stats.norm_scores[name] == dict(enumerate(np.mean(b) / m))


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
            assert metrics.two_sided_t_test(a, b) == pytest.approx(expected, rel=WELCH_P_REL)

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
                assert metrics.two_sided_t_test(a, b) == pytest.approx(expected,
                                                                       rel=WELCH_P_REL)


class TestStudentTTail:
    """``_t_two_sided_p``, the tail behind the Welch p-value."""

    @pytest.mark.parametrize("df,oracle", [(1.0, t_tail_df1), (2.0, t_tail_df2)],
                             ids=["df1", "df2"])
    def test_closed_forms(self, df, oracle):
        """The oracles subtract from 1, so they are exact only to a few units
        of 1e-16 in absolute terms; the bound is absolute too."""
        ts = np.concatenate([np.linspace(-60.0, 60.0, 4801), 10.0 ** np.arange(-12.0, 2.0)])
        for t in map(float, ts):
            assert abs(metrics._t_two_sided_p(t, df) - oracle(t)) <= 1e-13, t

    @settings(max_examples=300, deadline=None)
    @given(df=st.floats(1.0, 1000.0), t=st.floats(-60.0, 60.0),
           grow=st.floats(1e-3, 60.0))
    def test_matches_scipy_and_falls_with_abs_t(self, df, t, grow):
        """Within T_TAIL_REL of scipy (or both below 1e-300, where the tail
        underflows), in [0, 1], even in t, and no higher at a larger |t|: the
        step is at least 1e-3, because a step within the tail's own rounding
        could move p either way. At df = 1 the reference is the closed form:
        scipy's own df = 1 branch is off by up to 6e-10 relative near p = 1
        (t around 1e-9)."""
        p = metrics._t_two_sided_p(t, df)
        expected = t_tail_df1(t) if df == 1.0 else 2.0 * scipy_special.stdtr(df, -abs(t))
        assert math.isclose(p, expected, rel_tol=T_TAIL_REL, abs_tol=1e-300)
        assert 0.0 <= p <= 1.0
        assert metrics._t_two_sided_p(-t, df) == p
        assert metrics._t_two_sided_p(abs(t) + grow, df) <= p

    @pytest.mark.parametrize("df", [1.0, 2.5, 18.0, 1000.0])
    def test_special_values(self, df):
        """As scipy gives them: exactly 1 at t = 0, 0 at infinite t, NaN at NaN."""
        tail = metrics._t_two_sided_p
        assert tail(0.0, df) == tail(-0.0, df) == 1.0 == 2.0 * scipy_special.stdtr(df, -0.0)
        assert tail(math.inf, df) == tail(-math.inf, df) == 0.0
        assert 2.0 * scipy_special.stdtr(df, -math.inf) == 0.0
        assert math.isnan(tail(math.nan, df)) and math.isnan(scipy_special.stdtr(df, math.nan))

    def test_infinite_df_is_normal_tail(self):
        """Welch's df is infinite when the squared variances underflow and
        the squared sum does not; the p-value is then the normal tail."""
        rng = np.random.default_rng(0)
        for scale in (4e-81, 5e-81):
            a = scale * rng.standard_normal(10)
            b = scale * (1.0 + rng.standard_normal(10))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = scipy_stats.ttest_ind(a, b, equal_var=False)
            assert expected.df == math.inf
            assert metrics.two_sided_t_test(a, b) == pytest.approx(expected.pvalue,
                                                                   rel=WELCH_P_REL)


class TestCompareModels:
    def test_baseline_mean_is_one_and_pvalues_symmetric(self):
        rng = np.random.default_rng(6)
        ces = {name: dict(enumerate(rng.uniform(low, low + 0.1, 10)))
               for name, low in (("IP", 0.2), ("ESP", 0.25), ("IPSP", 0.18))}
        stats = metrics.compare_models(ces, baseline="IP")
        assert stats.mean_norm_perf["IP"] == 1.0
        for a in stats.models:
            for b in stats.models:
                if a != b:
                    assert stats.pvalues[(a, b)] == stats.pvalues[(b, a)]

    def test_better_than_requires_significance_and_higher_mean(self):
        ces = {"IP": dict(enumerate([0.30, 0.31, 0.29, 0.305, 0.295])),
               "ESP": dict(enumerate([0.40, 0.41, 0.39, 0.405, 0.395])),
               # higher mean than ESP, but too spread for p < 0.01
               "IPSP": dict(enumerate([0.20, 0.60, 0.25, 0.55, 0.30]))}
        stats = metrics.compare_models(ces, baseline="IP")
        assert stats.pvalues[("IPSP", "ESP")] > metrics.BETTER_THAN_ALPHA
        assert stats.mean_norm_perf["IPSP"] > stats.mean_norm_perf["ESP"]
        assert stats.better_than == {"IP": ["ESP"], "ESP": [], "IPSP": []}

    def test_norm_scores_keyed_by_seed(self):
        """Scores keep the seeds they came from, gaps included."""
        ces = {"IP": {0: 0.3, 1: 0.2, 2: 0.25}, "ESP": {0: 0.5, 2: 0.4}}
        stats = metrics.compare_models(ces, baseline="IP")
        assert stats.norm_scores == {"IP": {0: 0.25 / 0.3, 1: 0.25 / 0.2, 2: 0.25 / 0.25},
                                     "ESP": {0: 0.25 / 0.5, 2: 0.25 / 0.4}}

    def test_model_with_one_seed_left_out(self):
        ces = {"IP": {0: 0.3, 1: 0.2}, "ESP": {1: 0.5}, "IPSP": {0: 0.25, 1: 0.35}}
        stats = metrics.compare_models(ces, baseline="IP")
        assert stats.models == ["IP", "IPSP"]
        assert set(stats.mean_norm_perf) == set(stats.norm_scores) == {"IP", "IPSP"}
        assert set(stats.pvalues) == {("IP", "IPSP"), ("IPSP", "IP")}

    def test_missing_baseline_rejected(self):
        with pytest.raises(ValueError, match="baseline 'IP' needs results on at least 2"):
            metrics.compare_models({"ESP": {0: 0.1, 1: 0.2}}, baseline="IP")

    def test_baseline_on_one_seed_rejected(self):
        with pytest.raises(ValueError, match="baseline 'IP' needs results on at least 2"):
            metrics.compare_models({"IP": {0: 0.3}, "ESP": {0: 0.1, 1: 0.2}}, baseline="IP")


class TestMetricsRecord:
    def test_pr_auc_bounds_enforced(self):
        with pytest.raises(ValueError):
            metrics.MetricsRecord(joint_ce=0.1, joint_pr_auc=1.5, calibration_ratio=1.0)


class TestWeightChecks:
    @pytest.mark.parametrize("metric", [metrics.weighted_ce, metrics.pr_auc,
                                        metrics.calibration_ratio],
                             ids=["weighted_ce", "pr_auc", "calibration_ratio"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_bad_weight_rejected(self, metric, bad):
        """A weight the funnel's Dataset would refuse is refused here too,
        instead of turning the score into NaN."""
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            metric([0.5, 0.2], [1.0, 0.0], [bad, 1.0])
