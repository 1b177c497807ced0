"""Funnel generator contracts: label structure, base-rate targeting,
downsampling calibration, drift determinism, oracle cross-entropy."""

import dataclasses
import math
import pickle
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from funnellab import funnel as fd
from funnellab import metrics
from oracles import whole_sample_intercepts


def _toy_config(**kwargs):
    defaults = dict(dense_dim=4, n_categorical=2, vocab_size=8, n_days=3, seed=5)
    defaults.update(kwargs)
    return fd.make_funnel_config(**defaults)


def _constant_rate_config(p, dense_dim=2, n_days=2):
    """Zero generative weights: every impression has the same probabilities."""
    logit = math.log(p / (1.0 - p))
    return fd.FunnelConfig(
        dense_dim=dense_dim, n_categorical=0, vocab_size=1,
        click_dense=np.zeros(dense_dim), click_cat=np.zeros((0, 1)),
        click_intercept=logit,
        conv_dense=np.zeros(dense_dim), conv_cat=np.zeros((0, 1)),
        conv_intercept=logit,
        drift_rate=0.0, n_days=n_days,
        base_click_rate_target=p, base_conv_rate_target=p)


def _oracle_joint(gt, dense, cats):
    """The oracle's joint prediction for day-0 rows, through ``predict_dataset``."""
    n = len(dense)
    zeros = np.zeros(n, dtype=int)
    ds = fd.Dataset(dense, cats, zeros, zeros, np.ones(n), zeros, "fp")
    return gt.predict_dataset(ds)["joint"]


class TestGroundTruthProbabilities:
    def test_zero_weights_give_half(self):
        cfg = _constant_rate_config(0.5)
        gt = fd.GroundTruth(cfg)
        x = np.zeros((3, 2))
        cats = np.zeros((3, 0), dtype=int)
        ctr, cvr = gt.probabilities(x, cats)
        np.testing.assert_allclose(ctr, 0.5)
        np.testing.assert_allclose(cvr, 0.5)
        np.testing.assert_allclose(_oracle_joint(gt, x, cats), 0.25)

    def test_joint_bounded_by_both_factors(self):
        cfg = _toy_config()
        gt = fd.GroundTruth(cfg)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((500, cfg.dense_dim))
        cats = rng.integers(0, cfg.vocab_size, (500, cfg.n_categorical))
        joint = _oracle_joint(gt, x, cats)
        ctr, cvr = gt.probabilities(x, cats)
        assert np.all(joint <= ctr)
        assert np.all(joint <= cvr)

    def test_joint_is_exact_product(self):
        cfg = _toy_config()
        gt = fd.GroundTruth(cfg)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, cfg.dense_dim))
        cats = rng.integers(0, cfg.vocab_size, (100, cfg.n_categorical))
        ctr, cvr = gt.probabilities(x, cats)
        np.testing.assert_array_equal(_oracle_joint(gt, x, cats), ctr * cvr)

    def test_hand_set_weights_analytic_sigmoid(self):
        cfg = fd.FunnelConfig(
            dense_dim=1, n_categorical=0, vocab_size=1,
            click_dense=np.array([1.0]), click_cat=np.zeros((0, 1)),
            click_intercept=0.0,
            conv_dense=np.array([1.0]), conv_cat=np.zeros((0, 1)),
            conv_intercept=0.0,
            drift_rate=0.0, n_days=1,
            base_click_rate_target=0.5, base_conv_rate_target=0.5)
        gt = fd.GroundTruth(cfg)
        got, _ = gt.probabilities(np.array([[math.log(3.0)]]), np.zeros((1, 0), dtype=int))
        assert got[0] == pytest.approx(0.75, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        gt = fd.GroundTruth(_toy_config())
        with pytest.raises(ValueError):
            gt.probabilities(np.zeros((2, 7)), np.zeros((2, 2), dtype=int))

    @pytest.mark.parametrize("case", ["cats-transposed", "single-example", "cats-1d"])
    def test_misshapen_batch_rejected(self, case):
        """Only (n, dense_dim) and (n, n_categorical) arrays are a batch; a
        reshape would pair features with the wrong rows."""
        cfg = _toy_config()
        gt = fd.GroundTruth(cfg)
        ds = fd.generate_day(cfg, 0, 4, seed=1)
        dense, cats, match = {
            "cats-transposed": (ds.dense, ds.cats.T.copy(),
                                r"cats must be an integer array of shape \(4, 2\)"),
            "single-example": (ds.dense[0], ds.cats[0], r"dense must have shape \(n, 4\)"),
            "cats-1d": (ds.dense[:1], ds.cats[0],
                        r"cats must be an integer array of shape \(1, 2\)"),
        }[case]
        with pytest.raises(ValueError, match=match):
            gt.probabilities(dense, cats)

    def test_predict_dataset_checks_each_day_once(self, monkeypatch):
        """One oracle pass per day: ctr and cvr come from one batch check."""
        cfg = _toy_config()
        ds = fd.generate_day(cfg, 1, 50, seed=2)
        check_batch, calls = fd.check_batch, []

        def counted(*args):
            calls.append(len(args[0]))
            return check_batch(*args)

        monkeypatch.setattr(fd, "check_batch", counted)
        fd.GroundTruth(cfg).predict_dataset(ds)
        assert calls == [50]


@pytest.mark.usefixtures("uncached_config_builds")
class TestMakeFunnelConfig:
    def test_realized_rates_hit_targets_within_10_percent(self):
        cfg = fd.make_funnel_config(base_click_rate=0.05, base_conv_rate=0.10, seed=3)
        gt = fd.GroundTruth(cfg)
        rng = np.random.default_rng(99)
        x = rng.standard_normal((400_000, cfg.dense_dim))
        cats = rng.integers(0, cfg.vocab_size, (400_000, cfg.n_categorical))
        p_click, p_conv = gt.probabilities(x, cats)
        click_rate = p_click.mean()
        conv_rate = np.average(p_conv, weights=p_click)
        assert abs(click_rate - 0.05) < 0.1 * 0.05
        assert abs(conv_rate - 0.10) < 0.1 * 0.10

    def test_correlation_is_exact_on_dense_weights(self):
        cfg = fd.make_funnel_config(correlation=0.5, seed=11)
        cos = (cfg.click_dense @ cfg.conv_dense
               / np.linalg.norm(cfg.click_dense) / np.linalg.norm(cfg.conv_dense))
        assert cos == pytest.approx(0.5, abs=1e-9)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            fd.make_funnel_config(correlation=1.5)
        with pytest.raises(ValueError):
            fd.make_funnel_config(seed=-1)
        with pytest.raises(ValueError):
            fd.FunnelConfig(
                dense_dim=2, n_categorical=0, vocab_size=1,
                click_dense=np.zeros(3), click_cat=np.zeros((0, 1)),
                click_intercept=0.0, conv_dense=np.zeros(2),
                conv_cat=np.zeros((0, 1)), conv_intercept=0.0,
                drift_rate=0.0, n_days=1,
                base_click_rate_target=0.5, base_conv_rate_target=0.5)

    @pytest.mark.parametrize("kwargs,match", [
        ({"dense_dim": 1}, "dense_dim must be at least 2, got 1"),
        ({"vocab_size": 1, "n_categorical": 2},
         "vocab_size must be at least 2 when n_categorical > 0, got 1"),
    ], ids=["dense-dim-1", "vocab-size-1"])
    def test_one_dimensional_weights_rejected(self, kwargs, match):
        """One dimension leaves the correlated pair no second direction, so
        its weights would be NaN; the key is named instead."""
        with pytest.raises(ValueError, match=match):
            fd.make_funnel_config(**kwargs)

    @pytest.mark.parametrize("kwargs,match", [
        ({"n_categorical": -1}, "n_categorical and drift_rate must be nonnegative"),
        ({"n_days": 0}, "dense_dim, vocab_size and n_days must be positive"),
        ({"drift_rate": -1.0}, "n_categorical and drift_rate must be nonnegative"),
    ], ids=["n-categorical-negative", "n-days-0", "drift-rate-negative"])
    def test_scalar_rules_checked_before_any_draw(self, monkeypatch, kwargs, match):
        """FunnelConfig's own rules refuse these before the weights are drawn."""
        def no_draw(*args):
            raise AssertionError("weights drawn before the config was checked")

        monkeypatch.setattr(fd, "_correlated_pair", no_draw)
        with pytest.raises(ValueError, match=match):
            fd.make_funnel_config(**kwargs)

    @pytest.mark.parametrize("kwargs,match", [
        ({"drift_rate": math.nan}, "drift_rate must be nonnegative"),
        ({"drift_rate": math.inf}, "drift_rate must be finite"),
        ({"dense_signal": math.nan}, "dense_signal must be finite, got nan"),
        ({"dense_signal": math.inf}, "dense_signal must be finite, got inf"),
        ({"dense_signal": -math.inf}, "dense_signal must be finite, got -inf"),
        ({"cat_signal": math.nan}, "cat_signal must be finite, got nan"),
        ({"cat_signal": math.inf}, "cat_signal must be finite, got inf"),
    ], ids=["drift-rate-nan", "drift-rate-inf", "dense-signal-nan", "dense-signal-inf",
            "dense-signal-minus-inf", "cat-signal-nan", "cat-signal-inf"])
    def test_non_finite_value_rejected_before_any_draw(self, monkeypatch, kwargs, match):
        """A NaN slips past a ``< 0`` test and an infinite signal makes the
        weights NaN; each is refused by name, with no numpy warning."""
        def no_draw(*args):
            raise AssertionError("weights drawn before the config was checked")

        monkeypatch.setattr(fd, "_correlated_pair", no_draw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                fd.make_funnel_config(n_days=3, **kwargs)

    @pytest.mark.parametrize("drift_rate", [math.nan, math.inf], ids=["nan", "inf"])
    def test_config_refuses_non_finite_drift(self, drift_rate):
        with pytest.raises(ValueError, match="drift_rate must be"):
            dataclasses.replace(_toy_config(), drift_rate=drift_rate)

    def test_negative_signals_still_draw(self):
        cfg = fd.make_funnel_config(dense_signal=-2.5, cat_signal=-1.25, n_days=2)
        assert np.linalg.norm(cfg.click_dense) == pytest.approx(2.5)
        assert np.isfinite(cfg.click_cat).all() and np.isfinite(cfg.conv_intercept)

    def test_one_word_vocabulary_allowed_without_categoricals(self):
        cfg = fd.make_funnel_config(dense_dim=2, n_categorical=0, vocab_size=1)
        assert np.isfinite(cfg.conv_dense).all() and np.isfinite(cfg.conv_intercept)

    def test_fingerprint_distinguishes_configs(self):
        a = fd.make_funnel_config(seed=1)
        b = fd.make_funnel_config(seed=2)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == fd.make_funnel_config(seed=1).fingerprint()

    @pytest.mark.parametrize("name", ["click_dense", "click_cat", "conv_dense", "conv_cat"])
    def test_weight_arrays_read_only(self, name):
        """A write to a weight array would change the oracle, every later
        day and the fingerprint behind the frozen config's back."""
        cfg = _toy_config()
        fingerprint = cfg.fingerprint()
        with pytest.raises(ValueError, match="read-only"):
            getattr(cfg, name)[0] = 9.0
        assert cfg.fingerprint() == fingerprint

    def test_unpickled_config_read_only(self):
        """A config sent to a seed worker is pickled; the copy goes through
        the same checks and keeps read-only arrays and the fingerprint."""
        cfg = _toy_config()
        copy = pickle.loads(pickle.dumps(cfg))
        for name in ("click_dense", "click_cat", "conv_dense", "conv_cat"):
            assert not getattr(copy, name).flags.writeable
        assert copy.fingerprint() == cfg.fingerprint()

    def test_caller_arrays_copied(self):
        """The config keeps float64 copies: the caller's arrays stay
        writable, and later writes to them do not reach the config."""
        click_dense, conv_cat = np.array([1, 2]), np.zeros((1, 3))
        cfg = fd.FunnelConfig(
            dense_dim=2, n_categorical=1, vocab_size=3,
            click_dense=click_dense, click_cat=np.zeros((1, 3)), click_intercept=0.0,
            conv_dense=np.zeros(2), conv_cat=conv_cat, conv_intercept=0.0,
            drift_rate=0.0, n_days=1,
            base_click_rate_target=0.5, base_conv_rate_target=0.5)
        fingerprint = cfg.fingerprint()
        click_dense[0], conv_cat[0, 1] = 7, 5.0
        assert cfg.click_dense.dtype == np.float64
        np.testing.assert_array_equal(cfg.click_dense, [1.0, 2.0])
        np.testing.assert_array_equal(cfg.conv_cat, np.zeros((1, 3)))
        assert cfg.fingerprint() == fingerprint


def _reference_intercept(logits, target, weights=None):
    """All 200 bisection steps, with the sigmoid written out in full."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = logits + mid
        e = np.exp(-np.abs(v))
        p = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        if np.average(p, weights=weights) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.usefixtures("uncached_config_builds")
class TestInterceptBisection:
    """Stopping once the bracket cannot shrink further returns exactly what
    the full 200 steps return."""

    @pytest.mark.parametrize("scale,shift,target,weighted", [
        (2.5, 0.0, 0.05, False),
        (2.5, 0.0, 0.10, True),
        (0.3, 1.0, 0.5, False),
        (4.0, -3.0, 0.001, True),
        (1.0, 2.0, 0.99, False),
        (0.0, 0.0, 0.2, True),
    ])
    def test_equals_full_200_step_loop(self, scale, shift, target, weighted):
        rng = np.random.default_rng(int(1000 * target) + weighted)
        logits = shift + scale * rng.standard_normal(20_000)
        weights = rng.random(20_000) if weighted else None
        got = fd._bisect_intercept(logits, target, weights=weights)
        assert got == _reference_intercept(logits, target, weights)

    @staticmethod
    def _solve_and_estimate(logits, target, weights):
        """The solve's result, the Newton estimate it used (None: every
        bisection step was evaluated) and its number of sigmoid evaluations."""
        estimates, calls = [], []
        newton, sigmoid = fd._newton_intercept, fd._sigmoid

        def spy(*args):
            estimates.append(newton(*args))
            return estimates[-1]

        with mock.patch.object(fd, "_newton_intercept", spy), \
                mock.patch.object(fd, "_sigmoid", lambda v: calls.append(1) or sigmoid(v)):
            got = fd._bisect_intercept(logits, target, weights=weights)
        return got, estimates[0], len(calls)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3000), scale=st.floats(0.0, 15.0), shift=st.floats(-20.0, 20.0),
           target=st.floats(1e-5, 0.999), weighted=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=3000, scale=2.5, shift=0.0, target=0.05, weighted=False, seed=0)    # skips
    @example(n=3000, scale=2.5, shift=0.0, target=1e-4, weighted=True, seed=0)     # falls back
    @example(n=3000, scale=15.0, shift=-20.0, target=0.99, weighted=False, seed=0)  # refused
    def test_equals_full_200_step_loop_everywhere(self, n, scale, shift, target, weighted, seed):
        """Skipped steps take the side an evaluation would, so the result
        is the full loop's; a root the loop pins to -40 or 40 is refused."""
        rng = np.random.default_rng(seed)
        logits = shift + scale * rng.standard_normal(n)
        weights = rng.random(n) if weighted else None
        expected = _reference_intercept(logits, target, weights)
        try:
            got, estimate, _ = self._solve_and_estimate(logits, target, weights)
        except ValueError as exc:
            assert "outside [-40, 40]" in str(exc)
            assert abs(expected) >= 40.0 - 1e-12
            return
        event("skip" if estimate is not None else "fallback")
        assert got == expected

    @pytest.mark.parametrize("target,weighted,skips", [
        (0.05, False, True), (0.10, True, True), (1e-4, True, False), (0.9995, False, False),
    ])
    def test_skip_and_fallback_paths_both_reached(self, target, weighted, skips):
        """A rate whose slope at the root is at least 2^-10 skips steps; a
        flatter one evaluates every one of the about 57 bisection steps.
        Both equal the full loop."""
        rng = np.random.default_rng(3)
        logits = 2.5 * rng.standard_normal(5_000)
        weights = rng.random(5_000) if weighted else None
        got, estimate, evaluations = self._solve_and_estimate(logits, target, weights)
        assert (estimate is not None) == skips
        assert evaluations < 40 if skips else evaluations > 55
        assert got == _reference_intercept(logits, target, weights)

    def test_default_config_evaluates_at_most_64_sigmoids(self, monkeypatch):
        """The two solves and the click probabilities between them: 113
        sigmoid evaluations when every bisection step is evaluated."""
        calls = []
        sigmoid = fd._sigmoid
        monkeypatch.setattr(fd, "_sigmoid", lambda v: calls.append(1) or sigmoid(v))
        fd.make_funnel_config()
        assert len(calls) <= 64

    @pytest.mark.parametrize("kwargs,rate", [
        (dict(dense_signal=40.0), "base_click_rate 0.05"),
        (dict(dense_signal=100.0), "base_click_rate 0.05"),
        (dict(cat_signal=60.0), "base_click_rate 0.05"),
        (dict(dense_signal=20.0), "base_conv_rate 0.1"),
    ])
    def test_unreachable_base_rate_refused(self, kwargs, rate):
        """An intercept pinned at -40 would give a click rate of 0.16 to
        0.35 against a 0.05 target."""
        with pytest.raises(ValueError, match=rf"^{rate} is out of reach: its intercept "
                                             rf"lies outside \[-40, 40\]$"):
            fd.make_funnel_config(**kwargs)


class TestGenerateDay:
    def test_conversion_implies_click(self):
        ds = fd.generate_day(_toy_config(), 0, 20_000, seed=1)
        assert np.all(ds.click[ds.conversion == 1] == 1)

    def test_same_seed_identical(self):
        cfg = _toy_config()
        a = fd.generate_day(cfg, 1, 5_000, seed=42)
        b = fd.generate_day(cfg, 1, 5_000, seed=42)
        np.testing.assert_array_equal(a.dense, b.dense)
        np.testing.assert_array_equal(a.cats, b.cats)
        np.testing.assert_array_equal(a.click, b.click)
        np.testing.assert_array_equal(a.conversion, b.conversion)

    def test_different_days_differ(self):
        cfg = _toy_config()
        a = fd.generate_day(cfg, 0, 1_000, seed=42)
        b = fd.generate_day(cfg, 1, 1_000, seed=42)
        assert not np.array_equal(a.dense, b.dense)

    def test_click_rate_binomial_oracle_at_1e6(self):
        cfg = fd.make_funnel_config(seed=13)
        gt = fd.GroundTruth(cfg)
        ds = fd.generate_day(cfg, 0, 1_000_000, seed=7)
        p, _ = gt.probabilities(ds.dense, ds.cats)
        # clicks are Bernoulli(ctr(x)) given features
        se = math.sqrt(np.sum(p * (1 - p))) / len(ds)
        assert abs(ds.click.mean() - p.mean()) < 3 * se
        # and the realized feature-averaged rate sits on the solved target
        assert abs(p.mean() - cfg.base_click_rate_target) < 0.1 * cfg.base_click_rate_target

    def test_empty_dataset_valid(self):
        ds = fd.generate_day(_toy_config(), 0, 0, seed=1)
        assert len(ds) == 0

    def test_invalid_day_rejected(self):
        with pytest.raises(ValueError):
            fd.generate_day(_toy_config(n_days=2), 5, 10, seed=1)

    def test_weights_start_at_one(self):
        ds = fd.generate_day(_toy_config(), 0, 100, seed=1)
        assert np.all(ds.weight == 1.0)

    def test_stationary_click_rates_flat_across_days(self):
        cfg = _toy_config(drift_rate=0.0, n_days=3)
        rates, ses = [], []
        for day in range(3):
            ds = fd.generate_day(cfg, day, 100_000, seed=31)
            rates.append(ds.click.mean())
            ses.append(math.sqrt(rates[-1] * (1 - rates[-1]) / len(ds)))
        for i in range(3):
            for j in range(i + 1, 3):
                combined = math.hypot(ses[i], ses[j])
                assert abs(rates[i] - rates[j]) < 3 * combined


class TestDrift:
    def test_zero_drift_weights_identical_across_days(self):
        gt = fd.GroundTruth(_toy_config(drift_rate=0.0))
        day0 = gt._weights_for_day(0)
        day2 = gt._weights_for_day(2)
        for a, b in zip(day0, day2):
            np.testing.assert_array_equal(a, b)

    def test_positive_drift_accumulates(self):
        gt = fd.GroundTruth(_toy_config(drift_rate=0.3, n_days=5))
        base = gt._weights_for_day(0)[0]
        d1 = np.linalg.norm(gt._weights_for_day(1)[0] - base)
        d4 = np.linalg.norm(gt._weights_for_day(4)[0] - base)
        assert 0 < d1 < d4

    def test_drift_deterministic(self):
        cfg = _toy_config(drift_rate=0.3, n_days=4)
        a = fd.GroundTruth(cfg)._weights_for_day(3)
        b = fd.GroundTruth(cfg)._weights_for_day(3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestDownsampleNegatives:
    def test_identity_at_f_one(self):
        ds = fd.generate_day(_toy_config(), 0, 5_000, seed=2)
        out = fd.downsample_negatives(ds, 1.0, seed=3)
        assert len(out) == len(ds)
        np.testing.assert_array_equal(out.weight, ds.weight)
        np.testing.assert_array_equal(out.click, ds.click)

    def test_f_below_one_rejected(self):
        ds = fd.generate_day(_toy_config(), 0, 10, seed=2)
        with pytest.raises(ValueError):
            fd.downsample_negatives(ds, 0.5, seed=3)

    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf])
    def test_non_finite_f_rejected(self, f):
        ds = fd.generate_day(_toy_config(), 0, 10, seed=2)
        with pytest.raises(ValueError, match="finite"):
            fd.downsample_negatives(ds, f, seed=3)

    def test_binomial_oracle_on_1e6_negatives(self):
        n = 1_000_000
        ds = fd.Dataset(np.zeros((n, 1)), np.zeros((n, 0), dtype=int),
                        np.zeros(n, dtype=int), np.zeros(n, dtype=int),
                        np.ones(n), np.zeros(n, dtype=int), "fp")
        out = fd.downsample_negatives(ds, 10.0, seed=4)
        se = math.sqrt(n * 0.1 * 0.9)
        assert abs(len(out) - n / 10) < 3 * se
        assert np.all(out.weight == 10.0)

    def test_positives_always_kept_unchanged(self):
        ds = fd.generate_day(_toy_config(), 0, 50_000, seed=5)
        positives_only = ds.subset(ds.click == 1)
        out = fd.downsample_negatives(positives_only, 25.0, seed=6)
        assert len(out) == len(positives_only)
        np.testing.assert_array_equal(out.weight, positives_only.weight)

    def test_never_consults_conversion_label(self):
        # two datasets differing only in z: identical keep decisions
        ds = fd.generate_day(_toy_config(), 0, 20_000, seed=7)
        flipped = fd.Dataset(ds.dense, ds.cats, ds.click,
                             np.zeros_like(ds.conversion), ds.weight, ds.day,
                             ds.config_fingerprint)
        a = fd.downsample_negatives(ds, 5.0, seed=8)
        b = fd.downsample_negatives(flipped, 5.0, seed=8)
        np.testing.assert_array_equal(a.dense, b.dense)

    def test_calibration_identity_unbiased(self):
        """Weighted negative count after downsampling is an unbiased
        estimator of the original: mean over 100 trials within 1% relative."""
        n = 100_000
        ds = fd.Dataset(np.zeros((n, 1)), np.zeros((n, 0), dtype=int),
                        np.zeros(n, dtype=int), np.zeros(n, dtype=int),
                        np.ones(n), np.zeros(n, dtype=int), "fp")
        totals = [fd.downsample_negatives(ds, 10.0, seed=s).weight.sum()
                  for s in range(100)]
        assert abs(np.mean(totals) - n) / n < 0.01

    def test_downsampled_eval_ce_agrees_with_full_space(self):
        """Weighted CE of a fixed predictor on a downsampled set matches the
        full-space CE within 3 combined standard errors."""
        cfg = fd.make_funnel_config(seed=21)
        gt = fd.GroundTruth(cfg)
        full = fd.generate_day(cfg, 0, 200_000, seed=22)
        down = fd.downsample_negatives(full, 10.0, seed=23)

        def weighted_ce_and_se(ds):
            preds = gt.predict_dataset(ds)["ctr"]
            p = np.clip(preds, 1e-7, 1 - 1e-7)
            losses = -(ds.click * np.log(p) + (1 - ds.click) * np.log1p(-p))
            total = ds.weight.sum()
            ce = np.sum(ds.weight * losses) / total
            se = math.sqrt(np.sum(ds.weight ** 2 * (losses - ce) ** 2)) / total
            return ce, se

        ce_full, se_full = weighted_ce_and_se(full)
        ce_down, se_down = weighted_ce_and_se(down)
        assert abs(ce_full - ce_down) < 3 * math.hypot(se_full, se_down)


class TestShuffle:
    def test_singleton_unchanged(self):
        ds = fd.generate_day(_toy_config(), 0, 1, seed=1)
        out = fd.shuffle(ds, seed=2)
        np.testing.assert_array_equal(out.dense, ds.dense)

    def test_same_seed_same_permutation(self):
        ds = fd.generate_day(_toy_config(), 0, 1_000, seed=1)
        a = fd.shuffle(ds, seed=9)
        b = fd.shuffle(ds, seed=9)
        np.testing.assert_array_equal(a.dense, b.dense)

    def test_multiset_preserved(self):
        ds = fd.generate_day(_toy_config(), 0, 2_000, seed=1)
        out = fd.shuffle(ds, seed=3)
        np.testing.assert_array_equal(np.sort(ds.dense[:, 0]), np.sort(out.dense[:, 0]))
        assert out.click.sum() == ds.click.sum()

    def test_label_runs_broken(self):
        n = 1_000
        click = np.array([1] * 500 + [0] * 500)
        ds = fd.Dataset(np.zeros((n, 1)), np.zeros((n, 0), dtype=int),
                        click, np.zeros(n, dtype=int), np.ones(n),
                        np.zeros(n, dtype=int), "fp")
        out = fd.shuffle(ds, seed=17)
        runs = 1 + int(np.sum(out.click[1:] != out.click[:-1]))
        # a random permutation gives ~ 2*n1*n0/n + 1 = ~501 runs; sorted input has 2
        assert runs > 400
        lengths = np.diff(np.flatnonzero(
            np.concatenate(([True], out.click[1:] != out.click[:-1], [True]))))
        assert lengths.max() < 50


class TestBayesCe:
    def test_deterministic_funnel_near_zero(self):
        cfg = _constant_rate_config(1.0 - 1e-12)
        ds = fd.generate_day(cfg, 0, 10_000, seed=2)
        assert fd.bayes_ce(fd.GroundTruth(cfg), ds, "ctr") < 1e-5

    def test_constant_rate_matches_entropy(self):
        p = 0.3
        cfg = _constant_rate_config(p)
        ds = fd.generate_day(cfg, 0, 200_000, seed=3)
        entropy = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        se = abs(math.log(p / (1 - p))) * math.sqrt(p * (1 - p) / len(ds))
        got = fd.bayes_ce(fd.GroundTruth(cfg), ds, "ctr")
        assert abs(got - entropy) < 3 * se

    def test_cvr_target_restricted_to_clicked(self):
        cfg = _toy_config()
        gt = fd.GroundTruth(cfg)
        ds = fd.generate_day(cfg, 0, 50_000, seed=4)
        clicked = ds.clicked()
        direct = metrics.weighted_ce(gt.predict_dataset(clicked)["cvr"],
                                     clicked.conversion, clicked.weight)
        assert fd.bayes_ce(gt, ds, "cvr_given_click") == pytest.approx(direct, rel=1e-12)

    def test_fingerprint_mismatch_rejected(self):
        cfg_a = _toy_config(seed=1)
        cfg_b = _toy_config(seed=2)
        ds = fd.generate_day(cfg_a, 0, 100, seed=5)
        with pytest.raises(ValueError):
            fd.bayes_ce(fd.GroundTruth(cfg_b), ds, "joint")

    def test_oracle_calibration_ratio_near_one_at_1e6(self):
        cfg = fd.make_funnel_config(seed=29)
        gt = fd.GroundTruth(cfg)
        ds = fd.generate_day(cfg, 0, 1_000_000, seed=6)
        ratio = metrics.calibration_ratio(gt.predict_dataset(ds)["joint"],
                                          ds.conversion, ds.weight)
        assert 0.97 < ratio < 1.03


class TestDatasetChecks:
    def test_concat_requires_matching_fingerprints(self):
        a = fd.generate_day(_toy_config(seed=1), 0, 10, seed=1)
        b = fd.generate_day(_toy_config(seed=2), 0, 10, seed=1)
        with pytest.raises(ValueError):
            fd.Dataset.concat([a, b])

    def test_inconsistent_labels_rejected(self):
        with pytest.raises(ValueError):
            fd.Dataset(np.zeros((1, 1)), np.zeros((1, 0), dtype=int),
                       np.array([0]), np.array([1]), np.ones(1),
                       np.zeros(1, dtype=int), "fp")

    @pytest.mark.parametrize("click,conversion,weight,match", [
        ([2, 0], [0, 0], [1.0, 1.0], "click labels must be 0 or 1"),
        ([-1, 0], [0, 0], [1.0, 1.0], "click labels must be 0 or 1"),
        ([0.5, 0], [0, 0], [1.0, 1.0], "click labels must be 0 or 1"),
        ([1, 1], [0, 2], [1.0, 1.0], "conversion labels must be 0 or 1"),
        ([1, 0], [np.nan, 0], [1.0, 1.0], "conversion labels must be 0 or 1"),
        ([1, 0], [1, 0], [1.0, -0.5], "weights must be finite and nonnegative"),
        ([1, 0], [1, 0], [np.nan, 1.0], "weights must be finite and nonnegative"),
        ([1, 0], [1, 0], [1.0, np.inf], "weights must be finite and nonnegative"),
    ], ids=["click-2", "click-negative", "click-half", "conversion-2", "conversion-nan",
            "weight-negative", "weight-nan", "weight-inf"])
    def test_labels_and_weights_checked(self, click, conversion, weight, match):
        with pytest.raises(ValueError, match=match):
            fd.Dataset(np.zeros((2, 1)), np.zeros((2, 0), dtype=int),
                       np.array(click), np.array(conversion), np.array(weight),
                       np.zeros(2, dtype=int), "fp")

    def test_zero_weight_and_boolean_labels_accepted(self):
        ds = fd.Dataset(np.zeros((2, 1)), np.zeros((2, 0), dtype=int),
                        np.array([True, False]), np.array([True, False]),
                        np.array([0.0, 3.0]), np.zeros(2, dtype=int), "fp")
        assert ds.click.dtype == np.int64 and list(ds.conversion) == [1, 0]

    @pytest.mark.parametrize("cats,day,match", [
        ([[1.7], [0.2]], [0, 1], "cats values must be whole numbers"),
        ([[1.0], [np.nan]], [0, 1], "cats values must be whole numbers"),
        ([[1], [0]], [0.5, 0.9], "day values must be whole numbers"),
        ([[1], [0]], [0.0, np.inf], "day values must be whole numbers"),
        ([[1], [0]], [0.0, 1e300], "day values must be whole numbers in the int64 range"),
    ], ids=["cats-fraction", "cats-nan", "day-fraction", "day-inf", "day-huge"])
    def test_fractional_indices_rejected(self, cats, day, match):
        with pytest.raises(ValueError, match=match):
            fd.Dataset(np.zeros((2, 3)), np.array(cats), [0, 1], [0, 0], [1.0, 1.0],
                       np.array(day), "fp")

    def test_whole_valued_float_indices_accepted(self):
        ds = fd.Dataset(np.zeros((2, 3)), np.array([[1.0], [0.0]]), [0, 1], [0, 0],
                        [1.0, 1.0], np.array([2.0, 0.0]), "fp")
        assert ds.cats.tolist() == [[1], [0]] and ds.day.tolist() == [2, 0]
        assert ds.cats.dtype == ds.day.dtype == np.int64


# One drawn row: (click, conversion if clicked, weight, feature, category, day).
_ROW = st.tuples(st.integers(0, 1), st.integers(0, 1), st.floats(0.0, 1e6),
                 st.floats(-1e3, 1e3), st.integers(0, 7), st.integers(0, 2))


@st.composite
def _datasets(draw, max_rows=40):
    """A Dataset whose first dense column is each row's index, so a row can
    be traced through any reordering or selection."""
    rows = draw(st.lists(_ROW, max_size=max_rows))
    n = len(rows)
    click, conv, weight, feature, cat, day = np.array(rows, dtype=np.float64).reshape(n, 6).T
    return fd.Dataset(np.column_stack([np.arange(n), feature]), cat.reshape(n, 1),
                      click, click * conv, weight, day, "fp")


def _assert_funnel_invariants(ds):
    assert np.isin(ds.click, (0, 1)).all() and np.isin(ds.conversion, (0, 1)).all()
    assert np.all(ds.conversion <= ds.click)
    assert np.all(np.isfinite(ds.weight)) and np.all(ds.weight >= 0)


def _rows(ds):
    """Every row as one tuple, in dataset order."""
    return list(zip(map(tuple, ds.dense), map(tuple, ds.cats), ds.click,
                    ds.conversion, ds.weight, ds.day))


class TestDatasetProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_subset(self, data):
        ds = data.draw(_datasets())
        index = data.draw(st.lists(st.integers(0, max(len(ds) - 1, 0)),
                                   max_size=2 * len(ds)))
        out = ds.subset(np.asarray(index, dtype=np.int64))
        _assert_funnel_invariants(out)
        assert _rows(out) == [_rows(ds)[i] for i in index]

    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(_datasets(max_rows=15), min_size=1, max_size=4))
    def test_concat(self, parts):
        out = fd.Dataset.concat(parts)
        _assert_funnel_invariants(out)
        assert _rows(out) == [row for ds in parts for row in _rows(ds)]

    @settings(max_examples=60, deadline=None)
    @given(ds=_datasets(), f=st.floats(1.0, 1e3), seed=st.integers(0, 2**32 - 1))
    def test_downsample_negatives(self, ds, f, seed):
        """Every clicked row survives with its weight unchanged; a kept
        unclicked row is the source row with its weight times f."""
        out = fd.downsample_negatives(ds, f, seed)
        _assert_funnel_invariants(out)
        assert _rows(out.clicked()) == _rows(ds.clicked())
        source = out.dense[:, 0].astype(np.int64)
        assert np.all(np.diff(source) > 0)
        unclicked = out.click == 0
        np.testing.assert_array_equal(out.weight[unclicked],
                                      ds.weight[source[unclicked]] * f)
        np.testing.assert_array_equal(out.weight[~unclicked], ds.weight[source[~unclicked]])

    @settings(max_examples=60, deadline=None)
    @given(ds=_datasets(), seed=st.integers(0, 2**32 - 1))
    def test_shuffle_preserves_rows(self, ds, seed):
        out = fd.shuffle(ds, seed)
        _assert_funnel_invariants(out)
        source = out.dense[:, 0].astype(np.int64)
        assert sorted(source) == list(range(len(ds)))
        assert _rows(out) == [_rows(ds)[i] for i in source]


@pytest.mark.usefixtures("uncached_config_builds")
class TestInterceptSampleInBlocks:
    """``make_funnel_config`` draws its intercept sample block by block and
    keeps only the logits; the result is the one-piece draw's, bit for bit."""

    @pytest.mark.parametrize("kwargs", [
        {}, {"dense_dim": 3}, {"dense_dim": 5}, {"n_categorical": 0},
        {"drift_rate": 0.25}, {"seed": 1}, {"seed": 2}, {"seed": 7, "n_days": 10},
    ])
    def test_equals_whole_sample_solve(self, kwargs):
        cfg = fd.make_funnel_config(**kwargs)
        ref = whole_sample_intercepts(cfg)
        assert (cfg.click_intercept, cfg.conv_intercept) == (
            ref.click_intercept, ref.conv_intercept)
        assert cfg.fingerprint() == ref.fingerprint()

    def test_peak_allocation_bounded(self):
        """The 200k x 16 sample alone is 24.4 MiB; drawn in blocks, the
        peak is the logit vectors and the bisection's arrays (about 11 MiB)."""
        tracemalloc.start()
        try:
            fd.make_funnel_config()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
