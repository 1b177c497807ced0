"""Evaluation metrics and run-comparison statistics.

Weighted cross-entropy is the headline metric (calibration matters for
ranking ad impressions); PR-AUC is computed as weighted average precision.
Cross-run comparisons use baseline-normalized performance with SEM and a
Welch two-sided t-test. The t-test's Student-t tail (``_t_two_sided_p``) is
the regularized incomplete beta function, evaluated as a continued fraction
by the modified Lentz method, so numpy and the standard library are all this
module needs. All functions here are pure.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autodiff import CLAMP_EPS

# Score direction: performance = mean(baseline cross-entropy) / model
# cross-entropy, so lower loss than baseline means a score above 1.
PERFORMANCE_FORMULA = (
    "performance = mean(baseline joint cross-entropy) / model joint cross-entropy"
    " (higher is better; baseline mean is 1 by construction)"
)

# A model beats another when its mean score is higher and their Welch p-value
# is below this level.
BETTER_THAN_ALPHA = 0.01


@dataclass
class MetricsRecord:
    """Per-run evaluation summary."""

    joint_ce: float
    joint_pr_auc: float
    calibration_ratio: float
    ctr_ce: Optional[float] = None
    essp_violation_rate: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.joint_pr_auc <= 1.0:
            raise ValueError(f"pr_auc must be in [0, 1], got {self.joint_pr_auc}")


@dataclass
class ComparisonStats:
    """Baseline-normalized comparison across models.

    The baseline's ``mean_norm_perf`` (see ``compare_models``) is exactly 1
    by construction (ratio of the baseline mean to itself). SEMs are computed
    over the per-seed normalized scores; p-values are Welch two-sided over
    the same scores.
    ``better_than[a]`` lists the models ``a`` beats at ``BETTER_THAN_ALPHA``.
    """

    models: list
    mean_norm_perf: dict
    sem: dict
    pvalues: dict = field(default_factory=dict)     # (a, b) -> p
    norm_scores: dict = field(default_factory=dict)  # model -> {seed: score}
    better_than: dict = field(default_factory=dict)  # model -> [models it beats]


def _validate_pred_inputs(preds, labels, weights):
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if weights is None:
        weights = np.ones_like(preds)
    else:
        weights = np.asarray(weights, dtype=np.float64)
    if preds.size == 0:
        raise ValueError("empty input")
    if not (preds.shape == labels.shape == weights.shape):
        raise ValueError(
            f"shape mismatch: preds {preds.shape}, labels {labels.shape}, weights {weights.shape}")
    if not (np.isfinite(weights) & (weights >= 0)).all():
        raise ValueError("weights must be finite and nonnegative")
    return preds, labels, weights


def weighted_ce(preds, labels, weights=None):
    """Weighted mean cross-entropy: sum(w * L(p, z)) / sum(w).

    Predictions are clamped into [CLAMP_EPS, 1 - CLAMP_EPS] before the logs,
    matching the training loss. Invariant to rescaling all weights by a
    common positive factor.
    """
    preds, labels, weights = _validate_pred_inputs(preds, labels, weights)
    total = weights.sum()
    if total <= 0:
        raise ValueError("sum of weights must be positive")
    p = np.clip(preds, CLAMP_EPS, 1.0 - CLAMP_EPS)
    losses = -(labels * np.log(p) + (1.0 - labels) * np.log1p(-p))
    return float(np.sum(weights * losses) / total)


def pr_auc(preds, labels, weights=None):
    """Weighted average precision (area under the precision-recall curve).

    Examples are sorted by descending prediction, ties broken by stable input
    order; weighted precision is accumulated at each positive. This matches a
    brute-force precision-at-each-positive enumeration exactly.
    """
    preds, labels, weights = _validate_pred_inputs(preds, labels, weights)
    pos_weight = np.sum(weights * labels)
    neg_weight = np.sum(weights * (1.0 - labels))
    if pos_weight <= 0 or neg_weight <= 0:
        raise ValueError("pr_auc needs at least one positive and one negative example")
    order = np.argsort(-preds, kind="stable")
    w = weights[order]
    is_pos = labels[order] > 0
    cum_w = np.cumsum(w)
    cum_pos = np.cumsum(w * is_pos)
    precision = cum_pos / cum_w
    return float(np.sum(w[is_pos] * precision[is_pos]) / pos_weight)


def calibration_ratio(preds, labels, weights=None):
    """sum(w * pred) / sum(w * label); 1.0 is perfectly calibrated in aggregate."""
    preds, labels, weights = _validate_pred_inputs(preds, labels, weights)
    denom = np.sum(weights * labels)
    if denom <= 0:
        raise ValueError("calibration_ratio needs positive label weight")
    return float(np.sum(weights * preds) / denom)


def two_sided_t_test(a, b):
    """Welch's unequal-variance two-sided t-test p-value.

    Degenerate zero-variance inputs: p = 1 when the constant samples are
    equal, p = 0 when they differ (perfect separation).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least 2 samples per group")
    if np.var(a) == 0.0 and np.var(b) == 0.0:
        return 1.0 if a[0] == b[0] else 0.0
    # t and df follow the float operations of the reference Welch test, in
    # its order; only the tail is computed here (_t_two_sided_p).
    va = _unbiased_var(a) / a.size
    vb = _unbiased_var(b) / b.size
    with np.errstate(divide="ignore", invalid="ignore"):
        df = (va + vb) ** 2 / (va ** 2 / (a.size - 1) + vb ** 2 / (b.size - 1))
        t = (np.mean(a) - np.mean(b)) / np.sqrt(va + vb)
    if np.isnan(df):  # 0 / 0: both variances underflow when squared
        df = 1.0
    return _t_two_sided_p(float(t), float(df))


# The continued fraction stops once a factor is within this of 1, or after
# this many terms; a denominator below _CF_TINY is replaced by it (Lentz).
_CF_EPS = 1e-16
_CF_MAX_TERMS = 10_000
_CF_TINY = 1e-300


def _t_two_sided_p(t, df):
    """P(|T| >= |t|) for Student's T with ``df`` degrees of freedom.

    This is I_x(df/2, 1/2) with x = df / (df + t^2). Its relative error is
    below 1e-13 for df <= 20 (Welch's df for n seeds is at most 2n - 2),
    2e-12 for df <= 200, 2e-11 for df <= 1000 and 2e-9 for df <= 1e5, where
    the lgamma differences cancel; it peaks near p = 0.1, where the
    complement 1 - I_y(1/2, df/2) is taken.
    t = 0 (or a t too small to move p off 1) gives exactly 1, t = +-inf (or
    a t whose square overflows) gives 0, t = NaN gives NaN, and df = inf
    gives the normal tail.
    """
    if math.isnan(t):
        return math.nan
    if df == math.inf:
        return math.erfc(abs(t) / math.sqrt(2.0))
    t2 = t * t
    x, y = df / (df + t2), t2 / (df + t2)
    if y == 0.0:  # t = 0, or so small that 1 - p underflows
        return 1.0
    if x == 0.0:  # t^2 overflows
        return 0.0
    return _regularized_beta(df / 2, 0.5, x, y)


def _regularized_beta(a, b, x, y):
    """I_x(a, b), given both x and y = 1 - x so that neither is formed by
    subtraction. The continued fraction converges fast only below the mode,
    x < (a + 1) / (a + b + 2); above it, I_x(a, b) = 1 - I_y(b, a)."""
    flip = x >= (a + 1) / (a + b + 2)
    if flip:
        a, b, x, y = b, a, y, x
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log(y))
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    frac = d
    for m in range(1, _CF_MAX_TERMS):
        # the even then the odd coefficient of the fraction's m-th pair
        for coef in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + coef / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            step = c * d
            frac *= step
        if abs(step - 1.0) < _CF_EPS:
            break
    value = math.exp(log_front) * frac / a
    return 1.0 - value if flip else value


def _unbiased_var(x):
    """Mean squared deviation times n / (n - 1), in the reference test's order."""
    return np.mean((x - np.mean(x, keepdims=True)) ** 2) * (x.size / (x.size - 1))


def compare_models(ces_by_model, baseline):
    """Build ComparisonStats from per-seed cross-entropies, ``{model: {seed:
    ce}}``. A model with fewer than two seeds is left out: its SEM and
    t-tests need two. A per-seed score is mean(baseline CEs) / the model's
    CE; the mean score is the ratio of means, mean(baseline CEs) / mean(CEs)."""
    ces_by_model = {name: ces for name, ces in ces_by_model.items() if len(ces) >= 2}
    if baseline not in ces_by_model:
        raise ValueError(f"baseline {baseline!r} needs results on at least 2 seeds")
    models = list(ces_by_model)
    baseline_mean = np.mean(np.array(list(ces_by_model[baseline].values()), dtype=np.float64))
    means, sems, scores = {}, {}, {}
    for name, ces in ces_by_model.items():
        values = np.array(list(ces.values()), dtype=np.float64)
        per_seed = baseline_mean / values
        means[name] = float(baseline_mean / np.mean(values))
        sems[name] = float(np.std(per_seed, ddof=1) / np.sqrt(per_seed.size))
        scores[name] = dict(zip(ces, map(float, per_seed)))
    pvalues = {}
    for i, a in enumerate(models):
        for b in models[i + 1:]:
            pvalues[(a, b)] = pvalues[(b, a)] = two_sided_t_test(
                list(scores[a].values()), list(scores[b].values()))
    better_than = {a: [b for b in models if b != a and means[a] > means[b]
                       and pvalues[(a, b)] < BETTER_THAN_ALPHA] for a in models}
    return ComparisonStats(models=models, mean_norm_perf=means, sem=sems, pvalues=pvalues,
                           norm_scores=scores, better_than=better_than)
