"""Synthetic impression -> click -> conversion funnel with known ground truth.

Each impression carries dense standard-normal features plus categorical
features whose indices contribute per-index offsets to the true click and
conversion logits. A conversion propensity exists for every impression, but
conversion labels are only realized on clicked impressions (z=1 implies y=1),
which is exactly the missing-counterfactual structure that biases models
trained on clicked data only.

The click and conversion logits share a configurable fraction of generative
weight mass (default correlation 0.5), so the abundant click signal is
genuinely informative for the sparse conversion task. Day-indexed drift
perturbs the generative weights with a deterministic Gaussian random walk.

Generators are pure functions of (config, seed); datasets are immutable
after creation, so concurrent generation is safe.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .autodiff import _stable_sigmoid_values as _sigmoid

_DRIFT_TAG = 0x5EED
_INTERCEPT_SAMPLE = 200_000
# Rows of the intercept sample's dense features drawn at a time: only the two
# logit vectors are kept, never the whole 200k x dense_dim sample. A multiple
# of BLAS's row tile, so each row's dot product is its one-pass value.
_INTERCEPT_BLOCK_ROWS = 8192
_BISECT_LO, _BISECT_HI = -40.0, 40.0
_BISECT_MAX_STEPS = 200
# The intercept solve's Newton estimate: its cap, its convergence step, the
# least slope at which it may decide bisection steps, and how far from it a
# midpoint must lie to be decided unevaluated (see _bisect_intercept).
_NEWTON_MAX_STEPS = 30
_NEWTON_TOL = 2.0 ** -40
_MIN_SLOPE = 2.0 ** -10
_SKIP_MARGIN = 2.0 ** -30


@dataclass(frozen=True, eq=False)
class FunnelConfig:
    """Ground-truth generative parameters for p(click|x) and p(conv|click, x).

    ``click_dense``/``conv_dense`` are the dense-feature weight vectors;
    ``click_cat``/``conv_cat`` hold one offset per (categorical feature,
    vocabulary index). Intercepts are solved so realized base rates match the
    targets within 10% relative. ``drift_rate`` = 0 makes every day's
    distribution identical to day 0.
    """

    dense_dim: int
    n_categorical: int
    vocab_size: int
    click_dense: np.ndarray
    click_cat: np.ndarray
    click_intercept: float
    conv_dense: np.ndarray
    conv_cat: np.ndarray
    conv_intercept: float
    drift_rate: float
    n_days: int
    base_click_rate_target: float
    base_conv_rate_target: float
    weight_correlation: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _check_scalars(self.dense_dim, self.n_categorical, self.vocab_size,
                       self.n_days, self.drift_rate)
        for name, arr, shape in (
                ("click_dense", self.click_dense, (self.dense_dim,)),
                ("conv_dense", self.conv_dense, (self.dense_dim,)),
                ("click_cat", self.click_cat, (self.n_categorical, self.vocab_size)),
                ("conv_cat", self.conv_cat, (self.n_categorical, self.vocab_size))):
            if np.asarray(arr).shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {np.asarray(arr).shape}")

    def fingerprint(self):
        """Stable short hash of every generative parameter."""
        h = hashlib.sha256()
        for arr in (self.click_dense, self.click_cat, self.conv_dense, self.conv_cat):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        scalars = (self.dense_dim, self.n_categorical, self.vocab_size,
                   self.click_intercept, self.conv_intercept, self.drift_rate,
                   self.n_days, self.base_click_rate_target,
                   self.base_conv_rate_target, self.weight_correlation, self.seed)
        h.update(repr(scalars).encode())
        return h.hexdigest()[:16]


def _check_scalars(dense_dim, n_categorical, vocab_size, n_days, drift_rate):
    """FunnelConfig's scalar rules, which make_funnel_config checks before any draw."""
    if dense_dim <= 0 or vocab_size <= 0 or n_days <= 0:
        raise ValueError("dense_dim, vocab_size and n_days must be positive")
    if n_categorical < 0 or not drift_rate >= 0:  # NaN fails too
        raise ValueError("n_categorical and drift_rate must be nonnegative")
    if drift_rate == math.inf:
        raise ValueError("drift_rate must be finite")


def check_batch(dense, cats, dense_dim, n_categorical, vocab_size):
    """A batch, as the oracle and every model read it: dense (n, dense_dim)
    and integer cats (n, n_categorical), each index in [0, vocab_size),
    exactly. Returns float64 dense and int64 cats."""
    dense = np.asarray(dense, dtype=np.float64)
    cats = np.asarray(cats)
    if dense.ndim != 2 or dense.shape[1] != dense_dim:
        raise ValueError(f"dense must have shape (n, {dense_dim}), got {dense.shape}")
    if cats.shape != (len(dense), n_categorical) or cats.dtype.kind not in "iu":
        raise ValueError(f"cats must be an integer array of shape "
                         f"({len(dense)}, {n_categorical}), got {cats.dtype} {cats.shape}")
    cats = cats.astype(np.int64, copy=False)
    # A negative index reads as a huge unsigned one, so one max checks both ends.
    if cats.size and cats.view(np.uint64).max() >= vocab_size:
        raise ValueError(f"embedding index out of range [0, {vocab_size}): "
                         f"min={cats.min()}, max={cats.max()}")
    return dense, cats


def _unit(v):
    return v / np.linalg.norm(v)


def _correlated_pair(rng, size, rho, scale):
    """Two vectors of given norm whose cosine similarity is exactly rho."""
    a = rng.standard_normal(size)
    b = rng.standard_normal(size)
    a_hat = _unit(a)
    b_perp = b - (b @ a_hat) * a_hat
    c_hat = rho * a_hat + np.sqrt(1.0 - rho ** 2) * _unit(b_perp)
    return scale * a_hat, scale * c_hat


def _newton_intercept(logits_no_intercept, target, weights):
    """Newton estimate of the intercept whose (weighted) mean sigmoid is
    ``target``, kept inside the bracket the rates seen so far allow; None
    unless it converges within ``_NEWTON_MAX_STEPS`` where the rate's slope,
    the (weighted) mean of p(1 - p), is at least ``_MIN_SLOPE``."""
    lo, hi = _BISECT_LO, _BISECT_HI
    x = 0.0
    for _ in range(_NEWTON_MAX_STEPS):
        p = _sigmoid(logits_no_intercept + x)
        # Python floats: a step that overflows is inf, not a numpy warning.
        rate = float(np.average(p, weights=weights))
        slope = float(np.average(p * (1.0 - p), weights=weights))
        if rate < target:
            lo = x
        else:
            hi = x
        step = (target - rate) / slope if slope > 0.0 else math.inf
        if abs(step) <= _NEWTON_TOL:
            return x + step if slope >= _MIN_SLOPE else None
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
    return None


def _bisect_intercept(logits_no_intercept, target, weights=None, name="rate"):
    """Intercept whose (weighted) mean sigmoid hits ``target``: bisection on
    [-40, 40] until ``lo`` and ``hi`` are adjacent floats (about 60 steps).
    From there every further step leaves the returned midpoint unchanged, so
    the result is the one all ``_BISECT_MAX_STEPS`` steps would give.

    A step whose midpoint lies more than ``_SKIP_MARGIN`` from the Newton
    estimate takes its side without evaluating the rate. That is safe: the
    computed rate is within about 1e-14 of the true one, and the estimate
    is within about 1e-11 of the true root. With a slope of at least
    ``_MIN_SLOPE`` there (the slope itself changes by at most 0.1 per unit),
    the true rate 2^-30 from the root differs from ``target`` by at least
    9e-13, so the computed rate at any midpoint further out falls on the side
    the estimate says. Without an estimate every step is evaluated. Raises
    ``ValueError`` when the root lies outside [-40, 40].
    """
    root = _newton_intercept(logits_no_intercept, target, weights)
    lo, hi = _BISECT_LO, _BISECT_HI
    for _ in range(_BISECT_MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if root is not None and abs(mid - root) > _SKIP_MARGIN:
            below = mid < root
        else:
            p = _sigmoid(logits_no_intercept + mid)
            below = np.average(p, weights=weights) < target
        if below:
            lo = mid
        else:
            hi = mid
    if lo == _BISECT_LO or hi == _BISECT_HI:
        raise ValueError(f"{name} {target} is out of reach: its intercept lies "
                         f"outside [{_BISECT_LO:g}, {_BISECT_HI:g}]")
    return 0.5 * (lo + hi)


def make_funnel_config(dense_dim=16, n_categorical=2, vocab_size=100,
                       base_click_rate=0.05, base_conv_rate=0.10,
                       correlation=0.5, dense_signal=2.5, cat_signal=1.25,
                       drift_rate=0.0, n_days=6, seed=0):
    """Sample generative weights and solve intercepts to hit the rate targets.

    Dense weight vectors are scaled to norm ``dense_signal``; categorical
    offset tables are centered and scaled to per-entry std ``cat_signal``.
    The conversion-side weights are built to have cosine similarity
    ``correlation`` with the click-side weights. The conversion intercept is
    solved on the click-weighted population so the conversion-given-click
    base rate lands on target.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    for name, signal in (("dense_signal", dense_signal), ("cat_signal", cat_signal)):
        if not math.isfinite(signal):
            raise ValueError(f"{name} must be finite, got {signal}")
    if not 0.0 <= correlation <= 1.0:
        raise ValueError("correlation must be in [0, 1]")
    for name, rate in (("base_click_rate", base_click_rate),
                       ("base_conv_rate", base_conv_rate)):
        # NaN fails both comparisons, so it is rejected too.
        if not 0.0 < rate < 1.0:
            raise ValueError(f"{name} must be inside (0, 1), got {rate}")
    # _correlated_pair needs a second direction, or its weights are NaN
    if dense_dim < 2:
        raise ValueError(f"dense_dim must be at least 2, got {dense_dim}")
    if n_categorical > 0 and vocab_size < 2:
        raise ValueError(
            f"vocab_size must be at least 2 when n_categorical > 0, got {vocab_size}")
    _check_scalars(dense_dim, n_categorical, vocab_size, n_days, drift_rate)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0F1]))

    click_dense, conv_dense = _correlated_pair(rng, dense_dim, correlation, dense_signal)
    click_cat = np.zeros((n_categorical, vocab_size))
    conv_cat = np.zeros((n_categorical, vocab_size))
    for j in range(n_categorical):
        a, c = _correlated_pair(rng, vocab_size, correlation, 1.0)
        a -= a.mean()
        c -= c.mean()
        click_cat[j] = cat_signal * a / max(a.std(), 1e-12)
        conv_cat[j] = cat_signal * c / max(c.std(), 1e-12)

    # Solve intercepts on a large sample so realized base rates match targets.
    # The dense rows come in blocks, the same stream as one draw.
    click_logits = np.empty(_INTERCEPT_SAMPLE)
    conv_logits = np.empty(_INTERCEPT_SAMPLE)
    for start in range(0, _INTERCEPT_SAMPLE, _INTERCEPT_BLOCK_ROWS):
        stop = min(start + _INTERCEPT_BLOCK_ROWS, _INTERCEPT_SAMPLE)
        x = rng.standard_normal((stop - start, dense_dim))
        np.matmul(x, click_dense, out=click_logits[start:stop])
        np.matmul(x, conv_dense, out=conv_logits[start:stop])
    cats = rng.integers(0, vocab_size, size=(_INTERCEPT_SAMPLE, n_categorical))
    click_logits += _cat_contrib(click_cat, cats)
    conv_logits += _cat_contrib(conv_cat, cats)
    del cats  # only the logits are needed from here on
    click_intercept = _bisect_intercept(click_logits, base_click_rate, name="base_click_rate")
    p_click = _sigmoid(click_logits + click_intercept)
    conv_intercept = _bisect_intercept(conv_logits, base_conv_rate, weights=p_click,
                                       name="base_conv_rate")

    return FunnelConfig(
        dense_dim=dense_dim, n_categorical=n_categorical, vocab_size=vocab_size,
        click_dense=click_dense, click_cat=click_cat,
        click_intercept=float(click_intercept),
        conv_dense=conv_dense, conv_cat=conv_cat,
        conv_intercept=float(conv_intercept),
        drift_rate=drift_rate, n_days=n_days,
        base_click_rate_target=base_click_rate,
        base_conv_rate_target=base_conv_rate,
        weight_correlation=correlation, seed=seed)


def _cat_contrib(table, cats):
    if table.shape[0] == 0:
        return np.zeros(cats.shape[0])
    return sum(table[j][cats[:, j]] for j in range(table.shape[0]))


def _binary_labels(name, values):
    values = np.asarray(values)
    if np.any((values != 0) & (values != 1)):
        raise ValueError(f"{name} labels must be 0 or 1")
    return np.asarray(values, dtype=np.int64)


def _whole_numbers(name, values):
    values = np.asarray(values)
    if values.dtype.kind == "f" and not np.all(  # NaN and infinities fail the range test
            (abs(values) < 2.0**63) & (np.trunc(values) == values)):
        raise ValueError(f"{name} values must be whole numbers in the int64 range")
    return np.asarray(values, dtype=np.int64)


class Dataset:
    """Columnar, immutable collection of examples.

    Construction checks the funnel's invariants: category and day indices
    are whole numbers, click and conversion labels are 0 or 1, conversion
    implies click, and weights are finite and nonnegative.
    """

    def __init__(self, dense, cats, click, conversion, weight, day, config_fingerprint):
        self.dense = np.asarray(dense, dtype=np.float64)
        self.cats = _whole_numbers("cats", cats)
        self.click = _binary_labels("click", click)
        self.conversion = _binary_labels("conversion", conversion)
        self.weight = np.asarray(weight, dtype=np.float64)
        self.day = _whole_numbers("day", day)
        self.config_fingerprint = config_fingerprint
        n = len(self.dense)
        for name, col in (("cats", self.cats), ("click", self.click),
                          ("conversion", self.conversion), ("weight", self.weight),
                          ("day", self.day)):
            if len(col) != n:
                raise ValueError(f"column {name} length {len(col)} != {n}")
        if np.any(self.conversion > self.click):
            raise ValueError("conversion=1 requires click=1")
        if not np.all(np.isfinite(self.weight) & (self.weight >= 0)):
            raise ValueError("weights must be finite and nonnegative")

    def __len__(self):
        return len(self.dense)

    def subset(self, index):
        return Dataset(self.dense[index], self.cats[index], self.click[index],
                       self.conversion[index], self.weight[index], self.day[index],
                       self.config_fingerprint)

    def clicked(self):
        return self.subset(self.click == 1)

    @staticmethod
    def concat(datasets):
        first = datasets[0]
        for ds in datasets[1:]:
            if ds.config_fingerprint != first.config_fingerprint:
                raise ValueError("cannot concat datasets from different configs")
        return Dataset(
            np.concatenate([ds.dense for ds in datasets]),
            np.concatenate([ds.cats for ds in datasets]),
            np.concatenate([ds.click for ds in datasets]),
            np.concatenate([ds.conversion for ds in datasets]),
            np.concatenate([ds.weight for ds in datasets]),
            np.concatenate([ds.day for ds in datasets]),
            first.config_fingerprint)


class GroundTruth:
    """Oracle access to the true per-impression probabilities.

    Pure functions of (config, x, day); no trained parameters. Day-t weights
    are the base weights plus drift_rate times a deterministic Gaussian
    random walk, so drift_rate = 0 reproduces day 0 exactly.
    """

    def __init__(self, config):
        self.config = config

    def _weights_for_day(self, day):
        if not 0 <= day < self.config.n_days:
            raise ValueError(f"day {day} outside [0, {self.config.n_days})")
        cfg = self.config
        click_dense, click_cat, conv_dense, conv_cat = (
            w.copy() for w in (cfg.click_dense, cfg.click_cat, cfg.conv_dense, cfg.conv_cat))
        if cfg.drift_rate > 0:
            for step in range(1, day + 1):
                rng = np.random.default_rng(
                    np.random.SeedSequence([cfg.seed, _DRIFT_TAG, step]))
                click_dense += cfg.drift_rate * rng.standard_normal(cfg.dense_dim)
                conv_dense += cfg.drift_rate * rng.standard_normal(cfg.dense_dim)
                if cfg.n_categorical:
                    click_cat += cfg.drift_rate * rng.standard_normal(click_cat.shape)
                    conv_cat += cfg.drift_rate * rng.standard_normal(conv_cat.shape)
        return click_dense, click_cat, conv_dense, conv_cat

    def probabilities(self, dense, cats, day=0):
        """(CTR, CVR given click) of a batch under day ``day``'s weights."""
        cfg = self.config
        dense, cats = check_batch(dense, cats, cfg.dense_dim, cfg.n_categorical, cfg.vocab_size)
        return self._probabilities(dense, cats, self._weights_for_day(day))

    def _probabilities(self, dense, cats, weights):
        """``probabilities`` for a checked batch and one day's weights."""
        cfg = self.config
        click_dense, click_cat, conv_dense, conv_cat = weights
        click_logits = dense @ click_dense + _cat_contrib(click_cat, cats) + cfg.click_intercept
        conv_logits = dense @ conv_dense + _cat_contrib(conv_cat, cats) + cfg.conv_intercept
        return _sigmoid(click_logits), _sigmoid(conv_logits)

    def predict_dataset(self, ds):
        """Oracle predictor with the same surface a trained model exposes;
        each row is scored with its own day's weights."""
        ctr, cvr = np.empty(len(ds)), np.empty(len(ds))
        for day in np.unique(ds.day):
            mask = ds.day == day
            ctr[mask], cvr[mask] = self.probabilities(ds.dense[mask], ds.cats[mask], int(day))
        return {"ctr": ctr, "cvr": cvr, "joint": ctr * cvr}


def generate_day(config, day, n, seed):
    """Draw n impressions for one day.

    Features are sampled i.i.d.; clicks are Bernoulli in the true CTR and
    conversions Bernoulli in the true conversion rate, realized only on
    clicked impressions. All weights start at 1. The day index is folded into
    the random stream, so one seed covers a whole multi-day pull while the
    same (seed, day) pair always reproduces the same dataset.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    gt = GroundTruth(config)
    weights = gt._weights_for_day(day)  # validates the day index even for n=0
    rng = np.random.default_rng(np.random.SeedSequence([seed, day]))
    dense = rng.standard_normal((n, config.dense_dim))
    cats = rng.integers(0, config.vocab_size, size=(n, config.n_categorical))
    p_click, p_conv = gt._probabilities(dense, cats, weights)  # a batch by construction
    click = (rng.random(n) < p_click).astype(np.int64)
    conversion = click * (rng.random(n) < p_conv).astype(np.int64)
    return Dataset(dense, cats, click, conversion, np.ones(n),
                   np.full(n, day), config.fingerprint())


def downsample_negatives(ds, f, seed):
    """Keep clicked examples; keep each unclicked one with probability 1/f.

    Kept negatives get their weight multiplied by f, which calibrates the
    weighted loss back to the full space in expectation. The conversion label
    is never consulted. Membership is an independent Bernoulli per example
    rather than an exact-count draw: simpler and unbiased.

    ``seed`` may be a ``Generator``, which is used as is: calls on
    consecutive datasets then continue one stream, and keep exactly the rows
    one call on their concatenation would. ``cli._train_dataset`` relies on
    this to downsample each training day as it is drawn.
    """
    if not 1 <= f < math.inf:  # also false for NaN
        raise ValueError(f"downsample factor must be finite and >= 1, got {f}")
    rng = np.random.default_rng(seed)
    u = rng.random(len(ds))
    keep = (ds.click == 1) | (u < 1.0 / f)
    weight = ds.weight.copy()
    weight[(ds.click == 0) & keep] *= f
    return Dataset(ds.dense[keep], ds.cats[keep], ds.click[keep],
                   ds.conversion[keep], weight[keep], ds.day[keep],
                   ds.config_fingerprint)


def shuffle(ds, seed):
    """Deterministic permutation; the multiset of examples is preserved."""
    return ds.subset(np.random.default_rng(seed).permutation(len(ds)))


def bayes_ce(gt, ds, target="joint"):
    """Weighted cross-entropy of the true probabilities against the labels.

    The irreducible-loss reference for a dataset: no predictor can beat it in
    expectation. ``target`` picks the prediction space: "joint" and "ctr"
    run over all examples; "cvr_given_click" restricts to clicked ones.
    """
    if ds.config_fingerprint != gt.config.fingerprint():
        raise ValueError("dataset was generated from a different config")
    if target not in ("joint", "ctr", "cvr_given_click"):
        raise ValueError(f"unknown target {target!r}")
    if target == "cvr_given_click":
        ds = ds.clicked()
        head, labels = "cvr", ds.conversion
    elif target == "joint":
        head, labels = "joint", ds.conversion
    else:
        head, labels = "ctr", ds.click
    return metrics.weighted_ce(gt.predict_dataset(ds)[head], labels, ds.weight)
