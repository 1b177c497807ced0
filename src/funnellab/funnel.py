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
import io
import math
from dataclasses import dataclass

import numpy as np

from . import metrics

_DRIFT_TAG = 0x5EED
_INTERCEPT_SAMPLE = 200_000


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
        if self.dense_dim <= 0 or self.vocab_size <= 0 or self.n_days <= 0:
            raise ValueError("dense_dim, vocab_size and n_days must be positive")
        if self.n_categorical < 0 or self.drift_rate < 0:
            raise ValueError("n_categorical and drift_rate must be nonnegative")
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


def _bisect_intercept(logits_no_intercept, target, weights=None, iters=200):
    """Intercept whose (weighted) mean sigmoid hits ``target``.

    Stops once ``lo`` and ``hi`` are adjacent floats (about 60 steps): from
    there every further step leaves the returned midpoint unchanged, so the
    result is the one all ``iters`` steps would give.
    """
    lo, hi = -40.0, 40.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        p = _sigmoid(logits_no_intercept + mid)
        rate = np.average(p, weights=weights)
        if rate < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sigmoid(v):
    """1 / (1 + e) where v >= 0 and e / (1 + e) elsewhere, with e = exp(-|v|)."""
    e = np.exp(-np.abs(v))
    d = 1.0 + e
    np.divide(e, d, out=e)
    return np.divide(1.0, d, out=e, where=v >= 0)


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
    if not 0.0 <= correlation <= 1.0:
        raise ValueError("correlation must be in [0, 1]")
    for name, rate in (("base_click_rate", base_click_rate),
                       ("base_conv_rate", base_conv_rate)):
        # NaN fails both comparisons, so it is rejected too.
        if not 0.0 < rate < 1.0:
            raise ValueError(f"{name} must be inside (0, 1), got {rate}")
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
    x = rng.standard_normal((_INTERCEPT_SAMPLE, dense_dim))
    cats = rng.integers(0, vocab_size, size=(_INTERCEPT_SAMPLE, n_categorical))
    click_logits = x @ click_dense + _cat_contrib(click_cat, cats)
    click_intercept = _bisect_intercept(click_logits, base_click_rate)
    p_click = _sigmoid(click_logits + click_intercept)
    conv_logits = x @ conv_dense + _cat_contrib(conv_cat, cats)
    conv_intercept = _bisect_intercept(conv_logits, base_conv_rate, weights=p_click)

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


class Dataset:
    """Columnar, immutable collection of examples plus provenance.

    Construction checks the funnel's invariants: click and conversion labels
    are 0 or 1, conversion implies click, and weights are finite and
    nonnegative.
    """

    def __init__(self, dense, cats, click, conversion, weight, day,
                 config_fingerprint, provenance):
        self.dense = np.asarray(dense, dtype=np.float64)
        self.cats = np.asarray(cats, dtype=np.int64)
        self.click = _binary_labels("click", click)
        self.conversion = _binary_labels("conversion", conversion)
        self.weight = np.asarray(weight, dtype=np.float64)
        self.day = np.asarray(day, dtype=np.int64)
        self.config_fingerprint = config_fingerprint
        self.provenance = provenance
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
                       self.config_fingerprint, self.provenance + " subset")

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
            first.config_fingerprint,
            " + ".join(ds.provenance for ds in datasets))


class GroundTruth:
    """Oracle access to the true per-impression probabilities.

    Pure functions of (config, x, day); no trained parameters. Day-t weights
    are the base weights plus drift_rate times a deterministic Gaussian
    random walk, so drift_rate = 0 reproduces day 0 exactly.
    """

    def __init__(self, config):
        self.config = config
        self._day_cache = {}

    def _weights_for_day(self, day):
        if not 0 <= day < self.config.n_days:
            raise ValueError(f"day {day} outside [0, {self.config.n_days})")
        cached = self._day_cache.get(day)
        if cached is not None:
            return cached
        cfg = self.config
        click_dense = cfg.click_dense.copy()
        conv_dense = cfg.conv_dense.copy()
        click_cat = cfg.click_cat.copy()
        conv_cat = cfg.conv_cat.copy()
        if cfg.drift_rate > 0:
            for step in range(1, day + 1):
                rng = np.random.default_rng(
                    np.random.SeedSequence([cfg.seed, _DRIFT_TAG, step]))
                click_dense += cfg.drift_rate * rng.standard_normal(cfg.dense_dim)
                conv_dense += cfg.drift_rate * rng.standard_normal(cfg.dense_dim)
                if cfg.n_categorical:
                    click_cat += cfg.drift_rate * rng.standard_normal(click_cat.shape)
                    conv_cat += cfg.drift_rate * rng.standard_normal(conv_cat.shape)
        weights = (click_dense, click_cat, conv_dense, conv_cat)
        self._day_cache[day] = weights
        return weights

    def _check_x(self, dense, cats):
        dense = np.atleast_2d(np.asarray(dense, dtype=np.float64))
        cats = np.asarray(cats, dtype=np.int64)
        cats = cats.reshape(dense.shape[0], self.config.n_categorical)
        if dense.shape[1] != self.config.dense_dim:
            raise ValueError(f"dense dim {dense.shape[1]} != config {self.config.dense_dim}")
        return dense, cats

    def true_ctr(self, dense, cats, day=0):
        dense, cats = self._check_x(dense, cats)
        click_dense, click_cat, _, _ = self._weights_for_day(day)
        logits = dense @ click_dense + _cat_contrib(click_cat, cats) + self.config.click_intercept
        return _sigmoid(logits)

    def true_cvr_given_click(self, dense, cats, day=0):
        dense, cats = self._check_x(dense, cats)
        _, _, conv_dense, conv_cat = self._weights_for_day(day)
        logits = dense @ conv_dense + _cat_contrib(conv_cat, cats) + self.config.conv_intercept
        return _sigmoid(logits)

    def true_joint(self, dense, cats, day=0):
        return self.true_ctr(dense, cats, day) * self.true_cvr_given_click(dense, cats, day)

    def _dataset_probs(self, ds, kind):
        fn = {"ctr": self.true_ctr, "cvr_given_click": self.true_cvr_given_click,
              "joint": self.true_joint}[kind]
        out = np.empty(len(ds))
        for day in np.unique(ds.day):
            mask = ds.day == day
            out[mask] = fn(ds.dense[mask], ds.cats[mask], int(day))
        return out

    def predict_dataset(self, ds):
        """Oracle predictor with the same surface a trained model exposes."""
        return {"ctr": self._dataset_probs(ds, "ctr"),
                "cvr": self._dataset_probs(ds, "cvr_given_click"),
                "joint": self._dataset_probs(ds, "joint")}


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
    gt._weights_for_day(day)  # validates the day index even for n=0
    rng = np.random.default_rng(np.random.SeedSequence([seed, day]))
    dense = rng.standard_normal((n, config.dense_dim))
    cats = rng.integers(0, config.vocab_size, size=(n, config.n_categorical))
    p_click = gt.true_ctr(dense, cats, day)
    p_conv = gt.true_cvr_given_click(dense, cats, day)
    click = (rng.random(n) < p_click).astype(np.int64)
    conversion = click * (rng.random(n) < p_conv).astype(np.int64)
    provenance = f"config={config.fingerprint()} day={day} n={n} seed={seed}"
    return Dataset(dense, cats, click, conversion, np.ones(n),
                   np.full(n, day), config.fingerprint(), provenance)


def downsample_negatives(ds, f, seed):
    """Keep clicked examples; keep each unclicked one with probability 1/f.

    Kept negatives get their weight multiplied by f, which calibrates the
    weighted loss back to the full space in expectation. The conversion label
    is never consulted. Membership is an independent Bernoulli per example
    rather than an exact-count draw: simpler and unbiased.
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
                   ds.config_fingerprint,
                   ds.provenance + f" downsample=f:{f} seed={seed}")


def shuffle(ds, seed):
    """Deterministic permutation; the multiset of examples is preserved."""
    perm = np.random.default_rng(seed).permutation(len(ds))
    out = ds.subset(perm)
    out.provenance = ds.provenance + f" shuffle seed={seed}"
    return out


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
        labels = ds.conversion
    else:
        labels = ds.conversion if target == "joint" else ds.click
    preds = gt._dataset_probs(ds, target)
    return metrics.weighted_ce(preds, labels, ds.weight)


def dataset_to_file(ds, path):
    """Columnar text export: comment lines with provenance, header row, rows."""
    cfg_dim = ds.dense.shape[1]
    n_cat = ds.cats.shape[1]
    cols = ([f"dense_{i}" for i in range(cfg_dim)]
            + [f"cat_{j}" for j in range(n_cat)]
            + ["click", "conversion", "weight", "day"])
    buf = io.StringIO()
    buf.write(f"# fingerprint: {ds.config_fingerprint}\n")
    buf.write(f"# provenance: {ds.provenance}\n")
    buf.write(",".join(cols) + "\n")
    for i in range(len(ds)):
        fields = ([repr(float(v)) for v in ds.dense[i]]
                  + [str(int(v)) for v in ds.cats[i]]
                  + [str(ds.click[i]), str(ds.conversion[i]),
                     repr(float(ds.weight[i])), str(ds.day[i])])
        buf.write(",".join(fields) + "\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def dataset_from_file(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    fingerprint, provenance = "", ""
    row_start = 0
    for i, line in enumerate(lines):
        if line.startswith("# fingerprint:"):
            fingerprint = line.split(":", 1)[1].strip()
        elif line.startswith("# provenance:"):
            provenance = line.split(":", 1)[1].strip()
        elif not line.startswith("#"):
            row_start = i
            break
    header = lines[row_start].split(",")
    dense_dim = sum(1 for c in header if c.startswith("dense_"))
    n_cat = sum(1 for c in header if c.startswith("cat_"))
    rows = [line.split(",") for line in lines[row_start + 1:] if line]
    data = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(header)))
    dense = data[:, :dense_dim]
    cats = data[:, dense_dim:dense_dim + n_cat].astype(np.int64)
    click = data[:, dense_dim + n_cat]
    conversion = data[:, dense_dim + n_cat + 1]
    weight = data[:, dense_dim + n_cat + 2]
    day = data[:, dense_dim + n_cat + 3].astype(np.int64)
    return Dataset(dense, cats, click, conversion, weight, day, fingerprint, provenance)
