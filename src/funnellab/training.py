"""Deterministic mini-batch training under the loss regime the design
flags set.

The conversion loss goes on the joint output with weight w for an
entire-space design, and on the conditional ``cvr`` head with weight
w * click otherwise; the click loss, weight w, goes on the ``ctr`` head
wherever one exists (w is each row's calibration weight). Training runs
over "loss jobs": disjoint towers trained in the conditional space (IP) are
two jobs, the click tower on every row and the conversion tower on the
clicked rows, each with its own optimizer and shuffle stream. Every other
design is one job over the whole graph.

One run is single-threaded; a harness may run many (model x seed) jobs
concurrently since each owns its model, tape, and RNG. Evaluation always
sits strictly in the future of the training days.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import metrics


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 512
    epochs: int = 12
    seed: int = 0

    def __post_init__(self):
        if (not 0 < self.learning_rate < math.inf  # also false for NaN
                or self.batch_size <= 0 or self.epochs < 0):
            raise ValueError(f"invalid training config: {self}")


@dataclass
class RunHistory:
    """Per-epoch train losses (by head) and eval metrics."""

    head_losses: list = field(default_factory=list)
    eval_metrics: list = field(default_factory=list)


def evaluate(model, ds):
    """Weighted joint CE, PR-AUC, calibration, CTR-head CE, violation rate.

    Works with any predictor exposing ``predict_dataset``, including the
    ground-truth oracle. The consistency-violation rate (joint > ctr) is
    exactly zero for the product-composed designs and is only informative
    for ESSP-Split, whose two heads are unconstrained.
    """
    preds = model.predict_dataset(ds)
    joint = preds["joint"]
    ctr = preds.get("ctr")
    return metrics.MetricsRecord(
        joint_ce=metrics.weighted_ce(joint, ds.conversion, ds.weight),
        joint_pr_auc=metrics.pr_auc(joint, ds.conversion, ds.weight),
        calibration_ratio=metrics.calibration_ratio(joint, ds.conversion, ds.weight),
        ctr_ce=None if ctr is None else metrics.weighted_ce(ctr, ds.click, ds.weight),
        essp_violation_rate=None if ctr is None else float(np.mean(joint > ctr)),
    )


def _check_finite(value, model_name, epoch):
    if not np.isfinite(value):
        raise FloatingPointError(
            f"non-finite loss ({value}) for {model_name} at epoch {epoch}: run aborted")


def _epoch_batches(rng, n, batch_size):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def batch_loss(model, tape, ds, idx, heads=None):
    """Loss of the selected heads on rows ``idx`` of ``ds``.

    Returns (total, terms, batch_weight): ``terms`` maps "cvr" (the
    conversion loss) and "ctr" (the click loss) to their summed weighted
    cross-entropies, and ``total`` is their sum divided by the batch's
    summed calibration weight, so gradient scale is stable under
    calibration upweighting.
    """
    w = ds.weight[idx]
    click = ds.click[idx]
    out = model.forward_heads(tape, ds.dense[idx], ds.cats[idx], heads=heads)
    terms = {}
    if model.characteristics.entire_space:
        terms["cvr"] = ad.weighted_bce(out["joint"], ds.conversion[idx], w)
    elif "cvr" in out:
        terms["cvr"] = ad.weighted_bce(out["cvr"], ds.conversion[idx], w * click)
    if "ctr" in out:
        terms["ctr"] = ad.weighted_bce(out["ctr"], click, w)
    total = (ad.add(terms["ctr"], terms["cvr"]) if len(terms) == 2
             else next(iter(terms.values())))
    batch_weight = float(w.sum())
    return ad.scale(total, 1.0 / batch_weight), terms, batch_weight


def loss_jobs(model, train_ds, seed):
    """[(heads, dataset, parameters, rng)]: one entry per separately trained
    part of the model (see the module docstring)."""
    chars = model.characteristics
    if chars.shared_params or chars.entire_space:
        return [(None, train_ds, model.parameters(), np.random.default_rng(seed))]
    clicked = train_ds.clicked()
    if len(clicked) == 0:
        raise ValueError(f"{model.name} needs at least one clicked training example")
    return [(("ctr",), train_ds, model.tower_parameters("ctr"),
             np.random.default_rng(np.random.SeedSequence([seed, 1]))),
            (("cvr",), clicked, model.tower_parameters("cvr"),
             np.random.default_rng(np.random.SeedSequence([seed, 2])))]


def train(model, train_ds, eval_ds, cfg):
    """Train a model and return (model, RunHistory).

    Per batch, the loss is ``batch_loss`` of the job's heads; one optimizer
    step per batch. Everything is deterministic given cfg.seed.
    """
    if len(train_ds) == 0 or len(eval_ds) == 0:
        raise ValueError("training and evaluation datasets must be non-empty")
    if train_ds.day.max() >= eval_ds.day.min():
        raise ValueError(
            f"temporal split violated: train days reach {train_ds.day.max()}, "
            f"eval days start at {eval_ds.day.min()}")
    history = RunHistory()
    if cfg.epochs == 0:
        return model, history
    jobs = [(heads, ds, ad.Adam(params, cfg.learning_rate), rng)
            for heads, ds, params, rng in loss_jobs(model, train_ds, cfg.seed)]
    for epoch in range(cfg.epochs):
        losses = {}
        # A diverging run overflows in the forward pass; the loss check, Adam
        # and the eval check below abort it with a named FloatingPointError,
        # so numpy prints no warning text on the way. The eval check catches
        # an epoch whose last step diverged: no later loss would see it.
        with np.errstate(over="ignore", invalid="ignore"):
            for heads, ds, opt, rng in jobs:
                sums = {}
                weight_total = 0.0
                for idx in _epoch_batches(rng, len(ds), cfg.batch_size):
                    tape = ad.Tape()
                    total, terms, batch_weight = batch_loss(model, tape, ds, idx, heads)
                    _check_finite(float(total.value), model.name, epoch)
                    tape.backward(total)
                    opt.step()
                    for key, term in terms.items():
                        sums[key] = sums.get(key, 0.0) + float(term.value)
                    weight_total += batch_weight
                losses.update((key, value / weight_total) for key, value in sums.items())
            record = evaluate(model, eval_ds)
        _check_finite(record.joint_ce, model.name, epoch)
        history.head_losses.append(losses)
        history.eval_metrics.append(record)
    return model, history
