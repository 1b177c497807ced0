"""Experiment harness: six-model ablation, temporal-drift decay, gradient
checks, and oracle self-tests, behind a ``funnellab`` command line.

Runs are paired by seed: every model trains on byte-identical datasets for a
given seed, which removes dataset noise from the comparison. Reports are
pure functions of the experiment config, so reruns produce byte-identical
CSV output. Seeds run in parallel on forked workers when BLAS leaves cores
idle (``_map_seeds``); the reports are the same either way.

Exit codes: 0 success, 1 run or check failure, 2 invalid config.
"""

import argparse
import difflib
import json
import os
import pathlib
import sys
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import funnel as fd
from . import metrics
from . import models as md
from . import training as tr
from .oracles import brute_force_pr_auc

DRIFT_OFFSETS = (2, 3, 4, 5, 6)

DEFAULT_CONFIG = {
    "funnel": {
        "dense_dim": 16,
        "n_categorical": 2,
        "vocab_size": 100,
        "base_click_rate": 0.05,
        "base_conv_rate": 0.10,
        "correlation": 0.5,
        "dense_signal": 2.5,
        "cat_signal": 1.25,
        "drift_rate": 0.0,
        "n_days": 10,
        "seed": 7,
    },
    "net": {
        "embedding_dim": 16,
        "shared_layer_dims": [64, 32],
        "head_layer_dims": [8, 8],
    },
    "train": {
        "learning_rate": 0.01,
        "batch_size": 512,
        "epochs": 12,
    },
    "train_overrides": {},
    "models": list(md.MODEL_NAMES),
    "baseline": "IP",
    "n_seeds": 10,
    "downsample_factor": 10.0,
    "train_days": 4,
    "n_train_per_day": 200_000,
    "n_eval": 50_000,
    "base_seed": 0,
    "out_dir": "reports",
}


@dataclass
class ExperimentConfig:
    funnel: fd.FunnelConfig
    net: md.NetworkConfig
    train: tr.TrainConfig
    models: list
    baseline: str
    n_seeds: int
    downsample_factor: float
    train_days: int
    n_train_per_day: int
    n_eval: int
    base_seed: int
    out_dir: str
    train_overrides: dict

    def __post_init__(self):
        if self.n_seeds < 2:
            raise ValueError("n_seeds must be at least 2")
        unknown = set(self.models) - set(md.MODEL_NAMES)
        if unknown:
            raise ValueError(f"unknown models {sorted(unknown)}; valid: {md.MODEL_NAMES}")
        if not self.models:
            raise ValueError("at least one model required")
        repeated = sorted({name for name in self.models if self.models.count(name) > 1})
        if repeated:
            raise ValueError(f"models must be distinct; repeated: {repeated}")
        if self.downsample_factor < 1:
            raise ValueError("downsample_factor must be >= 1")
        if self.train_days < 1:
            raise ValueError("train_days must be >= 1")
        if self.n_train_per_day < 1 or self.n_eval < 1:
            raise ValueError("n_train_per_day and n_eval must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        if self.eval_day >= self.funnel.n_days:
            raise ValueError(
                f"eval day {self.eval_day} needs funnel.n_days > {self.eval_day}")
        if not isinstance(self.train_overrides, dict):
            raise ValueError(f"train_overrides must be an object, got {self.train_overrides!r}")
        for model_name, overrides in self.train_overrides.items():
            if model_name not in md.MODEL_NAMES:
                raise ValueError(f"train_overrides: unknown model {model_name!r}; "
                                 + _did_you_mean(model_name, md.MODEL_NAMES))
            # the same keys as the train section: each run sets its own seed
            _check_keys(f"train_overrides[{model_name!r}]", overrides,
                        DEFAULT_CONFIG["train"])
            self.train_config_for(model_name)  # TrainConfig checks the values

    def check_baseline(self):
        """The ablation normalizes every design by the baseline's runs."""
        if self.baseline not in self.models:
            raise ValueError(f"baseline {self.baseline!r} must be among models {self.models}")

    @property
    def eval_day(self):
        return self.train_days

    def train_config_for(self, model_name):
        overrides = self.train_overrides.get(model_name)
        return replace(self.train, **overrides) if overrides else self.train


def _did_you_mean(key, valid):
    near = difflib.get_close_matches(str(key), list(valid), n=1)
    return f"did you mean {near[0]!r}?" if near else f"valid: {sorted(valid)}"


def _check_keys(where, given, defaults):
    """Reject a non-object, keys outside ``defaults`` (with a hint), and a
    value of another kind than its default (see ``_check_kind``)."""
    if not isinstance(given, dict):
        raise ValueError(f"{where} must be an object, got {given!r}")
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}; "
                         + _did_you_mean(unknown[0], defaults))
    for key, value in given.items():
        _check_kind(where, key, value, defaults[key])


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_kind(where, key, value, default):
    """An integer key takes only an int, a float key a finite int or float, a
    list of integers (layer widths) only ints, and a string key a string;
    no number key takes a bool."""
    if isinstance(default, list) and default and _is_int(default[0]):
        ok, kind = isinstance(value, list) and all(map(_is_int, value)), "a list of integers"
    elif _is_int(default):
        ok, kind = _is_int(value), "an integer"
    elif isinstance(default, float):
        ok, kind = _is_int(value) or isinstance(value, float), "a number"
        # rejects NaN, infinities and ints beyond the float range
        if ok and not abs(value) <= sys.float_info.max:
            ok, kind = False, "finite"
    elif isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    else:
        return
    if not ok:
        raise ValueError(f"{where}: {key} must be {kind}, got {value!r}")


def config_from_dict(raw):
    """Build an ExperimentConfig from the JSON config schema; every unknown
    key, at the top level or in a section, is an error."""
    _check_keys("config", raw, DEFAULT_CONFIG)
    for section in ("funnel", "net", "train"):
        _check_keys(section, raw.get(section, {}), DEFAULT_CONFIG[section])
    if not isinstance(raw.get("models", []), list):
        raise ValueError(f"models must be a list of names, got {raw['models']!r}")
    merged = {**DEFAULT_CONFIG, **raw}
    merged["funnel"] = {**DEFAULT_CONFIG["funnel"], **raw.get("funnel", {})}
    merged["net"] = {**DEFAULT_CONFIG["net"], **raw.get("net", {})}
    merged["train"] = {**DEFAULT_CONFIG["train"], **raw.get("train", {})}
    funnel_cfg = fd.make_funnel_config(**merged["funnel"])
    net = md.NetworkConfig(
        dense_input_dim=funnel_cfg.dense_dim,
        n_categorical=funnel_cfg.n_categorical,
        vocab_size=funnel_cfg.vocab_size,
        embedding_dim=merged["net"]["embedding_dim"],
        shared_layer_dims=tuple(merged["net"]["shared_layer_dims"]),
        head_layer_dims=tuple(merged["net"]["head_layer_dims"]))
    train_cfg = tr.TrainConfig(**merged["train"])
    return ExperimentConfig(
        funnel=funnel_cfg, net=net, train=train_cfg,
        models=list(merged["models"]), baseline=merged["baseline"],
        n_seeds=merged["n_seeds"],
        downsample_factor=float(merged["downsample_factor"]),
        train_days=merged["train_days"],
        n_train_per_day=merged["n_train_per_day"],
        n_eval=merged["n_eval"],
        base_seed=merged["base_seed"],
        out_dir=merged["out_dir"],
        train_overrides=raw.get("train_overrides", {}))


def _seed_bundle(base_seed, seed_idx):
    """Four stream seeds (train data, downsample, shuffle, eval) per run seed."""
    state = np.random.SeedSequence([base_seed, seed_idx]).generate_state(4)
    return tuple(int(v) for v in state)


def _model_init_seed(base_seed, seed_idx, model_name):
    tag = zlib.crc32(model_name.encode())
    return int(np.random.SeedSequence([base_seed, seed_idx, tag]).generate_state(1)[0])


def _seed_datasets(cfg, seed_idx):
    """Train (downsampled, shuffled) and full-space eval data for one seed."""
    data_seed, down_seed, shuffle_seed, eval_seed = _seed_bundle(cfg.base_seed, seed_idx)
    days = [fd.generate_day(cfg.funnel, day, cfg.n_train_per_day, data_seed)
            for day in range(cfg.train_days)]
    train_ds = fd.Dataset.concat(days)
    train_ds = fd.downsample_negatives(train_ds, cfg.downsample_factor, down_seed)
    train_ds = fd.shuffle(train_ds, shuffle_seed)
    eval_ds = fd.generate_day(cfg.funnel, cfg.eval_day, cfg.n_eval, eval_seed)
    return train_ds, eval_ds


def _train_one(cfg, model_name, seed_idx, train_ds, eval_ds):
    model = md.build(model_name, cfg.net,
                     _model_init_seed(cfg.base_seed, seed_idx, model_name))
    run_cfg = replace(cfg.train_config_for(model_name), seed=seed_idx)
    model, history = tr.train(model, train_ds, eval_ds, run_cfg)
    return model, history


class RunFailed(RuntimeError):
    """A run that could not finish; the message names its model and seed, or
    the seeds a dead worker process took with it."""


def _blas_threads(cores):
    """Threads each process's BLAS uses: the first of these variables that
    holds a positive integer, else one per core, OpenBLAS's default."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return cores


def _pool_size(n_seeds):
    """Seeds to run at once: as many as the cores BLAS leaves idle allow, so
    that pool size times BLAS threads never exceeds the usable cores."""
    if not hasattr(os, "sched_getaffinity"):  # macOS, Windows: run serially
        return 1
    cores = len(os.sched_getaffinity(0))
    return max(1, min(n_seeds, cores // _blas_threads(cores)))


def _map_seeds(fn, cfg, *args):
    """``[fn(cfg, seed, *args) for seed in range(cfg.n_seeds)]``, on a process
    pool when the cores allow more than one seed at a time (``_pool_size``).

    Workers are forked, so each starts from this process's modules in their
    current state and from its BLAS set-up, and computes the same bits as
    the serial path. Results come back in seed order. The first failure in
    seed order is raised as it would be serially, after pending seeds are
    cancelled; a worker that dies raises ``RunFailed`` naming the seeds that
    were lost. Every worker is joined before this returns or raises.
    """
    jobs = _pool_size(cfg.n_seeds)
    if jobs == 1:
        return [fn(cfg, seed_idx, *args) for seed_idx in range(cfg.n_seeds)]
    # Imported here: only a pooled run pays for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(fn, cfg, seed_idx, *args) for seed_idx in range(cfg.n_seeds)]
        results = []
        for future in futures:
            try:
                results.append(future.result())
            except BrokenProcessPool:
                lost = [seed_idx for seed_idx, f in enumerate(futures)
                        if isinstance(f.exception(), BrokenProcessPool)]
                raise RunFailed("a worker process died; lost seeds "
                                + ", ".join(map(str, lost))) from None
        return results
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


@dataclass
class AblationReport:
    config_fingerprint: str
    formula: str
    models: list
    n_seeds: int
    records: dict                     # (model, seed) -> MetricsRecord or None
    errors: dict                      # (model, seed) -> str
    stats: metrics.ComparisonStats    # None when stats_error says why
    better_than: dict
    norm_scores: dict                 # model -> {seed -> normalized score}
    extras: dict = field(default_factory=dict)  # (model, seed) -> diagnostics
    stats_error: str = None

    @property
    def failed(self):
        return bool(self.errors) or self.stats is None


def _ablation_seed(cfg, seed_idx):
    """Train every selected model on one seed's data; a failed run is
    recorded, not raised. Returns (records, errors, extras, log lines)."""
    records, errors, extras, lines = {}, {}, {}, []
    train_ds, eval_ds = _seed_datasets(cfg, seed_idx)
    for model_name in cfg.models:
        try:
            model, history = _train_one(cfg, model_name, seed_idx, train_ds, eval_ds)
            record = history.eval_metrics[-1]
            records[(model_name, seed_idx)] = record
            preds = model.predict_dataset(eval_ds)
            extras[(model_name, seed_idx)] = {
                "ctr_calibration": (
                    metrics.calibration_ratio(preds["ctr"], eval_ds.click, eval_ds.weight)
                    if "ctr" in preds else None),
            }
            lines.append(f"seed {seed_idx} {model_name}: joint_ce={record.joint_ce:.6f}")
        except Exception as exc:  # noqa: BLE001 - failed runs are reported, not fatal
            records[(model_name, seed_idx)] = None
            errors[(model_name, seed_idx)] = f"{type(exc).__name__}: {exc}"
            lines.append(f"seed {seed_idx} {model_name}: FAILED ({exc})")
    return records, errors, extras, lines


def run_ablation(cfg, log=None):
    """Train every selected model on identical per-seed data; compare to baseline."""
    cfg.check_baseline()
    log = log or (lambda msg: None)
    records, errors, extras = {}, {}, {}
    for seed_records, seed_errors, seed_extras, lines in _map_seeds(_ablation_seed, cfg):
        records.update(seed_records)
        errors.update(seed_errors)
        extras.update(seed_extras)
        for line in lines:
            log(line)
    surviving = {
        name: [s for s in range(cfg.n_seeds) if records[(name, s)] is not None]
        for name in cfg.models
    }
    ces_by_model = {
        name: [records[(name, s)].joint_ce for s in seeds]
        for name, seeds in surviving.items() if len(seeds) >= 2
    }
    report = AblationReport(
        config_fingerprint=cfg.funnel.fingerprint(),
        formula=metrics.PERFORMANCE_FORMULA,
        models=list(cfg.models), n_seeds=cfg.n_seeds,
        records=records, errors=errors, stats=None, better_than={},
        norm_scores={}, extras=extras)
    if cfg.baseline not in ces_by_model:
        report.stats_error = (
            f"baseline {cfg.baseline} succeeded on {len(surviving[cfg.baseline])} "
            f"of {cfg.n_seeds} seeds; normalized scores need at least 2")
        return report
    report.stats = stats = metrics.compare_models(ces_by_model, cfg.baseline)
    report.better_than = metrics.better_than_table(stats, alpha=0.01)
    report.norm_scores = {
        name: dict(zip(surviving[name], map(float, stats.norm_scores[name])))
        for name in stats.models
    }
    return report


RUN_COLUMNS = ("joint_ce", "joint_pr_auc", "calibration_ratio", "ctr_ce", "norm_perf")


def _fmt(value):
    return "" if value is None else repr(float(value))


def emit_report(report, out_dir, fmt="csv"):
    """Write the per-run table and the comparison stats in csv and/or json.

    CSV data columns: model, seed, joint_ce, joint_pr_auc, calibration_ratio,
    ctr_ce, norm_perf. Headers carry the score formula and the funnel config
    fingerprint so every emitted number is traceable and recomputable. The
    per-run rows are always written (a failed run's JSON row carries its
    error); when no stats could be computed, the stats output says why.
    """
    out = pathlib.Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir!r}: {exc}") from exc
    if fmt not in ("csv", "json", "both"):
        raise ValueError(f"format must be csv, json or both, got {fmt!r}")
    written = []
    header_lines = [f"# {report.formula}",
                    f"# funnel_config_fingerprint = {report.config_fingerprint}",
                    f"# models = {','.join(report.models)}; seeds = {report.n_seeds}"]
    rows = []
    for name in report.models:
        for seed in range(report.n_seeds):
            rec = report.records.get((name, seed))
            row = {"model": name, "seed": seed}
            if rec is None:
                row["error"] = report.errors.get((name, seed))
            else:
                row.update(joint_ce=rec.joint_ce, joint_pr_auc=rec.joint_pr_auc,
                           calibration_ratio=rec.calibration_ratio, ctr_ce=rec.ctr_ce,
                           norm_perf=report.norm_scores.get(name, {}).get(seed))
            rows.append(row)
    stats = report.stats
    stat_models = stats.models if stats else []
    if fmt in ("csv", "both"):
        runs_path = out / "ablation_runs.csv"
        lines = list(header_lines)
        lines.append(",".join(["model", "seed", *RUN_COLUMNS]))
        lines += [",".join([row["model"], str(row["seed"])]
                           + [_fmt(row.get(col)) for col in RUN_COLUMNS]) for row in rows]
        runs_path.write_text("\n".join(lines) + "\n")
        written.append(str(runs_path))

        stats_path = out / "ablation_stats.csv"
        lines = list(header_lines)
        if stats is None:
            lines.append(f"# stats not computed: {report.stats_error}")
        else:
            lines.append("model,mean_norm_perf,sem,better_than,"
                         + ",".join(f"p_vs_{m}" for m in stat_models))
        for name in stat_models:
            pvals = [("" if m == name else repr(stats.pvalues[(name, m)]))
                     for m in stat_models]
            lines.append(",".join([
                name, repr(stats.mean_norm_perf[name]), repr(stats.sem[name]),
                ";".join(report.better_than.get(name, []))] + pvals))
        stats_path.write_text("\n".join(lines) + "\n")
        written.append(str(stats_path))
    if fmt in ("json", "both"):
        json_path = out / "ablation_report.json"
        payload = {
            "formula": report.formula,
            "funnel_config_fingerprint": report.config_fingerprint,
            "models": report.models,
            "n_seeds": report.n_seeds,
            "runs": rows,
            "stats": {
                name: {"mean_norm_perf": stats.mean_norm_perf[name],
                       "sem": stats.sem[name],
                       "better_than": report.better_than.get(name, []),
                       "pvalues": {m: stats.pvalues[(name, m)]
                                   for m in stat_models if m != name}}
                for name in stat_models
            },
        }
        if stats is None:
            payload["stats_error"] = report.stats_error
        json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written.append(str(json_path))
    return written


@dataclass
class DriftReport:
    config_fingerprint: str
    models: list
    n_seeds: int
    offsets: tuple
    ces: dict          # (model, seed, offset) -> joint CE
    means: dict        # model -> {offset: mean}
    sems: dict         # model -> {offset: sem}


def _drift_seed(cfg, seed_idx, models):
    """Train each model on one seed's data and score it on every offset day.
    Returns ((model, seed, offset) -> joint CE, log lines)."""
    train_ds, _ = _seed_datasets(cfg, seed_idx)
    _, _, _, eval_seed = _seed_bundle(cfg.base_seed, seed_idx)
    eval_days = {
        offset: fd.generate_day(cfg.funnel, cfg.train_days - 1 + offset,
                                cfg.n_eval, eval_seed)
        for offset in DRIFT_OFFSETS
    }
    guard_eval = eval_days[DRIFT_OFFSETS[0]]
    ces, lines = {}, []
    for model_name in models:
        try:
            model, history = _train_one(cfg, model_name, seed_idx, train_ds, guard_eval)
            for offset, ds in eval_days.items():
                if ds is guard_eval and history.eval_metrics:
                    ce = history.eval_metrics[-1].joint_ce
                else:
                    ce = tr.evaluate(model, ds).joint_ce
                ces[(model_name, seed_idx, offset)] = ce
        except Exception as exc:  # noqa: BLE001 - every offset needs every run
            raise RunFailed(f"{model_name} seed {seed_idx}: "
                            f"{type(exc).__name__}: {exc}") from exc
        lines.append(f"seed {seed_idx} {model_name}: "
                     + " ".join(f"n{o}={ces[(model_name, seed_idx, o)]:.5f}"
                                for o in DRIFT_OFFSETS))
    return ces, lines


def run_drift(cfg, models=("IP", "ESMM"), log=None):
    """Train once per (model, seed), then evaluate on each offset day.

    Offset n means the n-th day after the end of training; the ablation's
    standard eval day is offset 1, so decay is measured at offsets 2..6.
    Training evaluates on the offset-2 day after its last epoch, so that
    score is reused rather than computed twice. A run that fails raises
    ``RunFailed`` naming its model and seed: the per-offset means need
    every run.
    """
    needed = cfg.train_days + DRIFT_OFFSETS[-1]
    if cfg.funnel.n_days < needed:
        raise ValueError(
            f"drift needs funnel.n_days >= {needed}, got {cfg.funnel.n_days}")
    log = log or (lambda msg: None)
    models = list(models)
    ces = {}
    for seed_ces, lines in _map_seeds(_drift_seed, cfg, models):
        ces.update(seed_ces)
        for line in lines:
            log(line)
    means, sems = {}, {}
    for name in models:
        means[name], sems[name] = {}, {}
        for offset in DRIFT_OFFSETS:
            vals = np.array([ces[(name, s, offset)] for s in range(cfg.n_seeds)])
            means[name][offset] = float(vals.mean())
            sems[name][offset] = float(vals.std(ddof=1) / np.sqrt(len(vals)))
    return DriftReport(cfg.funnel.fingerprint(), models, cfg.n_seeds,
                       DRIFT_OFFSETS, ces, means, sems)


def emit_drift_report(report, out_dir):
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs_path = out / "drift_runs.csv"
    lines = [f"# funnel_config_fingerprint = {report.config_fingerprint}",
             "model,seed,offset,joint_ce"]
    for name in report.models:
        for seed in range(report.n_seeds):
            for offset in report.offsets:
                lines.append(f"{name},{seed},{offset},"
                             f"{repr(report.ces[(name, seed, offset)])}")
    runs_path.write_text("\n".join(lines) + "\n")

    stats_path = out / "drift_stats.csv"
    mean_cols = [f"mean_ce_n{o}" for o in report.offsets]
    sem_cols = [f"sem_n{o}" for o in report.offsets]
    lines = [f"# funnel_config_fingerprint = {report.config_fingerprint}",
             "model," + ",".join(mean_cols + sem_cols)]
    for name in report.models:
        row = [name]
        row += [repr(report.means[name][o]) for o in report.offsets]
        row += [repr(report.sems[name][o]) for o in report.offsets]
        lines.append(",".join(row))
    stats_path.write_text("\n".join(lines) + "\n")
    return [str(runs_path), str(stats_path)]


def _fault_node(root):
    """Identity whose recorded local gradient is deliberately wrong (x2);
    fault-injection hook proving the checker catches corrupted gradients."""
    def backward_fn(out_grad):
        ad._accumulate(root, 2.0 * out_grad)

    return root.tape._record(root.value, (root,), "fault", backward_fn)


def run_gradcheck(cfg, n_examples=12, corrupt=False, log=None):
    """Finite-difference gradient suite over all six built designs.

    Uses a small batch from the configured funnel and the full per-design
    training loss. Returns {model: {passed, max_rel_err, max_abs_err}} plus
    an overall flag.
    """
    log = log or (lambda msg: None)
    ds = fd.generate_day(cfg.funnel, 0, n_examples, seed=1234)
    # A mixed batch: force a few clicks/conversions so every loss path is hit.
    click = ds.click.copy()
    conversion = ds.conversion.copy()
    click[:3] = 1
    conversion[0] = 1
    weight = ds.weight.copy()
    weight[1] = 3.0
    batch = fd.Dataset(ds.dense, ds.cats, click, conversion, weight, ds.day,
                       ds.config_fingerprint, "gradcheck batch")
    rows = np.arange(n_examples)
    results = {}
    all_ok = True
    for name in md.MODEL_NAMES:
        model = md.build(name, cfg.net, seed=zlib.crc32(name.encode()) % 2 ** 31)
        # Jitter to a generic point: zero-init biases can park relu
        # pre-activations exactly on the kink, where central differences
        # straddle the nondifferentiable point.
        jitter = np.random.default_rng(zlib.crc32(name.encode()) + 1)
        for param in model.parameters():
            param.value += jitter.uniform(-0.2, 0.2, param.value.shape)

        def loss_fn(model=model):
            loss, _, _ = tr.batch_loss(model, ad.Tape(), batch, rows)
            return _fault_node(loss) if corrupt else loss

        res = ad.gradient_check(loss_fn, model.parameters(),
                                max_coords_per_param=4,
                                rng=np.random.default_rng(99))
        results[name] = res
        all_ok = all_ok and res["passed"]
        log(f"{name}: passed={res['passed']} max_rel_err={res['max_rel_err']:.3e} "
            f"max_abs_err={res['max_abs_err']:.3e}")
    return {"models": results, "passed": all_ok}


def run_selftest(log=None):
    """Quick oracle identities: loss values, PR-AUC vs brute force,
    downsampling calibration, sigmoid stability, and a tiny gradient check."""
    log = log or print
    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        log(f"[{'PASS' if ok else 'FAIL'}] {name}")

    tape = ad.Tape()
    pred = tape.constant(np.asarray(0.5))
    loss = ad.weighted_bce(pred, np.asarray(1.0), np.asarray(1.0))
    check("bce(0.5, 1, 1) = ln 2",
          abs(float(loss.value) - float(np.log(2.0))) < 1e-12)

    tape = ad.Tape()
    big = ad.sigmoid(tape.constant(np.asarray(1000.0)))
    check("sigmoid(1000) stays below 1", 0.0 < float(big.value) < 1.0)

    rng = np.random.default_rng(5)
    ok = True
    for _ in range(50):
        n = int(rng.integers(5, 60))
        preds = rng.random(n)
        labels = (rng.random(n) < 0.4).astype(float)
        if labels.sum() in (0, n):
            continue
        weights = rng.uniform(0.5, 2.0, n)
        fast = metrics.pr_auc(preds, labels, weights)
        brute = brute_force_pr_auc(preds, labels, weights)
        ok = ok and abs(fast - brute) <= 1e-9
    check("pr_auc equals brute-force enumeration", ok)

    cfg = fd.make_funnel_config(dense_dim=4, n_categorical=1, vocab_size=10,
                                n_days=2, seed=3)
    ds = fd.generate_day(cfg, 0, 20_000, seed=11)
    down = fd.downsample_negatives(ds, 10.0, seed=12)
    kept_neg_weight = down.weight[down.click == 0].sum()
    true_neg = (ds.click == 0).sum()
    check("downsampling preserves weighted negative count within 3 SE",
          abs(kept_neg_weight - true_neg) < 3 * 10 * np.sqrt(true_neg * 0.1 * 0.9))

    small = config_from_dict({
        "funnel": {"dense_dim": 3, "n_categorical": 1, "vocab_size": 5,
                   "n_days": 2, "seed": 1},
        "net": {"embedding_dim": 2, "shared_layer_dims": [4, 3],
                "head_layer_dims": [3, 2]},
        "n_seeds": 2, "n_train_per_day": 100, "n_eval": 50, "train_days": 1})
    grad = run_gradcheck(small, n_examples=6)
    check("gradient check over all six designs", grad["passed"])

    return all(ok for _, ok in checks)


def _load_config(args):
    """CLI flags override the config file, which overrides DEFAULT_CONFIG.

    Returns (config, models_were_explicit) so subcommands with their own
    model defaults (drift) can tell a deliberate selection from fallback.
    """
    raw = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            raw = json.load(fh)
    if getattr(args, "seeds", None) is not None:
        raw["n_seeds"] = args.seeds
    if getattr(args, "models", None):
        raw["models"] = [m.strip() for m in args.models.split(",") if m.strip()]
    if getattr(args, "out", None):
        raw["out_dir"] = args.out
    if getattr(args, "downsample_factor", None) is not None:
        raw["downsample_factor"] = args.downsample_factor
    if getattr(args, "drift_rate", None) is not None:
        raw.setdefault("funnel", {})["drift_rate"] = args.drift_rate
    return config_from_dict(raw), "models" in raw


def _add_common_flags(parser):
    parser.add_argument("--config", help="JSON experiment config file")
    parser.add_argument("--seeds", type=int, help="number of paired seeds")
    parser.add_argument("--models", help="comma-separated model names")
    parser.add_argument("--out", help="output directory for reports")
    parser.add_argument("--downsample-factor", dest="downsample_factor", type=float,
                        help="negative downsampling factor f (upweights survivors by f)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="funnellab",
        description="Synthetic click/conversion funnel lab: multi-task model "
                    "ablations with paired seeds and significance tests.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_abl = sub.add_parser("ablation", help="run the multi-model ablation")
    _add_common_flags(p_abl)
    p_abl.add_argument("--format", default="both", choices=["csv", "json", "both"])

    p_drift = sub.add_parser(
        "drift", help="temporal decay over offset days 2..6 "
                      "(defaults to the IP vs ESMM comparison)")
    _add_common_flags(p_drift)
    p_drift.add_argument("--drift-rate", dest="drift_rate", type=float,
                         help="per-day generative weight drift magnitude")

    p_grad = sub.add_parser("gradcheck", help="finite-difference check, all six designs")
    _add_common_flags(p_grad)

    sub.add_parser("selftest", help="fast oracle self-tests")

    args = parser.parse_args(argv)

    if args.command == "selftest":
        return 0 if run_selftest() else 1

    try:
        cfg, models_explicit = _load_config(args)
        if args.command == "ablation":
            cfg.check_baseline()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2

    if args.command == "ablation":
        try:
            report = run_ablation(cfg, log=print)
        except RunFailed as exc:
            print(f"ablation run failed: {exc}", file=sys.stderr)
            return 1
        paths = emit_report(report, cfg.out_dir, fmt=args.format)
        for path in paths:
            print(f"wrote {path}")
        if report.stats is None:
            print(f"stats not computed: {report.stats_error}")
        else:
            for name in report.stats.models:
                print(f"{name}: norm_perf={report.stats.mean_norm_perf[name]:.4f} "
                      f"+- {report.stats.sem[name]:.4f} "
                      f"better_than={','.join(report.better_than[name]) or '-'}")
        return 1 if report.failed else 0

    if args.command == "drift":
        drift_models = cfg.models if models_explicit else ("IP", "ESMM")
        try:
            report = run_drift(cfg, models=drift_models, log=print)
        except RunFailed as exc:
            print(f"drift run failed: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return 2
        paths = emit_drift_report(report, cfg.out_dir)
        for path in paths:
            print(f"wrote {path}")
        return 0

    if args.command == "gradcheck":
        result = run_gradcheck(cfg, log=print)
        print(f"gradient check {'passed' if result['passed'] else 'FAILED'}")
        return 0 if result["passed"] else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
