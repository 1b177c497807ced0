"""Experiment harness: six-model ablation, temporal-drift decay and a
gradient check, behind a ``funnellab`` command line.

Runs are paired by seed: every model trains on byte-identical datasets for a
given seed, which removes dataset noise from the comparison. At one BLAS
thread count, reports are pure functions of the experiment config: reruns,
pooled (``_map_seeds`` forks workers when BLAS leaves cores idle) or
serial, give byte-identical CSV output. Another count can change last bits.

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

DRIFT_OFFSETS = (2, 3, 4, 5, 6)
DRIFT_MODELS = ("IP", "ESMM")

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
        if not self.out_dir:
            raise ValueError("out_dir must be a nonempty path")
        repeated = sorted({name for name in self.models if self.models.count(name) > 1})
        if repeated:
            raise ValueError(f"models must be distinct; repeated: {repeated}")
        if not self.downsample_factor >= 1:  # NaN fails too
            raise ValueError("downsample_factor must be >= 1")
        if self.downsample_factor == np.inf:
            raise ValueError("downsample_factor must be finite")
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

    @property
    def eval_day(self):
        return self.train_days

    def train_config_for(self, model_name):
        overrides = self.train_overrides.get(model_name)
        return replace(self.train, **overrides) if overrides else self.train


def _did_you_mean(key, valid):
    near = difflib.get_close_matches(str(key), list(valid), n=1)
    return f"did you mean {near[0]!r}?" if near else f"valid: {sorted(valid)}"


def _check_object(where, given):
    if not isinstance(given, dict):
        raise ValueError(f"{where} must be an object, got {given!r}")


def _check_keys(where, given, defaults):
    """Reject a non-object, keys outside ``defaults`` (with a hint), and a
    value of another kind than its default (see ``_check_kind``)."""
    _check_object(where, given)
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
    merged = {**DEFAULT_CONFIG, **raw}
    for section in ("funnel", "net", "train"):
        _check_keys(section, raw.get(section, {}), DEFAULT_CONFIG[section])
        merged[section] = {**DEFAULT_CONFIG[section], **raw.get(section, {})}
    models = merged["models"]
    if not (isinstance(models, list) and all(isinstance(m, str) for m in models)):
        raise ValueError(f"models must be a list of names, got {models!r}")
    funnel_cfg = fd.make_funnel_config(**merged["funnel"])
    merged.update(
        funnel=funnel_cfg,
        net=md.NetworkConfig(dense_input_dim=funnel_cfg.dense_dim,
                             n_categorical=funnel_cfg.n_categorical,
                             vocab_size=funnel_cfg.vocab_size, **merged["net"]),
        train=tr.TrainConfig(**merged["train"]),
        models=list(models), downsample_factor=float(merged["downsample_factor"]))
    return ExperimentConfig(**merged)


def _seed_bundle(base_seed, seed_idx):
    """Four stream seeds (train data, downsample, shuffle, eval) per run seed."""
    state = np.random.SeedSequence([base_seed, seed_idx]).generate_state(4)
    return tuple(int(v) for v in state)


def _model_init_seed(base_seed, seed_idx, model_name):
    tag = zlib.crc32(model_name.encode())
    return int(np.random.SeedSequence([base_seed, seed_idx, tag]).generate_state(1)[0])


def _train_dataset(cfg, seed_idx):
    """One seed's training days, negatives downsampled, then shuffled.

    Each day is downsampled as soon as it is drawn, so only one full day is
    held at a time. One generator carries the downsampling stream across the
    days, so the result equals downsampling their concatenation.
    """
    data_seed, down_seed, shuffle_seed, _ = _seed_bundle(cfg.base_seed, seed_idx)
    down_rng = np.random.default_rng(down_seed)
    days = [fd.downsample_negatives(
                fd.generate_day(cfg.funnel, day, cfg.n_train_per_day, data_seed),
                cfg.downsample_factor, down_rng)
            for day in range(cfg.train_days)]
    return fd.shuffle(fd.Dataset.concat(days), shuffle_seed)


def _seed_data(cfg, seed_idx, offsets):
    """One seed's training set, its full-space eval day at each offset (the
    ``offset``-th day after training; the ablation scores offset 1), and why
    the metrics cannot score the first day they cannot, or None: PR-AUC and
    the calibration ratio need a conversion and a non-conversion with
    positive weight."""
    train_ds = _train_dataset(cfg, seed_idx)
    eval_seed = _seed_bundle(cfg.base_seed, seed_idx)[3]
    eval_days = {offset: fd.generate_day(cfg.funnel, cfg.train_days - 1 + offset,
                                         cfg.n_eval, eval_seed)
                 for offset in offsets}
    for ds in eval_days.values():
        weighted, converted = ds.weight > 0, ds.conversion > 0
        if not ((weighted & converted).any() and (weighted & ~converted).any()):
            return train_ds, eval_days, (
                f"seed {seed_idx}: eval day {int(ds.day[0])} cannot be scored: it needs "
                "a conversion and a non-conversion with positive weight")
    return train_ds, eval_days, None


def _train_one(cfg, model_name, seed_idx, train_ds, eval_ds):
    model = md.build(model_name, cfg.net,
                     _model_init_seed(cfg.base_seed, seed_idx, model_name))
    run_cfg = replace(cfg.train_config_for(model_name), seed=seed_idx)
    return tr.train(model, train_ds, eval_ds, run_cfg)


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


def _map_seeds(fn, cfg):
    """``[fn(cfg, seed) for seed in range(cfg.n_seeds)]``, on a process
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
        return [fn(cfg, seed_idx) for seed_idx in range(cfg.n_seeds)]
    # Imported here: only a pooled run pays for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(fn, cfg, seed_idx) for seed_idx in range(cfg.n_seeds)]
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
    models: list
    n_seeds: int
    records: dict                     # (model, seed) -> MetricsRecord or None
    errors: dict                      # (model, seed) -> str
    stats: metrics.ComparisonStats    # None when stats_error says why
    extras: dict = field(default_factory=dict)  # (model, seed) -> diagnostics
    stats_error: str = None

    @property
    def failed(self):
        return bool(self.errors) or self.stats is None


def _ablation_seed(cfg, seed_idx):
    """Train every selected model on one seed's data; a failed run is
    recorded, not raised, and an eval day the metrics cannot score fails
    every run before any trains. Returns (records, errors, extras, log
    lines)."""
    records, errors, extras, lines = {}, {}, {}, []
    train_ds, eval_days, unscorable = _seed_data(cfg, seed_idx, (1,))
    eval_ds = eval_days[1]
    for model_name in cfg.models:
        try:
            if unscorable is not None:
                raise ValueError(unscorable)
            model, history = _train_one(cfg, model_name, seed_idx, train_ds, eval_ds)
            record = history.metrics
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
    # the comparison normalizes every design by the baseline's runs
    if cfg.baseline not in cfg.models:
        raise ValueError(f"baseline {cfg.baseline!r} must be among models {cfg.models}")
    log = log or (lambda msg: None)
    records, errors, extras = {}, {}, {}
    for seed_records, seed_errors, seed_extras, lines in _map_seeds(_ablation_seed, cfg):
        records.update(seed_records)
        errors.update(seed_errors)
        extras.update(seed_extras)
        for line in lines:
            log(line)
    ces = {name: {s: records[(name, s)].joint_ce for s in range(cfg.n_seeds)
                  if records[(name, s)] is not None}
           for name in cfg.models}
    report = AblationReport(
        config_fingerprint=cfg.funnel.fingerprint(), models=list(cfg.models),
        n_seeds=cfg.n_seeds, records=records, errors=errors, stats=None, extras=extras)
    if len(ces[cfg.baseline]) < 2:
        report.stats_error = (
            f"baseline {cfg.baseline} succeeded on {len(ces[cfg.baseline])} "
            f"of {cfg.n_seeds} seeds; normalized scores need at least 2")
        return report
    report.stats = metrics.compare_models(ces, cfg.baseline)
    return report


def _out_dir(out_dir, create=True):
    """The report directory as a Path, made with its parents; with ``create``
    false, only checked that its nearest existing ancestor is a writable one."""
    out = pathlib.Path(out_dir)
    try:
        if create:
            out.mkdir(parents=True, exist_ok=True)
        else:
            nearest = next(p for p in (out, *out.parents) if p.exists())
            if not (nearest.is_dir() and os.access(nearest, os.W_OK | os.X_OK)):
                raise OSError(f"{str(nearest)!r} is not a writable directory")
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir!r}: {exc}") from exc
    return out


RUN_COLUMNS = ("joint_ce", "joint_pr_auc", "calibration_ratio", "ctr_ce", "norm_perf")


def _fmt(value):
    return "" if value is None else repr(float(value))


def _write_csv(path, comments, header, rows):
    """Write ``# ``-prefixed comment lines, the column header (none when
    ``header`` is empty) and one line per row of cell strings; returns the
    path as a string."""
    lines = [f"# {line}" for line in comments]
    if header:
        lines.append(",".join(header))
    lines += [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def emit_report(report, out_dir, fmt="csv"):
    """Write the per-run table and the comparison stats in csv and/or json.

    CSV data columns: model, seed, joint_ce, joint_pr_auc, calibration_ratio,
    ctr_ce, norm_perf. Headers carry the score formula and the funnel config
    fingerprint so every emitted number is traceable and recomputable. The
    per-run rows are always written (a failed run's JSON row carries its
    error); when no stats could be computed, the stats output says why.
    """
    if fmt not in ("csv", "json", "both"):
        raise ValueError(f"format must be csv, json or both, got {fmt!r}")
    out = _out_dir(out_dir)
    written = []
    comments = [metrics.PERFORMANCE_FORMULA,
                f"funnel_config_fingerprint = {report.config_fingerprint}",
                f"models = {','.join(report.models)}; seeds = {report.n_seeds}"]
    stats = report.stats
    stat_models = stats.models if stats else []
    norm_scores = stats.norm_scores if stats else {}
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
                           norm_perf=norm_scores.get(name, {}).get(seed))
            rows.append(row)
    if fmt in ("csv", "both"):
        written.append(_write_csv(
            out / "ablation_runs.csv", comments, ["model", "seed", *RUN_COLUMNS],
            [[row["model"], str(row["seed"])] + [_fmt(row.get(col)) for col in RUN_COLUMNS]
             for row in rows]))
        if stats is None:
            stats_comments = [*comments, f"stats not computed: {report.stats_error}"]
            stats_header = []
        else:
            stats_comments = comments
            stats_header = ["model", "mean_norm_perf", "sem", "better_than",
                            *(f"p_vs_{m}" for m in stat_models)]
        stats_rows = []
        for name in stat_models:
            pvals = [("" if m == name else repr(stats.pvalues[(name, m)]))
                     for m in stat_models]
            stats_rows.append([name, repr(stats.mean_norm_perf[name]), repr(stats.sem[name]),
                               ";".join(stats.better_than[name]), *pvals])
        written.append(_write_csv(out / "ablation_stats.csv", stats_comments, stats_header,
                                  stats_rows))
    if fmt in ("json", "both"):
        json_path = out / "ablation_report.json"
        payload = {
            "formula": metrics.PERFORMANCE_FORMULA,
            "funnel_config_fingerprint": report.config_fingerprint,
            "models": report.models,
            "n_seeds": report.n_seeds,
            "runs": rows,
            "stats": {
                name: {"mean_norm_perf": stats.mean_norm_perf[name],
                       "sem": stats.sem[name],
                       "better_than": stats.better_than[name],
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


def _drift_seed(cfg, seed_idx):
    """Train each of ``cfg.models`` on one seed's data, score it on every offset
    day. Returns ((model, seed, offset) -> joint CE, log lines); an offset day
    the metrics cannot score raises ``RunFailed`` before any training."""
    train_ds, eval_days, unscorable = _seed_data(cfg, seed_idx, DRIFT_OFFSETS)
    if unscorable is not None:
        raise RunFailed(unscorable)
    guard_eval = eval_days[DRIFT_OFFSETS[0]]
    ces, lines = {}, []
    for model_name in cfg.models:
        try:
            model, history = _train_one(cfg, model_name, seed_idx, train_ds, guard_eval)
            for offset, ds in eval_days.items():
                record = history.metrics if ds is guard_eval else tr.evaluate(model, ds)
                ces[(model_name, seed_idx, offset)] = record.joint_ce
        except Exception as exc:  # noqa: BLE001 - every offset needs every run
            raise RunFailed(f"{model_name} seed {seed_idx}: "
                            f"{type(exc).__name__}: {exc}") from exc
        lines.append(f"seed {seed_idx} {model_name}: "
                     + " ".join(f"n{o}={ces[(model_name, seed_idx, o)]:.5f}"
                                for o in DRIFT_OFFSETS))
    return ces, lines


def run_drift(cfg, models=DRIFT_MODELS, log=None):
    """Train once per (model, seed), then evaluate on each offset day.

    Offset n means the n-th day after the end of training; the ablation's
    standard eval day is offset 1, so decay is measured at offsets 2..6.
    Training scores each model on the offset-2 day, and that score is
    reused. A run that fails raises ``RunFailed`` naming its model and
    seed: the per-offset means need every run. ``models`` is checked as the
    config's model list is, before any seed runs.
    """
    needed = cfg.train_days + DRIFT_OFFSETS[-1]
    if cfg.funnel.n_days < needed:
        raise ValueError(
            f"drift needs funnel.n_days >= {needed}, got {cfg.funnel.n_days}")
    cfg = replace(cfg, models=list(models))  # checks: nonempty, known, distinct
    log = log or (lambda msg: None)
    ces = {}
    for seed_ces, lines in _map_seeds(_drift_seed, cfg):
        ces.update(seed_ces)
        for line in lines:
            log(line)
    means, sems = {}, {}
    for name in cfg.models:
        means[name], sems[name] = {}, {}
        for offset in DRIFT_OFFSETS:
            vals = np.array([ces[(name, s, offset)] for s in range(cfg.n_seeds)])
            means[name][offset] = float(vals.mean())
            sems[name][offset] = float(vals.std(ddof=1) / np.sqrt(len(vals)))
    return DriftReport(cfg.funnel.fingerprint(), cfg.models, cfg.n_seeds,
                       DRIFT_OFFSETS, ces, means, sems)


def emit_drift_report(report, out_dir):
    out = _out_dir(out_dir)
    comments = [f"funnel_config_fingerprint = {report.config_fingerprint}"]
    offsets = report.offsets
    run_rows = [[name, str(seed), str(offset), repr(report.ces[(name, seed, offset)])]
                for name in report.models
                for seed in range(report.n_seeds)
                for offset in offsets]
    stats_rows = [[name, *(repr(report.means[name][o]) for o in offsets),
                   *(repr(report.sems[name][o]) for o in offsets)]
                  for name in report.models]
    return [
        _write_csv(out / "drift_runs.csv", comments,
                   ["model", "seed", "offset", "joint_ce"], run_rows),
        _write_csv(out / "drift_stats.csv", comments,
                   ["model", *(f"mean_ce_n{o}" for o in offsets),
                    *(f"sem_n{o}" for o in offsets)], stats_rows),
    ]


def run_gradcheck(cfg, log=None):
    """Finite-difference gradient suite over all six built designs.

    Uses a 12-example batch from the configured funnel and the full
    per-design training loss. Returns {model: {passed, max_rel_err,
    max_abs_err}} plus an overall flag.
    """
    log = log or (lambda msg: None)
    ds = fd.generate_day(cfg.funnel, 0, 12, seed=1234)
    # A mixed batch: force a few clicks/conversions so every loss path is hit.
    click = ds.click.copy()
    conversion = ds.conversion.copy()
    click[:3] = 1
    conversion[0] = 1
    weight = ds.weight.copy()
    weight[1] = 3.0
    batch = fd.Dataset(ds.dense, ds.cats, click, conversion, weight, ds.day,
                       ds.config_fingerprint)
    rows = np.arange(len(ds))
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
            return loss

        res = ad.gradient_check(loss_fn, model.parameters(),
                                max_coords_per_param=4,
                                rng=np.random.default_rng(99))
        results[name] = res
        all_ok = all_ok and res["passed"]
        log(f"{name}: passed={res['passed']} max_rel_err={res['max_rel_err']:.3e} "
            f"max_abs_err={res['max_abs_err']:.3e}")
    return {"models": results, "passed": all_ok}


def _load_config(args):
    """CLI flags override the config file, which overrides DEFAULT_CONFIG.

    Returns (config, models_were_explicit) so subcommands with their own
    model defaults (drift) can tell a deliberate selection from fallback.
    """
    raw = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            raw = json.load(fh)
    # the flags are laid over these two objects, so check them first
    _check_object("config", raw)
    _check_object("funnel", raw.get("funnel", {}))
    if getattr(args, "seeds", None) is not None:
        raw["n_seeds"] = args.seeds
    if getattr(args, "models", None) is not None:
        raw["models"] = [m.strip() for m in args.models.split(",") if m.strip()]
    if getattr(args, "out", None) is not None:
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
    p_grad.add_argument("--config", help="JSON experiment config file")

    args = parser.parse_args(argv)

    try:
        cfg, models_explicit = _load_config(args)
        if args.command != "gradcheck":
            _out_dir(cfg.out_dir, create=False)  # fail before training, not after
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2

    if args.command == "gradcheck":
        result = run_gradcheck(cfg, log=print)
        print(f"gradient check {'passed' if result['passed'] else 'FAILED'}")
        return 0 if result["passed"] else 1

    try:
        if args.command == "ablation":
            report = run_ablation(cfg, log=print)
        else:
            report = run_drift(cfg, models=cfg.models if models_explicit else DRIFT_MODELS,
                               log=print)
    except RunFailed as exc:
        print(f"{args.command} run failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    if args.command == "drift":
        for path in emit_drift_report(report, cfg.out_dir):
            print(f"wrote {path}")
        return 0
    for path in emit_report(report, cfg.out_dir, fmt=args.format):
        print(f"wrote {path}")
    if report.stats is None:
        print(f"stats not computed: {report.stats_error}")
    else:
        for name in report.stats.models:
            print(f"{name}: norm_perf={report.stats.mean_norm_perf[name]:.4f} "
                  f"+- {report.stats.sem[name]:.4f} "
                  f"better_than={','.join(report.stats.better_than[name]) or '-'}")
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
