"""One benchmark repetition, run in a fresh process by ``run.py``.

    python3 perfbench/worker.py --kind ablation --config CONFIG.json --out DIR [--trace]

Times ``import funnellab`` plus ``cli.config_from_dict`` (set-up), then the
run through the written report (wall time), and reads the process's peak
resident memory. Everything else (the Bayes reference, correctness data, the
environment) is computed after the timed region. Prints one JSON line.
"""

import argparse
import contextlib
import json
import os
import pathlib
import platform
import resource
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(cli, kind, cfg, out_dir):
    """Run and emit one workload; returns (report or None, attempted, failed)."""
    attempted = len(cfg.models) * cfg.n_seeds
    try:
        if kind == "ablation":
            report = cli.run_ablation(cfg)
            cli.emit_report(report, out_dir, fmt="both")
            return report, attempted, len(report.errors)
        report = cli.run_drift(cfg, models=cfg.models)
        cli.emit_drift_report(report, out_dir)
        return report, attempted, 0
    except Exception:  # noqa: BLE001 - a failed workload is counted, not fatal
        traceback.print_exc()
        return None, attempted, attempted


def _joint_ce_over_bayes(cli, kind, cfg, report):
    """Mean over runs of joint cross-entropy / Bayes cross-entropy, each on
    the eval set that run was scored on."""
    from funnellab import funnel as fd

    truth = fd.GroundTruth(cfg.funnel)
    ratios = []
    for seed_idx in range(cfg.n_seeds):
        eval_seed = cli._seed_bundle(cfg.base_seed, seed_idx)[3]
        if kind == "ablation":
            eval_ds = fd.generate_day(cfg.funnel, cfg.eval_day, cfg.n_eval, eval_seed)
            bayes = fd.bayes_ce(truth, eval_ds)
            ratios += [report.records[(m, seed_idx)].joint_ce / bayes
                       for m in cfg.models if report.records[(m, seed_idx)] is not None]
            continue
        for offset in report.offsets:
            eval_ds = fd.generate_day(cfg.funnel, cfg.train_days - 1 + offset,
                                      cfg.n_eval, eval_seed)
            bayes = fd.bayes_ce(truth, eval_ds)
            ratios += [report.ces[(m, seed_idx, offset)] / bayes for m in report.models]
    return sum(ratios) / len(ratios)


def _environment(cfg):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "funnel_fingerprint": cfg.funnel.fingerprint(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", required=True, choices=["ablation", "drift"])
    parser.add_argument("--config", required=True, help="experiment config JSON file")
    parser.add_argument("--out", required=True, help="report directory")
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    args = parser.parse_args(argv)
    raw = json.loads(pathlib.Path(args.config).read_text())

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from funnellab import cli

    tracer = None
    if args.trace:
        from tracer import TOP_SPAN, Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
    try:
        cfg = cli.config_from_dict(raw)
        setup_s = time.perf_counter() - start
        with tracer.span(TOP_SPAN) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            report, attempted, failed = _run(cli, args.kind, cfg, args.out)
            wall_s = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "joint_ce_over_bayes": (None if report is None
                                else _joint_ce_over_bayes(cli, args.kind, cfg, report)),
        "essp_rates": {},
        "env": _environment(cfg),
        "layers": layer_metrics(tracer) if tracer else None,
    }
    if args.kind == "ablation" and report is not None:
        result["essp_rates"] = {
            model: [rec.essp_violation_rate for (m, _), rec in sorted(report.records.items())
                    if m == model and rec is not None and rec.essp_violation_rate is not None]
            for model in cfg.models}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
