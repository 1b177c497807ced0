"""funnellab benchmark: measure one workload for a fixed time.

    python3 perfbench/run.py --workload ablation --seed 1 --seconds 30 --trace 0

Run from the repository root. Every repetition runs in a fresh worker
process (``worker.py``), so set-up time includes the import and peak memory
is that process's own high-water mark. Repetitions repeat until the next one
would overrun ``--seconds``, and each end-to-end metric is the median over
them. ``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics, with the tracing overhead between the two.

Prints one line per metric with its unit, an ``# env`` line, and as the last
line one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Exit codes: 0 result printed and correct; 1 a correctness check or a worker
failed; 2 bad arguments or no program to measure.
"""

import argparse
import compileall
import hashlib
import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

import gate
from workloads import WORKLOADS, config_hash, workload_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKER = pathlib.Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".perfbench_work"

# Every worker does its BLAS on one thread, whatever the core count, so the
# parent and a change are measured with the same thread count.
BLAS_THREADS = 1
MIN_REPETITIONS = 3
# Wall-clock budget of one invocation, below the 180 s it must finish in.
DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("joint_ce_over_bayes", "ratio"))


class WorkerFailed(Exception):
    pass


def _worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _read_report(out_dir):
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def _run_worker(kind, config_path, out_dir, traced, deadline):
    cmd = [sys.executable, str(WORKER), "--kind", kind, "--config", str(config_path),
           "--out", str(out_dir)] + (["--trace"] if traced else [])
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    result["traced"] = traced
    result["report"] = _read_report(out_dir)
    return result


def measure(kind, config_path, work_dir, seconds, trace, deadline):
    """Repeat worker runs until the next round would overrun ``seconds``."""
    plan = (False, True) if trace else (False,)
    min_rounds = 1 if trace else MIN_REPETITIONS
    results, round_s = [], []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for traced in plan:
            out_dir = work_dir / f"rep{len(results)}"
            results.append(_run_worker(kind, config_path, out_dir, traced, deadline))
        now = time.monotonic()
        round_s.append(now - round_start)
        expected = statistics.median(round_s)
        if now + expected > deadline:
            break
        if len(round_s) >= min_rounds and now - start + expected > seconds:
            break
    return results


def check(results):
    """Every correctness problem across the repetitions of one workload."""
    first = results[0]["report"]
    problems = gate.empty_report(first) + gate.nonfinite_report_numbers(first)
    for result in results[1:]:
        problems += gate.report_differences(first, result["report"])
    for result in results:
        problems += gate.essp_violations(result["essp_rates"])
    return list(dict.fromkeys(problems))


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _source_hash():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _median(values):
    return float(statistics.median(values))


def _range_note(values):
    return f"median of {len(values)}, range {min(values):.4g}..{max(values):.4g}"


def summarize(results, trace):
    """(metrics, notes): metric name -> {"value", "unit"}, and one note each."""
    untraced = [r for r in results if not r["traced"]]
    metrics, notes = {}, {}
    if not trace:
        for name, unit in END_TO_END:
            values = [r[name] for r in untraced if r[name] is not None] or [math.nan]
            metrics[name] = {"value": _median(values), "unit": unit}
            notes[name] = _range_note(values)
        return metrics, notes
    traced = [r for r in results if r["traced"]]
    for name, (_, unit) in traced[0]["layers"].items():
        values = [r["layers"][name][0] for r in traced]
        metrics[name] = {"value": _median(values), "unit": unit}
        notes[name] = _range_note(values)
    wall_traced = _median([r["wall_s"] for r in traced])
    wall_untraced = _median([r["wall_s"] for r in untraced])
    metrics["trace.overhead_share"] = {"value": wall_traced / wall_untraced - 1.0,
                                       "unit": "share"}
    notes["trace.overhead_share"] = (f"traced wall_s {wall_traced:.4g} s over "
                                     f"untraced {wall_untraced:.4g} s")
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help=", ".join(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # SystemExit on SIGTERM lets subprocess.run kill and reap the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "funnellab" / "__init__.py").is_file():
        print(f"no funnellab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        raw = workload_config(args.workload, args.seed)
    except (KeyError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    work_dir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(raw, indent=2, sort_keys=True))
    try:
        results = measure(WORKLOADS[args.workload]["kind"], config_path, work_dir,
                          args.seconds, bool(args.trace), deadline)
    except WorkerFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    metrics, notes = summarize(results, bool(args.trace))
    problems = check(results)
    problems += gate.nonfinite_metrics({k: v["value"] for k, v in metrics.items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    env = {**results[0]["env"], "workload": args.workload, "seed": args.seed,
           "workload_config_hash": config_hash(raw), "git_commit": _git_commit(),
           "source_hash": _source_hash(), "repetitions": len(results)}
    for name, metric in metrics.items():
        print(f"{args.workload:>13} {name:<40} {metric['value']:>14.6g} "
              f"{metric['unit']:<6} ({notes[name]})")
    print(f"{args.workload:>13} {'failed_run_share':<40} {failed / attempted:>14.6g} "
          f"{'share':<6} ({failed} of {attempted} (model, seed) runs)")
    for problem in problems:
        print(f"CORRECTNESS: {problem}", file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
