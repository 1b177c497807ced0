"""Span tracer that wraps funnellab's public functions from outside.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span ``[name, start, end, parent_index]``; ``uninstall`` puts
every original object back. Nothing under ``src/`` is edited. Spans stay in
memory and are summarised after the run by ``layer_metrics``.

Every traced layer runs on one thread, so child spans of one parent never
overlap, and a span's self time is its duration minus the sum of its direct
children's durations. No layer has a queue, so there is no waiting time to
record.
"""

import contextlib
import functools
import gc
import time
from collections import Counter

# Tape ops whose forward calls are traced (span ``autodiff.<op>``).
FORWARD_OPS = ("dense", "embed", "concat", "relu", "sigmoid", "bce",
               "mul", "add", "scale", "reshape")

# Node ``op`` labels counted on each tape that is differentiated.
NODE_OPS = ("const", "param", "embed", "concat", "dense", "relu", "reshape",
            "sigmoid", "mul", "add", "scale", "weighted_bce")

TOP_SPAN = "bench.wall"
RUN_SPAN = "cli.run"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_generated_rows(counts, parent, args, kwargs):
    counts["funnel.generate_day_rows"] += int(_arg(args, kwargs, 2, "n"))


def _count_dense_flop(counts, parent, args, kwargs):
    layer, x = _arg(args, kwargs, 0, "layer"), _arg(args, kwargs, 1, "x")
    rows = x.value.shape[0] if x.value.ndim == 2 else 1
    counts["autodiff.dense.flop"] += 2 * rows * layer.in_dim * layer.out_dim


def _count_backward_nodes(counts, parent, args, kwargs):
    tape, root = args[0], _arg(args, kwargs, 1, "root")
    for node in tape.nodes[: root.index + 1]:
        counts["autodiff.nodes." + node.op] += 1


def _count_predicted_rows(counts, parent, args, kwargs):
    rows = len(_arg(args, kwargs, 1, "ds"))
    counts["models.predict_rows"] += rows
    if parent == RUN_SPAN:
        # The second prediction run_ablation makes after each training run.
        counts["cli.extras_predict_rows"] += rows


def _targets():
    """(owner, attribute, span name, counter) for every traced callable."""
    from funnellab import autodiff as ad
    from funnellab import cli
    from funnellab import funnel as fd
    from funnellab import metrics as mt
    from funnellab import models as md
    from funnellab import training as tr

    return [
        (fd, "make_funnel_config", "funnel.make_config", None),
        (fd, "generate_day", "funnel.generate_day", _count_generated_rows),
        (fd, "downsample_negatives", "funnel.downsample", None),
        (fd.Dataset, "concat", "funnel.concat", None),
        (fd, "shuffle", "funnel.shuffle", None),
        (ad, "dense_forward", "autodiff.dense", _count_dense_flop),
        (ad.EmbeddingTable, "lookup", "autodiff.embed", None),
        (ad, "concat", "autodiff.concat", None),
        (ad, "relu", "autodiff.relu", None),
        (ad, "sigmoid", "autodiff.sigmoid", None),
        (ad, "weighted_bce", "autodiff.bce", None),
        (ad, "multiply", "autodiff.mul", None),
        (ad, "add", "autodiff.add", None),
        (ad, "scale", "autodiff.scale", None),
        (ad, "reshape", "autodiff.reshape", None),
        (ad.Tape, "backward", "autodiff.backward", _count_backward_nodes),
        (ad.Adam, "step", "autodiff.adam_step", None),
        (md, "build", "models.build", None),
        (md.Model, "forward_heads", "models.forward_heads", None),
        (md.Model, "predict_dataset", "models.predict_dataset", _count_predicted_rows),
        (tr, "train", "training.train", None),
        (tr, "evaluate", "training.evaluate", None),
        (mt, "pr_auc", "metrics.pr_auc", None),
        (mt, "weighted_ce", "metrics.weighted_ce", None),
        (mt, "calibration_ratio", "metrics.calibration_ratio", None),
        (mt, "compare_models", "metrics.compare_models", None),
        (cli, "config_from_dict", "cli.config_from_dict", None),
        (cli, "run_ablation", RUN_SPAN, None),
        (cli, "run_drift", RUN_SPAN, None),
        (cli, "emit_report", "cli.emit_report", None),
        (cli, "emit_drift_report", "cli.emit_report", None),
    ]


class Tracer:
    """Records spans and counts at funnellab's public layer boundaries."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.gc_pause_s = 0.0
        self._stack = []
        self._patches = []
        self._gc_started = None
        self._gc_stats_before = None

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, count in _targets():
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))
        self._gc_stats_before = gc.get_stats()
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        """Restore every wrapped object and stop listening to the collector."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
            after = gc.get_stats()
            self.counts["python.gc_gen2_collections"] += (
                after[2]["collections"] - self._gc_stats_before[2]["collections"])
            self.counts["python.gc_collected"] += sum(
                a["collected"] - b["collected"]
                for a, b in zip(after, self._gc_stats_before))

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self._gc_started = None

    def _open(self, name):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, original, name, count):
        if isinstance(original, staticmethod):
            return staticmethod(self._wrap(original.__func__, name, count))
        counts, spans, stack = self.counts, self.spans, self._stack
        open_span, close_span = self._open, self._close

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(counts, spans[stack[-1]][0] if stack else None, args, kwargs)
            record = open_span(name)
            try:
                return original(*args, **kwargs)
            finally:
                close_span(record)

        return wrapper


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans):
    """name -> {"calls", "total_s", "self_s"} over all spans of that name."""
    out = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
    return out


def step_intervals(spans, train="training.train", step="autodiff.adam_step",
                   evaluation="training.evaluate"):
    """Seconds between consecutive optimizer steps inside one train call.

    Intervals that contain an evaluation are left out, as is the time before
    the first step of each train call.
    """
    last_end = {}
    out = []
    for name, _, end, parent in spans:
        if parent < 0 or spans[parent][0] != train:
            continue
        if name == evaluation:
            last_end[parent] = None
        elif name == step:
            if last_end.get(parent) is not None:
                out.append(end - last_end[parent])
            last_end[parent] = end
    return out


def percentile(values, q):
    """Linear-interpolated q-th percentile (0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(tracer):
    """Per-layer metrics of one traced run, as name -> (value, unit).

    ``*.self_s`` and the leaf layers' ``*_s`` are self times. Two names are
    totals over their children, because the work under them is what moves:
    ``models.predict_dataset_s`` and ``training.evaluate_s``. Layers that a
    workload never calls get counts rather than times, so that no time metric
    is zero by construction: ``metrics.compare_models_calls`` and
    ``cli.extras_predict_rows`` are 0 on drift.
    """
    spans = tracer.spans
    stats = summarize(spans)
    counts = tracer.counts

    def self_s(name):
        return stats.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return stats.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    m = {}
    for short, name in (("make_config", "funnel.make_config"),
                        ("generate_day", "funnel.generate_day"),
                        ("downsample", "funnel.downsample"),
                        ("concat", "funnel.concat"),
                        ("shuffle", "funnel.shuffle")):
        m[f"funnel.{short}_s"] = (self_s(name), "s")
    m["funnel.generate_day_rows"] = (counts["funnel.generate_day_rows"], "count")

    for op in FORWARD_OPS:
        m[f"autodiff.{op}.fwd_s"] = (self_s(f"autodiff.{op}"), "s")
        m[f"autodiff.{op}.calls"] = (calls(f"autodiff.{op}"), "count")
    m["autodiff.dense.fwd_gflop"] = (counts["autodiff.dense.flop"] / 1e9, "GFLOP")
    backward_calls = calls("autodiff.backward")
    m["autodiff.backward_s"] = (self_s("autodiff.backward"), "s")
    m["autodiff.backward_calls"] = (backward_calls, "count")
    per_op = {op: counts["autodiff.nodes." + op] for op in NODE_OPS}
    m["autodiff.nodes_per_backward"] = (
        sum(per_op.values()) / backward_calls if backward_calls else 0.0, "count")
    for op, n in per_op.items():
        m[f"autodiff.nodes_per_backward.{op}"] = (
            n / backward_calls if backward_calls else 0.0, "count")
    m["autodiff.adam_step_s"] = (self_s("autodiff.adam_step"), "s")

    m["models.build_s"] = (self_s("models.build"), "s")
    m["models.forward_heads.self_s"] = (self_s("models.forward_heads"), "s")
    m["models.predict_dataset_s"] = (total_s("models.predict_dataset"), "s")
    m["models.predict_rows"] = (counts["models.predict_rows"], "count")

    steps_ms = [1e3 * v for v in step_intervals(spans)]
    m["training.train.self_s"] = (self_s("training.train"), "s")
    m["training.steps"] = (calls("autodiff.adam_step"), "count")
    m["training.step_ms.p50"] = (percentile(steps_ms, 50), "ms")
    m["training.step_ms.p99"] = (percentile(steps_ms, 99), "ms")
    m["training.evaluate_s"] = (total_s("training.evaluate"), "s")
    m["training.evaluate_calls"] = (calls("training.evaluate"), "count")

    for short in ("pr_auc", "weighted_ce", "calibration_ratio"):
        m[f"metrics.{short}_s"] = (self_s(f"metrics.{short}"), "s")
    m["metrics.compare_models_calls"] = (calls("metrics.compare_models"), "count")

    m["cli.run.self_s"] = (self_s(RUN_SPAN), "s")
    m["cli.extras_predict_rows"] = (counts["cli.extras_predict_rows"], "count")
    m["cli.emit_report_s"] = (self_s("cli.emit_report"), "s")

    m["python.gc_pause_s"] = (tracer.gc_pause_s, "s")
    m["python.gc_gen2_collections"] = (counts["python.gc_gen2_collections"], "count")
    m["python.gc_collected"] = (counts["python.gc_collected"], "count")

    top = total_s(TOP_SPAN)
    m["trace.unattributed_share"] = (self_s(TOP_SPAN) / top if top else 0.0, "share")
    return m
