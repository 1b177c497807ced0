import gc

import pytest

import tracer
from tracer import Tracer, self_times, step_intervals, summarize


def span(name, start, end, parent):
    return [name, start, end, parent]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.5, 1),
        span("b", 5.0, 9.0, 0),
        span("b.child", 5.0, 6.0, 3),
        span("b.child", 7.0, 8.0, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 2.0, 1.0, 1.0])
    stats = summarize(spans)
    assert stats["b.child"] == {"calls": 2, "total_s": pytest.approx(2.0),
                                "self_s": pytest.approx(2.0)}
    assert stats["root"]["total_s"] == pytest.approx(10.0)
    assert stats["root"]["self_s"] == pytest.approx(3.0)
    # Self times partition the root interval.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_step_intervals_skip_evaluation_and_other_train_calls():
    spans = [
        span("training.train", 0.0, 20.0, -1),
        span("autodiff.adam_step", 1.0, 2.0, 0),
        span("autodiff.adam_step", 3.0, 5.0, 0),
        span("training.evaluate", 5.0, 8.0, 0),
        span("autodiff.adam_step", 9.0, 10.0, 0),
        span("autodiff.adam_step", 11.0, 11.5, 0),
        span("training.train", 30.0, 40.0, -1),
        span("autodiff.adam_step", 31.0, 32.0, 6),
        span("autodiff.adam_step", 33.0, 35.0, 6),
    ]
    assert step_intervals(spans) == pytest.approx([3.0, 1.5, 3.0])


def test_percentile_interpolates():
    assert tracer.percentile([], 50) == 0.0
    assert tracer.percentile([4.0, 1.0, 3.0, 2.0], 50) == pytest.approx(2.5)
    assert tracer.percentile(list(range(101)), 99) == pytest.approx(99.0)


def _originals():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracer._targets()]


TINY = {
    "funnel": {"dense_dim": 3, "n_categorical": 1, "vocab_size": 5, "n_days": 3, "seed": 1},
    "net": {"embedding_dim": 2, "shared_layer_dims": [4, 3], "head_layer_dims": [3, 2]},
    "models": ["IP", "ESMM"],
    "n_seeds": 2, "train_days": 1, "n_train_per_day": 4000, "n_eval": 4000,
    "train": {"epochs": 1, "batch_size": 64},
}


def test_traced_run_records_layers_and_restores_wrappers(tmp_path):
    from funnellab import autodiff as ad
    from funnellab import cli

    before = _originals()
    original_backward = ad.Tape.__dict__["backward"]
    callbacks_before = list(gc.callbacks)
    t = Tracer()
    with t:
        assert ad.Tape.__dict__["backward"] is not original_backward
        with t.span(tracer.TOP_SPAN):
            cfg = cli.config_from_dict(TINY)
            report = cli.run_ablation(cfg)
            cli.emit_report(report, tmp_path)
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
    assert gc.callbacks == callbacks_before

    m = tracer.layer_metrics(t)
    assert m["autodiff.backward_calls"][0] == m["training.steps"][0] > 0
    assert m["training.evaluate_calls"][0] == 4
    assert m["funnel.generate_day_rows"][0] == 2 * (4000 + 4000)
    assert m["models.predict_rows"][0] == 8 * 4000
    assert m["autodiff.nodes_per_backward"][0] > 0
    assert m["autodiff.dense.fwd_gflop"][0] > 0
    assert m["cli.extras_predict_rows"][0] == 4 * 4000
    assert m["metrics.compare_models_calls"][0] == 1
    assert 0.0 <= m["trace.unattributed_share"][0] < 0.5
    n_spans = len(t.spans)

    # Once uninstalled, further calls record nothing.
    cli.run_ablation(cfg)
    assert len(t.spans) == n_spans


def test_install_twice_is_refused():
    t = Tracer()
    with t:
        with pytest.raises(RuntimeError):
            t.install()
