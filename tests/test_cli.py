"""Harness contracts: paired-seed ablation, report emission and round-trip,
drift report shape, gradcheck wiring, CLI exit codes."""

import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from funnellab import autodiff as ad
from funnellab import cli, metrics
from funnellab import funnel as fd
from funnellab import models as md
from funnellab import training as tr

TINY = {
    "funnel": {"dense_dim": 4, "n_categorical": 1, "vocab_size": 6,
               "base_click_rate": 0.3, "base_conv_rate": 0.3,
               "dense_signal": 1.0, "cat_signal": 0.5, "n_days": 10, "seed": 2},
    "net": {"embedding_dim": 3, "shared_layer_dims": [8, 6],
            "head_layer_dims": [4, 4]},
    "train": {"learning_rate": 0.02, "batch_size": 256, "epochs": 1},
    "n_seeds": 2,
    "n_train_per_day": 800,
    "n_eval": 500,
    "train_days": 2,
    "downsample_factor": 2.0,
}


def tiny_config(**overrides):
    raw = json.loads(json.dumps(TINY))
    raw.update(overrides)
    return cli.config_from_dict(raw)


def _diverge(monkeypatch, model_name):
    """Train ``model_name`` under the train section with a learning rate of
    1e300, so its loss really turns non-finite; the other designs train as
    configured. Forked seed workers inherit the patch."""
    real = cli._train_one

    def train_one(cfg, name, seed_idx, train_ds, eval_ds):
        if name == model_name:
            cfg = replace(cfg, train=replace(cfg.train, learning_rate=1e300))
        return real(cfg, name, seed_idx, train_ds, eval_ds)

    monkeypatch.setattr(cli, "_train_one", train_one)


class TestExperimentConfig:
    def test_defaults_fill_in(self):
        cfg = tiny_config()
        assert cfg.baseline == "IP"
        assert cfg.eval_day == cfg.train_days

    def test_rejects_too_few_seeds(self):
        with pytest.raises(ValueError):
            tiny_config(n_seeds=1)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            tiny_config(models=["IP", "DeepFM"])

    @pytest.mark.parametrize("extra,match", [
        ({"n_train_per_day": -5}, "n_train_per_day and n_eval must be >= 1"),
        ({"n_eval": 0}, "n_train_per_day and n_eval must be >= 1"),
        ({"base_seed": -1}, "base_seed must be >= 0"),
        ({"out_dir": ""}, "out_dir must be a nonempty path"),
    ], ids=["negative-rows", "no-eval", "negative-seed", "empty-out-dir"])
    def test_rejects_out_of_range_sizes(self, extra, match):
        with pytest.raises(ValueError, match=match):
            tiny_config(**extra)

    def test_rejects_eval_day_beyond_horizon(self):
        with pytest.raises(ValueError):
            tiny_config(train_days=12)

    @pytest.mark.parametrize("extra,match", [
        ({"n_seed": 2}, "config: unknown keys \\['n_seed'\\]; did you mean 'n_seeds'"),
        ({"net": {"embeding_dim": 4}}, "net: unknown keys .*did you mean 'embedding_dim'"),
        ({"funnel": {"drift": 0.1}}, "funnel: unknown keys .*did you mean 'drift_rate'"),
        ({"train": {"seed": 3}}, "train: unknown keys \\['seed'\\]"),
        ({"train_overrides": {}},
         "config: unknown keys \\['train_overrides'\\]; did you mean 'train_days'"),
        ({"net": [4]}, "net must be an object"),
        ({"models": "IP"}, "models must be a list"),
        ({"n_seeds": 2.7}, "config: n_seeds must be an integer, got 2.7"),
        ({"n_train_per_day": "100"}, "config: n_train_per_day must be an integer, got '100'"),
        ({"n_eval": True}, "config: n_eval must be an integer, got True"),
        ({"base_seed": 1e3}, "config: base_seed must be an integer"),
        ({"downsample_factor": "2"}, "config: downsample_factor must be a number"),
        ({"downsample_factor": False}, "config: downsample_factor must be a number"),
        ({"funnel": {"dense_dim": 4.0}}, "funnel: dense_dim must be an integer"),
        ({"funnel": {"drift_rate": None}}, "funnel: drift_rate must be a number"),
        ({"net": {"shared_layer_dims": [8, 6.5]}},
         "net: shared_layer_dims must be a list of integers"),
        ({"net": {"head_layer_dims": "44"}}, "net: head_layer_dims must be a list of integers"),
        ({"train": {"epochs": 1.5}}, "train: epochs must be an integer"),
        ({"out_dir": 5}, "config: out_dir must be a string, got 5"),
        ({"train": {"optimizer": ["adam"]}}, "train: unknown keys \\['optimizer'\\]"),
        ({"train": {"optimizer": "adam"}}, "train: unknown keys \\['optimizer'\\]"),
        ({"downsample_factor": float("inf")}, "config: downsample_factor must be finite"),
        ({"downsample_factor": float("nan")}, "config: downsample_factor must be finite"),
        ({"train": {"learning_rate": float("nan")}}, "train: learning_rate must be finite"),
        ({"train": {"learning_rate": 10 ** 400}}, "train: learning_rate must be finite"),
        ({"funnel": {"dense_signal": float("nan")}}, "funnel: dense_signal must be finite"),
        ({"funnel": {"drift_rate": float("nan")}}, "funnel: drift_rate must be finite"),
        ({"funnel": {"cat_signal": float("inf")}}, "funnel: cat_signal must be finite"),
        ({"models": ["IP", "IP", "ESMM"]}, "models must be distinct; repeated: \\['IP'\\]"),
    ], ids=["top", "net", "funnel", "train", "train-overrides",
            "section-list", "models-string", "float-int", "string-int", "bool-int",
            "exponent-int", "string-float", "bool-float", "funnel-int", "funnel-null",
            "layer-float", "layer-string", "train-int", "out-dir-int",
            "optimizer-list", "optimizer-adam", "downsample-inf", "downsample-nan",
            "learning-rate-nan", "learning-rate-huge-int",
            "dense-signal-nan", "drift-rate-nan", "cat-signal-inf", "models-repeated"])
    def test_unknown_or_malformed_keys_rejected(self, extra, match):
        with pytest.raises(ValueError, match=match):
            tiny_config(**extra)

    @pytest.mark.parametrize("factor,match", [
        (float("nan"), "downsample_factor must be >= 1"),
        (float("inf"), "downsample_factor must be finite"),
        (0.5, "downsample_factor must be >= 1"),
    ], ids=["nan", "inf", "below-one"])
    def test_library_caller_gets_downsample_rule(self, factor, match):
        """A config built in code, not from JSON, gets downsample_negatives'
        rule 1 <= f < inf when it is made, not inside a seed."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                replace(tiny_config(), downsample_factor=factor)

    def test_integer_accepted_for_float_key(self):
        cfg = tiny_config(downsample_factor=3, train={**TINY["train"], "learning_rate": 1})
        assert cfg.downsample_factor == 3.0 and cfg.train.learning_rate == 1

    def test_zero_dim_network_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(net={"embedding_dim": 0, "shared_layer_dims": [8, 6],
                             "head_layer_dims": [4, 4]})


class TestPairedSeeds:
    def test_datasets_identical_for_fixed_seed(self):
        cfg = tiny_config()
        a_train, a_eval, _ = cli._seed_data(cfg, 1, (1,))
        b_train, b_eval, _ = cli._seed_data(cfg, 1, (1,))
        a_eval, b_eval = a_eval[1], b_eval[1]
        np.testing.assert_array_equal(a_train.dense, b_train.dense)
        np.testing.assert_array_equal(a_train.weight, b_train.weight)
        np.testing.assert_array_equal(a_eval.dense, b_eval.dense)
        for column in ("cats", "click", "conversion", "day"):
            np.testing.assert_array_equal(getattr(a_train, column), getattr(b_train, column))
            np.testing.assert_array_equal(getattr(a_eval, column), getattr(b_eval, column))

    def test_different_seeds_differ(self):
        cfg = tiny_config()
        a_train = cli._train_dataset(cfg, 0)
        b_train = cli._train_dataset(cfg, 1)
        assert not np.array_equal(a_train.dense[:100], b_train.dense[:100])


class TestTrainDataset:
    """Each training day is downsampled as it is drawn; the result is the
    one that downsampling the concatenated days gives."""

    def test_equals_downsampling_the_concatenated_days(self):
        cfg = tiny_config(train_days=3)
        data_seed, down_seed, shuffle_seed, _ = cli._seed_bundle(cfg.base_seed, 1)
        days = [fd.generate_day(cfg.funnel, day, cfg.n_train_per_day, data_seed)
                for day in range(cfg.train_days)]
        want = fd.shuffle(fd.downsample_negatives(
            fd.Dataset.concat(days), cfg.downsample_factor, down_seed), shuffle_seed)
        got = cli._train_dataset(cfg, 1)
        assert 0 < len(got) < sum(map(len, days))
        for column in ("dense", "cats", "click", "conversion", "weight", "day"):
            a, b = getattr(got, column), getattr(want, column)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), column
        assert got.config_fingerprint == want.config_fingerprint

    def test_peak_allocation_bounded(self):
        """Four 100k-row days are 67 MiB before downsampling; one day at a
        time, the peak is about three times the 9.7 MiB result."""
        cfg = cli.config_from_dict({"n_train_per_day": 100_000, "train_days": 4})
        tracemalloc.start()
        try:
            cli._train_dataset(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20


class TestRunAblation:
    def test_baseline_only_report_mean_one(self):
        cfg = tiny_config(models=["IP"])
        report = cli.run_ablation(cfg)
        assert report.stats.mean_norm_perf["IP"] == 1.0
        assert not report.failed

    def test_requires_baseline_among_models(self):
        cfg = tiny_config(models=["ESP"])
        with pytest.raises(ValueError):
            cli.run_ablation(cfg)

    def test_product_designs_joint_bounded_on_eval(self):
        cfg = tiny_config(models=["IP", "ESMM", "ESMM-NS", "IPSP"])
        report = cli.run_ablation(cfg)
        for (name, seed), record in report.records.items():
            assert record.essp_violation_rate == 0.0, (name, seed)

    def test_better_than_recomputable_from_per_seed_scores(self):
        cfg = tiny_config(models=["IP", "ESP", "ESMM"], n_seeds=3)
        stats = cli.run_ablation(cfg).stats
        for a in stats.models:
            assert stats.better_than[a] == [
                b for b in stats.models
                if b != a and stats.mean_norm_perf[a] > stats.mean_norm_perf[b]
                and metrics.two_sided_t_test(list(stats.norm_scores[a].values()),
                                             list(stats.norm_scores[b].values()))
                < metrics.BETTER_THAN_ALPHA]

    def test_each_run_scored_once(self, monkeypatch):
        calls = []
        real = tr.evaluate

        def counted(model, ds):
            calls.append(model.name)
            return real(model, ds)

        monkeypatch.setattr(tr, "evaluate", counted)
        cfg = tiny_config(models=["IP", "ESMM"], train={**TINY["train"], "epochs": 3})
        cli.run_ablation(cfg)
        assert sorted(calls) == sorted(["IP", "ESMM"] * cfg.n_seeds)

    def test_failed_run_marked_and_exit_nonzero(self, tmp_path, monkeypatch):
        real = cli._train_one

        def flaky(cfg, model_name, seed_idx, train_ds, eval_ds):
            if model_name == "ESP" and seed_idx == 0:
                raise FloatingPointError("non-finite loss (injected)")
            return real(cfg, model_name, seed_idx, train_ds, eval_ds)

        monkeypatch.setattr(cli, "_train_one", flaky)
        cfg = tiny_config(models=["IP", "ESP"], n_seeds=3)
        report = cli.run_ablation(cfg)
        assert report.failed
        assert report.records[("ESP", 0)] is None
        assert "non-finite" in report.errors[("ESP", 0)]
        # surviving seeds keep their own normalized scores despite the gap
        assert set(report.stats.norm_scores["ESP"]) == {1, 2}
        mean_ip = np.mean([report.records[("IP", s)].joint_ce for s in range(3)])
        for seed in (1, 2):
            expected = mean_ip / report.records[("ESP", seed)].joint_ce
            assert report.stats.norm_scores["ESP"][seed] == pytest.approx(expected, rel=1e-12)
        # the failed cell is empty in the CSV, surviving rows are intact
        paths = cli.emit_report(report, tmp_path, fmt="csv")
        lines = pathlib.Path(paths[0]).read_text().splitlines()
        assert any(line.startswith("ESP,0,,") for line in lines)
        assert not any(line.startswith("ESP,1,,") for line in lines)

    def test_design_with_one_surviving_seed_left_out_of_comparison(self, tmp_path,
                                                                     monkeypatch):
        """A design scored on one seed has no SEM or t-test: it gets no stats
        row, in CSV or JSON, and no norm_perf; the others are still compared."""
        real = cli._train_one

        def flaky(cfg, model_name, seed_idx, train_ds, eval_ds):
            if model_name == "ESP" and seed_idx != 1:
                raise FloatingPointError("non-finite loss (injected)")
            return real(cfg, model_name, seed_idx, train_ds, eval_ds)

        monkeypatch.setattr(cli, "_train_one", flaky)
        report = cli.run_ablation(tiny_config(models=["IP", "ESP", "ESMM"], n_seeds=3))
        assert report.failed and report.records[("ESP", 1)] is not None
        assert report.stats.models == ["IP", "ESMM"]
        cli.emit_report(report, tmp_path, fmt="both")
        stats_rows = [line.split(",")[0] for line in
                      (tmp_path / "ablation_stats.csv").read_text().splitlines()
                      if not line.startswith("#")]
        assert stats_rows == ["model", "IP", "ESMM"]
        payload = json.loads((tmp_path / "ablation_report.json").read_text())
        assert set(payload["stats"]) == {"IP", "ESMM"}
        runs = {(run["model"], run["seed"]): run for run in payload["runs"]}
        assert runs[("ESP", 1)]["norm_perf"] is None
        assert runs[("ESP", 1)]["joint_ce"] == report.records[("ESP", 1)].joint_ce
        assert all(runs[("ESMM", s)]["norm_perf"] is not None for s in range(3))
        csv_rows = (tmp_path / "ablation_runs.csv").read_text().splitlines()
        esp_one = next(line for line in csv_rows if line.startswith("ESP,1,"))
        assert esp_one.endswith(",") and esp_one.split(",")[2] != ""


class TestEmitReport:
    def test_row_counts_and_round_trip(self, tmp_path):
        cfg = tiny_config(models=["IP", "ESP"], n_seeds=2)
        report = cli.run_ablation(cfg)
        paths = cli.emit_report(report, tmp_path, fmt="both")
        runs_csv = next(p for p in paths if p.endswith("ablation_runs.csv"))
        lines = [l for l in pathlib.Path(runs_csv).read_text().splitlines()
                 if not l.startswith("#")]
        assert len(lines) == 1 + 2 * 2  # header + models x seeds

        # recompute the comparison from emitted per-seed data
        header = lines[0].split(",")
        ces = {}
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            ces.setdefault(row["model"], {})[int(row["seed"])] = float(row["joint_ce"])
        rebuilt = metrics.compare_models(ces, baseline="IP")
        for name in rebuilt.models:
            assert abs(rebuilt.mean_norm_perf[name]
                       - report.stats.mean_norm_perf[name]) <= 1e-12
            assert abs(rebuilt.sem[name] - report.stats.sem[name]) <= 1e-12
        for pair, p in rebuilt.pvalues.items():
            assert abs(p - report.stats.pvalues[pair]) <= 1e-12

    def test_json_and_csv_encode_identical_values(self, tmp_path):
        cfg = tiny_config(models=["IP", "ESP"], n_seeds=2)
        report = cli.run_ablation(cfg)
        paths = cli.emit_report(report, tmp_path, fmt="both")
        runs_csv = next(p for p in paths if p.endswith("ablation_runs.csv"))
        payload = json.loads(pathlib.Path(next(p for p in paths if p.endswith(".json")))
                             .read_text())
        csv_rows = {}
        header = None
        for line in pathlib.Path(runs_csv).read_text().splitlines():
            if line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            row = dict(zip(header, line.split(",")))
            csv_rows[(row["model"], int(row["seed"]))] = row
        for run in payload["runs"]:
            row = csv_rows[(run["model"], run["seed"])]
            assert float(row["joint_ce"]) == run["joint_ce"]
            assert float(row["norm_perf"]) == run["norm_perf"]

    def test_esp_ctr_ce_cell_empty(self, tmp_path):
        cfg = tiny_config(models=["IP", "ESP"], n_seeds=2)
        report = cli.run_ablation(cfg)
        paths = cli.emit_report(report, tmp_path, fmt="csv")
        runs_csv = next(p for p in paths if p.endswith("ablation_runs.csv"))
        all_lines = pathlib.Path(runs_csv).read_text().splitlines()
        lines = [l for l in all_lines if l.startswith("ESP")]
        header = [l for l in all_lines if l.startswith("model,")][0].split(",")
        for line in lines:
            row = dict(zip(header, line.split(",")))
            assert row["ctr_ce"] == ""

    def test_headers_carry_formula_and_fingerprint(self, tmp_path):
        cfg = tiny_config(models=["IP"], n_seeds=2)
        report = cli.run_ablation(cfg)
        paths = cli.emit_report(report, tmp_path, fmt="csv")
        text = pathlib.Path(paths[0]).read_text()
        assert metrics.PERFORMANCE_FORMULA in text
        assert report.config_fingerprint in text

    def test_byte_identical_rerun(self, tmp_path):
        outputs = []
        for sub in ("a", "b"):
            cfg = tiny_config(models=["IP", "ESP"], n_seeds=2)
            report = cli.run_ablation(cfg)
            paths = cli.emit_report(report, tmp_path / sub, fmt="both")
            outputs.append({p.split("/")[-1]: pathlib.Path(p).read_bytes() for p in paths})
        assert outputs[0] == outputs[1]

    def test_unwritable_path_raises_with_path_in_message(self, tmp_path):
        cfg = tiny_config(models=["IP"], n_seeds=2)
        report = cli.run_ablation(cfg)
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        with pytest.raises(OSError, match="blocked"):
            cli.emit_report(report, blocker / "sub", fmt="csv")

    def test_bad_format_creates_no_directory(self, tmp_path):
        report = cli.AblationReport("fp", ["IP"], 2, {}, {}, None, stats_error="no runs")
        with pytest.raises(ValueError, match="format must be"):
            cli.emit_report(report, tmp_path / "out", fmt="xml")
        assert not (tmp_path / "out").exists()


class TestRunDrift:
    def test_report_has_exactly_five_offsets(self, tmp_path):
        cfg = tiny_config(n_seeds=2)
        report = cli.run_drift(cfg, models=("IP",))
        assert report.offsets == (2, 3, 4, 5, 6)
        paths = cli.emit_drift_report(report, tmp_path)
        stats = [l for l in pathlib.Path(paths[1]).read_text().splitlines()
                 if not l.startswith("#")]
        header = stats[0].split(",")
        assert sum(c.startswith("mean_ce_n") for c in header) == 5

    def test_insufficient_days_rejected(self):
        cfg = tiny_config(funnel={**TINY["funnel"], "n_days": 5})
        with pytest.raises(ValueError, match="n_days"):
            cli.run_drift(cfg)

    @pytest.mark.parametrize("models,match", [
        (["IP", "IP"], "distinct"),
        (["IP", "NOPE"], "unknown models"),
        ([], "at least one model"),
    ])
    def test_bad_models_rejected_before_training(self, monkeypatch, models, match):
        def no_training(*args):
            pytest.fail("a model trained before the model list was checked")

        monkeypatch.setattr(tr, "train", no_training)
        with pytest.raises(ValueError, match=match):
            cli.run_drift(tiny_config(), models=models)

    @pytest.mark.parametrize("epochs", [1, 0, 3])
    def test_offset_two_scored_once(self, monkeypatch, epochs):
        """Training scores the offset-2 day once, after its last epoch or
        untrained when there are no epochs; the harness reuses that score."""
        calls = []
        real = tr.evaluate

        def counted(model, ds):
            calls.append(int(ds.day.min()))
            return real(model, ds)

        monkeypatch.setattr(tr, "evaluate", counted)
        cfg = tiny_config(train={**TINY["train"], "epochs": epochs})
        report = cli.run_drift(cfg, models=("IP",))
        offset_two_day = cfg.train_days + 1
        assert len(calls) == cfg.n_seeds * len(cli.DRIFT_OFFSETS)
        assert calls.count(offset_two_day) == cfg.n_seeds

        train_ds = cli._train_dataset(cfg, 1)
        eval_seed = cli._seed_bundle(cfg.base_seed, 1)[3]
        guard = fd.generate_day(cfg.funnel, offset_two_day, cfg.n_eval, eval_seed)
        model, _ = cli._train_one(cfg, "IP", 1, train_ds, guard)
        assert report.ces[("IP", 1, 2)] == real(model, guard).joint_ce


    def test_generates_only_train_and_offset_days(self, monkeypatch):
        days = []
        real = fd.generate_day

        def counted(config, day, n, seed):
            days.append(day)
            return real(config, day, n, seed)

        monkeypatch.setattr(fd, "generate_day", counted)
        cfg = tiny_config()
        cli.run_drift(cfg, models=("IP",))
        per_seed = [*range(cfg.train_days),
                    *(cfg.train_days - 1 + offset for offset in cli.DRIFT_OFFSETS)]
        assert sorted(days) == sorted(per_seed * cfg.n_seeds)


class TestRunGradcheck:
    def test_default_passes(self):
        assert cli.run_gradcheck(tiny_config())["passed"]

    def test_corrupted_gradient_detected(self, monkeypatch):
        batch_loss = tr.batch_loss

        def doubled_gradient(*args):
            loss, terms, batch_weight = batch_loss(*args)

            def backward_fn(out_grad):  # an identity whose local gradient is 2
                ad._accumulate(loss, 2.0 * out_grad)

            return loss.tape._record(loss.value, "fault", backward_fn), terms, batch_weight

        monkeypatch.setattr(tr, "batch_loss", doubled_gradient)
        result = cli.run_gradcheck(tiny_config())
        assert not result["passed"]
        assert not any(res["passed"] for res in result["models"].values())


class TestMainCli:
    def test_gradcheck_subcommand(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(TINY))
        assert cli.main(["gradcheck", "--config", str(config)]) == 0

    @pytest.mark.parametrize("flag,value", [
        ("--models", "IP"), ("--seeds", "7"), ("--out", "x"), ("--downsample-factor", "3"),
    ])
    def test_gradcheck_rejects_run_flags(self, tmp_path, capsys, flag, value):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(TINY))
        with pytest.raises(SystemExit) as exc:
            cli.main(["gradcheck", "--config", str(config), flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_invalid_config_exit_two(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**TINY, "models": ["NotAModel"]}))
        assert cli.main(["ablation", "--config", str(config)]) == 2

    @pytest.mark.parametrize("extra,flags", [
        ({}, ["--models", "ESP"]),
        ({"train_overrides": {"ESP": {"lr": 0.1}}}, []),
        ({"train_overrides": {"ESPP": {"learning_rate": 0.1}}}, []),
        ({"n_seed": 2}, []),
        ({"net": {**TINY["net"], "embeding_dim": 4}}, []),
        ({"models": "IP"}, []),
        ({"n_seeds": 2.7}, []),
        ({"n_train_per_day": "100"}, []),
        ({"n_train_per_day": -5}, []),
        ({"funnel": {**TINY["funnel"], "base_click_rate": 1.5}}, []),
        ({"funnel": {**TINY["funnel"], "base_click_rate": 0}}, []),
        ({"funnel": {**TINY["funnel"], "base_click_rate": 1}}, []),
        ({"funnel": {**TINY["funnel"], "base_conv_rate": -0.1}}, []),
        ({"funnel": {**TINY["funnel"], "base_click_rate": float("nan")}}, []),
        ({}, ["--downsample-factor", "inf"]),
        ({"downsample_factor": float("inf")}, []),
        ({"train": {**TINY["train"], "learning_rate": float("nan")}}, []),
        ({"train_overrides": {"ESMM": {"learning_rate": float("inf")}}}, []),
        ({"funnel": {**TINY["funnel"], "dense_signal": float("nan")}}, []),
        ({}, ["--models", "IP,IP,ESMM"]),
        ({}, ["--models", ""]),
        ({}, ["--out", ""]),
        ({"funnel": {**TINY["funnel"], "dense_dim": 1}}, []),
        ({"funnel": {**TINY["funnel"], "vocab_size": 1}}, []),
        ({"funnel": {"dense_signal": 40.0}}, []),
        ({"funnel": {"dense_signal": 100.0}}, []),
        ({"funnel": {"cat_signal": 60.0}}, []),
        ({"train_overrides": {"IP": {"learning_rate": 0.1}}}, []),
    ], ids=["no-baseline", "override-key", "override-model", "top-key", "section-key",
            "models-string", "float-int", "string-int", "negative-rows", "click-rate-above-1",
            "click-rate-0", "click-rate-1", "conv-rate-negative", "click-rate-nan",
            "downsample-flag-inf", "downsample-inf", "learning-rate-nan", "override-inf",
            "dense-signal-nan", "models-repeated", "models-empty", "out-empty",
            "dense-dim-1", "vocab-size-1", "dense-signal-40-unreachable",
            "dense-signal-100-unreachable", "cat-signal-60-unreachable", "train-overrides"])
    def test_bad_ablation_input_exits_two_before_training(
            self, tmp_path, monkeypatch, capsys, extra, flags):
        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "_train_one", no_training)
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**TINY, **extra}))
        code = cli.main(["ablation", "--config", str(config),
                         "--out", str(tmp_path / "out"), *flags])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invalid config: ")
        assert not (tmp_path / "out").exists()

    def test_negative_categorical_count_named(self, tmp_path, monkeypatch, capsys):
        message = "n_categorical and drift_rate must be nonnegative"
        with pytest.raises(ValueError, match=message):
            cli.config_from_dict({"funnel": {"n_categorical": -1}})
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"funnel": {"n_categorical": -1}}))
        assert cli.main(["ablation", "--config", "cfg.json"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"invalid config: {message}"]

    @pytest.mark.parametrize("command,content,flags,message", [
        ("drift", [], ["--drift-rate", "0.1"], "config must be an object, got []"),
        ("ablation", [], ["--seeds", "3"], "config must be an object, got []"),
        ("ablation", None, ["--out", "x"], "config must be an object, got None"),
        ("drift", {"funnel": 3}, ["--drift-rate", "0.1"], "funnel must be an object, got 3"),
        ("ablation", {"models": ["X", 1]}, [],
         "models must be a list of names, got ['X', 1]"),
    ], ids=["list-drift-rate", "list-seeds", "null-out", "funnel-int-drift-rate",
            "models-non-string"])
    def test_malformed_file_checked_before_flags(
            self, tmp_path, monkeypatch, capsys, command, content, flags, message):
        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "_train_one", no_training)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(content))
        assert cli.main([command, "--config", "cfg.json", *flags]) == 2
        assert capsys.readouterr().err.splitlines() == [f"invalid config: {message}"]
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_ablation_subcommand_writes_reports(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**TINY, "models": ["IP", "ESP"]}))
        out_dir = tmp_path / "reports"
        code = cli.main(["ablation", "--config", str(config),
                         "--out", str(out_dir), "--format", "csv", "--seeds", "2"])
        assert code == 0
        assert (out_dir / "ablation_runs.csv").exists()
        assert (out_dir / "ablation_stats.csv").exists()

    def test_zero_epoch_ablation_scores_untrained_models(self, tmp_path):
        raw = {**TINY, "models": ["IP", "ESMM"], "train": {**TINY["train"], "epochs": 0}}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(raw))
        out_dir = tmp_path / "reports"
        assert cli.main(["ablation", "--config", str(config), "--out", str(out_dir),
                         "--format", "csv"]) == 0
        cfg = cli.config_from_dict(raw)
        lines = (out_dir / "ablation_runs.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        assert len(rows) == 4
        for name, seed, joint_ce, *rest in rows:
            assert all(np.isfinite(float(cell)) for cell in [joint_ce, *rest])
            eval_ds = cli._seed_data(cfg, int(seed), (1,))[1][1]
            fresh = md.build(name, cfg.net, cli._model_init_seed(cfg.base_seed, int(seed), name))
            assert float(joint_ce) == tr.evaluate(fresh, eval_ds).joint_ce

    @pytest.mark.parametrize("command", ["ablation", "drift"])
    def test_unwritable_out_exits_two_before_training(self, tmp_path, monkeypatch, capsys,
                                                      command):
        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(tr, "train", no_training)
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**TINY, "models": ["IP"]}))
        code = cli.main([command, "--config", str(config), "--out", str(blocker / "sub")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("invalid config: cannot create output directory ")
        assert "blocked" in err[0]

    @pytest.mark.parametrize("command", ["ablation", "drift"])
    def test_unscorable_eval_day_fails_before_training(self, tmp_path, monkeypatch, capsys,
                                                       command):
        """A one-row eval day holds a conversion or a non-conversion, never
        both, so the metrics cannot score it: every run fails, exit 1, and
        the message names the seed and the day; no model trains."""
        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(tr, "train", no_training)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**TINY, "models": ["IP", "ESMM"], "n_eval": 1}))
        code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        out, err = capsys.readouterr()
        reason = (f"seed 0: eval day {TINY['train_days'] + (0 if command == 'ablation' else 1)}"
                  " cannot be scored: it needs a conversion and a non-conversion with "
                  "positive weight")
        if command == "ablation":
            assert f"seed 0 IP: FAILED ({reason})" in out.splitlines()
            assert f"seed 1 ESMM: FAILED (seed 1: " in out
        else:
            assert err.splitlines() == [f"drift run failed: {reason}"]

    def test_baseline_failing_every_seed_keeps_report(self, tmp_path, capsys, recwarn,
                                                      monkeypatch):
        """With no baseline stats the per-run rows are still written, the
        stats output says why, and the command exits 1 without a traceback."""
        _diverge(monkeypatch, "IP")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**TINY, "models": ["IP", "ESMM"]}))
        out_dir = tmp_path / "reports"
        assert cli.main(["ablation", "--config", str(config), "--out", str(out_dir)]) == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert "stats not computed" in capsys.readouterr().out
        runs = (out_dir / "ablation_runs.csv").read_text().splitlines()
        assert "IP,0,,,,," in runs and "IP,1,,,,," in runs
        esmm = [line for line in runs if line.startswith("ESMM,")]
        assert len(esmm) == 2 and all(",," not in line[:-1] for line in esmm)
        reason = "# stats not computed: baseline IP succeeded on 0 of 2 seeds"
        assert (out_dir / "ablation_stats.csv").read_text().splitlines()[-1].startswith(reason)
        payload = json.loads((out_dir / "ablation_report.json").read_text())
        assert payload["stats"] == {}
        assert payload["stats_error"].startswith("baseline IP succeeded on 0 of 2")
        errors = [run["error"] for run in payload["runs"] if run["model"] == "IP"]
        assert len(errors) == 2 and all("non-finite" in e for e in errors)

    def test_drift_subcommand(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**TINY, "models": ["IP"]}))
        out_dir = tmp_path / "drift"
        code = cli.main(["drift", "--config", str(config), "--out", str(out_dir),
                         "--drift-rate", "0.2"])
        assert code == 0
        assert (out_dir / "drift_stats.csv").exists()

    @pytest.mark.parametrize("flags,models", [
        ([], ["IP", "ESMM"]), (["--models", "ESP"], ["ESP"]),
    ], ids=["default", "flag"])
    def test_drift_model_list(self, tmp_path, flags, models):
        """With no models key and no flag, drift compares IP and ESMM, not
        every design; a --models flag picks the list instead."""
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(TINY))
        out_dir = tmp_path / "drift"
        assert cli.main(["drift", "--config", str(config), "--out", str(out_dir), *flags]) == 0
        lines = (out_dir / "drift_runs.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        assert sorted({row[0] for row in rows}) == sorted(models)
        assert len(rows) == len(models) * TINY["n_seeds"] * len(cli.DRIFT_OFFSETS)

    def test_missing_config_file_exit_two(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli.main(["ablation", "--config", str(missing)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invalid config: ")

    def test_failed_drift_run_exits_one_naming_the_run(self, tmp_path, capsys, recwarn,
                                                       monkeypatch):
        _diverge(monkeypatch, "IP")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**TINY, "models": ["ESMM", "IP"]}))
        out_dir = tmp_path / "drift"
        assert cli.main(["drift", "--config", str(config), "--out", str(out_dir)]) == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("drift run failed: IP seed 0: FloatingPointError: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("extra,flags", [
        ({}, ["--drift-rate", "nan"]),
        ({"funnel": {**TINY["funnel"], "drift_rate": float("inf")}}, []),
        ({}, ["--models", "IP,IP"]),
        ({}, ["--models", ""]),
        ({}, ["--out", ""]),
        ({"train_overrides": {"IP": {"learning_rate": 0.1}}}, []),
    ], ids=["drift-rate-flag-nan", "drift-rate-inf", "models-repeated", "models-empty",
            "out-empty", "train-overrides"])
    def test_bad_drift_input_exits_two_before_training(
            self, tmp_path, monkeypatch, capsys, extra, flags):
        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "_train_one", no_training)
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**TINY, **extra}))
        code = cli.main(["drift", "--config", str(config),
                         "--out", str(tmp_path / "out"), *flags])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invalid config: ")
        assert not (tmp_path / "out").exists()

    def test_drift_insufficient_days_exit_two(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {**TINY, "models": ["IP"], "funnel": {**TINY["funnel"], "n_days": 5}}))
        assert cli.main(["drift", "--config", str(config)]) == 2


def _src_env():
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_setup_never_imports_scipy_stats():
    """numpy is the package's only dependency, so set-up loads no scipy
    module. Nor does set-up load the seed pool's modules: only a pooled run
    pays for them."""
    code = ("import sys, funnellab.cli; funnellab.cli.config_from_dict({}); "
            "print(*(m in sys.modules for m in sys.argv[1:]))")
    modules = ["scipy.stats", "scipy.special", "multiprocessing", "concurrent.futures.process"]
    out = subprocess.run([sys.executable, "-c", code, *modules], env=_src_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "False", "False", "False"]


def test_drift_run_never_imports_scipy():
    """numpy is the package's only dependency, so a drift run loads no scipy
    module."""
    code = ("import json, sys, funnellab.cli as c; "
            "c.run_drift(c.config_from_dict(json.loads(sys.argv[1])), models=('IP',)); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(TINY)], env=_src_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]"]


def test_ablation_runs_without_scipy(tmp_path):
    """An ablation, Welch p-values included, runs and writes its reports in
    an interpreter where any scipy import fails."""
    code = ("import json, sys; sys.modules['scipy'] = None; "
            "import funnellab.cli as c; "
            "cfg = c.config_from_dict(json.loads(sys.argv[1])); "
            "report = c.run_ablation(cfg); c.emit_report(report, sys.argv[2], fmt='both'); "
            "print(report.failed, len(report.stats.pvalues))")
    config = {**TINY, "models": ["IP", "ESMM"]}
    out = subprocess.run([sys.executable, "-c", code, json.dumps(config), str(tmp_path)],
                         env=_src_env(), capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "2"]
    for name in ("ablation_runs.csv", "ablation_stats.csv", "ablation_report.json"):
        assert (tmp_path / name).stat().st_size > 0


def _weight_flags(cfg, seed_idx):
    """Whether each funnel weight array is writable, where this runs."""
    return [getattr(cfg.funnel, name).flags.writeable
            for name in ("click_dense", "click_cat", "conv_dense", "conv_cat")]


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores; with no BLAS thread variable (see conftest.py) BLAS
    takes both, so seeds run serially until a test sets a variable."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


class TestSeedPool:
    @pytest.mark.parametrize("env,cores,n_seeds,jobs", [
        ({}, 2, 10, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 10, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1, 1),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 10, 1),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 2, 10, 2),
        ({"MKL_NUM_THREADS": "2"}, 8, 10, 4),
        ({"OMP_NUM_THREADS": "16"}, 8, 10, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 3, 3),
    ], ids=["default", "one-thread", "one-seed", "openblas-first", "invalid-skipped",
            "mkl", "oversubscribed", "capped-by-seeds"])
    def test_pool_size(self, monkeypatch, env, cores, n_seeds, jobs):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert cli._pool_size(n_seeds) == jobs

    @staticmethod
    def _main(argv, capsys):
        code = cli.main(argv)
        assert not multiprocessing.active_children()
        out, err = capsys.readouterr()
        return code, [l for l in out.splitlines() if not l.startswith("wrote ")], err

    @staticmethod
    def _train_only_in_workers(monkeypatch):
        parent, real = os.getpid(), cli._train_one

        def train_one(*args):
            if os.getpid() == parent:
                raise AssertionError("a pooled run trained in the parent process")
            return real(*args)

        monkeypatch.setattr(cli, "_train_one", train_one)

    @pytest.mark.parametrize("command,models", [
        ("ablation", "IP,ESMM,ESP"), ("drift", "IP,ESMM")])
    def test_pool_reports_equal_serial_reports(self, tmp_path, capsys, monkeypatch,
                                               two_cores, command, models):
        """Three seeds on two workers give the serial run's report files
        byte for byte, and its log lines in the same order."""
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**TINY, "n_seeds": 3}))
        argv = [command, "--config", str(config), "--models", models]
        serial = self._main(argv + ["--out", str(tmp_path / "serial")], capsys)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert cli._pool_size(3) == 2
        self._train_only_in_workers(monkeypatch)
        pooled = self._main(argv + ["--out", str(tmp_path / "pooled")], capsys)
        assert serial[0] == 0 and pooled == serial
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "pooled").iterdir())
        for name in names:
            assert ((tmp_path / "pooled" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes()), name

    def test_workers_get_read_only_weights(self, monkeypatch, two_cores):
        """A worker unpickles its config, which keeps its weight arrays
        read-only there too."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert cli._map_seeds(_weight_flags, tiny_config()) == [[False] * 4] * TINY["n_seeds"]

    def test_pooled_drift_failure_names_the_run(self, tmp_path, capsys, monkeypatch,
                                                two_cores):
        _diverge(monkeypatch, "IP")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**TINY, "n_seeds": 3, "models": ["ESMM", "IP"]}))
        argv = ["drift", "--config", str(config), "--out", str(tmp_path / "drift")]
        serial = self._main(argv, capsys)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        pooled = self._main(argv, capsys)
        assert pooled[0] == serial[0] == 1
        assert pooled[2] == serial[2]
        assert pooled[2].startswith("drift run failed: IP seed 0: FloatingPointError: ")
        assert len(pooled[2].splitlines()) == 1
        assert not (tmp_path / "drift").exists()

    @pytest.mark.parametrize("command", ["ablation", "drift"])
    def test_dead_worker_names_lost_seeds_and_exits_one(self, tmp_path, capsys,
                                                        monkeypatch, two_cores, command):
        """A worker killed mid-run (as by the OOM killer) is one line and
        exit 1, not a traceback."""
        parent, real = os.getpid(), cli._train_dataset

        def train_dataset(cfg, seed_idx):
            if seed_idx == 1 and os.getpid() != parent:
                os._exit(3)
            return real(cfg, seed_idx)

        monkeypatch.setattr(cli, "_train_dataset", train_dataset)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**TINY, "n_seeds": 3, "models": ["IP"]}))
        code, _, err = self._main([command, "--config", str(config),
                                   "--out", str(tmp_path / "out")], capsys)
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1, err
        prefix = f"{command} run failed: a worker process died; lost seeds "
        assert lines[0].startswith(prefix)
        assert "1" in lines[0][len(prefix):].split(", ")
        assert not (tmp_path / "out").exists()
