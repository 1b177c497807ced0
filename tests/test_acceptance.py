"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing one pass line per criterion (run with ``pytest -s``
to see them live; ``-v`` lists the criterion names).

The heavyweight fixtures (the 10-seed six-model ablation, the drift runs)
are module-scoped so the expensive work happens once.
"""

import json
import math
import time

import numpy as np
import pytest

from funnellab import autodiff as ad
from funnellab import cli
from funnellab import funnel as fd
from funnellab import metrics
from funnellab import models as md
from funnellab import training as tr

from oracles import brute_force_pr_auc


def _report(line):
    print(f"\n[PASS] {line}")


@pytest.fixture(scope="module")
def default_ablation():
    """The default desk-scale ablation: 6 models x 10 paired seeds."""
    cfg = cli.config_from_dict({})
    start = time.perf_counter()
    report = cli.run_ablation(cfg)
    elapsed = time.perf_counter() - start
    return cfg, report, elapsed


@pytest.fixture(scope="module")
def drift_reports():
    base = {
        "funnel": {"n_days": 8, "seed": 7},
        "n_seeds": 4,
        "n_train_per_day": 50_000,
        "n_eval": 25_000,
        "train_days": 2,
        "models": ["IP", "ESMM"],
    }
    reports = {}
    for rate in (0.0, 0.25):
        cfg = cli.config_from_dict(
            {**base, "funnel": {**base["funnel"], "drift_rate": rate}})
        reports[rate] = cli.run_drift(cfg)
    return reports


class TestCriterion1GradientCorrectness:
    def test_finite_difference_suite_all_six_designs(self):
        start = time.perf_counter()
        cfg = cli.config_from_dict({})
        result = cli.run_gradcheck(cfg)
        elapsed = time.perf_counter() - start
        assert result["passed"], result
        worst = max(r["max_rel_err"] for r in result["models"].values())
        assert elapsed < 60.0
        _report(f"criterion 1: gradients match finite differences at 1e-4 "
                f"relative across all six designs (worst {worst:.2e}, {elapsed:.1f}s)")


class TestCriterion2OracleFloor:
    def test_esp_joint_ce_within_10pct_of_bayes(self):
        start = time.perf_counter()
        cfg = fd.make_funnel_config(base_click_rate=0.2, base_conv_rate=0.3,
                                    dense_signal=1.0, cat_signal=0.5,
                                    n_days=2, seed=7)
        gt = fd.GroundTruth(cfg)
        train_ds = fd.generate_day(cfg, 0, 100_000, seed=101)
        eval_ds = fd.generate_day(cfg, 1, 100_000, seed=202)
        floor = fd.bayes_ce(gt, eval_ds, "joint")
        model = md.build("ESP", md.NetworkConfig(), seed=5)
        model, history = tr.train(model, train_ds, eval_ds, tr.TrainConfig(seed=0))
        ce = history.metrics.joint_ce
        elapsed = time.perf_counter() - start
        assert ce <= 1.10 * floor, (ce, floor, ce / floor)
        assert elapsed < 300.0
        _report(f"criterion 2: ESP reaches {ce / floor:.4f}x the irreducible "
                f"joint cross-entropy on a 1e5-example stationary funnel "
                f"({elapsed:.0f}s)")


class TestCriterion3Calibration:
    def test_ip_ctr_head_calibrated_on_full_space_eval(self, default_ablation):
        cfg, report, _ = default_ablation
        ratios = [report.extras[("IP", s)]["ctr_calibration"]
                  for s in range(cfg.n_seeds)]
        assert len(ratios) >= 10
        mean_ratio = float(np.mean(ratios))
        assert 0.9 <= mean_ratio <= 1.1, ratios
        _report(f"criterion 3: IP CTR head trained with f=10 downsampling + "
                f"upweighting is calibrated on full-space eval "
                f"(mean ratio {mean_ratio:.4f} over {len(ratios)} seeds)")


class TestCriterion4DirectionalAblation:
    def test_ordering_and_significance(self, default_ablation):
        cfg, report, elapsed = default_ablation
        stats = report.stats
        assert not report.failed, report.errors
        assert cfg.n_seeds >= 10

        # (a) directional means
        assert stats.mean_norm_perf["ESP"] < 1.0
        assert stats.mean_norm_perf["IPSP"] > 1.0
        # (b) IPSP and ESMM each beat ESP, Welch p < 0.05
        for challenger in ("IPSP", "ESMM"):
            assert stats.mean_norm_perf[challenger] > stats.mean_norm_perf["ESP"]
            assert stats.pvalues[(challenger, "ESP")] < 0.05
        # (c) nothing beats IPSP at p < 0.01
        beating = [m for m in stats.models
                   if m != "IPSP"
                   and stats.mean_norm_perf[m] > stats.mean_norm_perf["IPSP"]
                   and stats.pvalues[(m, "IPSP")] < 0.01]
        assert beating == []
        assert elapsed < 1800.0
        summary = " ".join(f"{m}={stats.mean_norm_perf[m]:.4f}" for m in stats.models)
        _report(f"criterion 4: directional ablation holds ({summary}; "
                f"p IPSP>ESP {stats.pvalues[('IPSP', 'ESP')]:.2e}, "
                f"p ESMM>ESP {stats.pvalues[('ESMM', 'ESP')]:.2e}; {elapsed:.0f}s)")


class TestCriterion5StructuralInvariants:
    def test_joint_bounded_and_essp_violation_reported(self, default_ablation):
        cfg, report, _ = default_ablation
        for name in ("ESMM", "ESMM-NS", "IP", "IPSP"):
            for seed in range(cfg.n_seeds):
                record = report.records[(name, seed)]
                assert record.essp_violation_rate == 0.0, (name, seed)
        essp_rates = [report.records[("ESSP-Split", s)].essp_violation_rate
                      for s in range(cfg.n_seeds)]
        assert all(r is not None and 0.0 <= r <= 1.0 and math.isfinite(r)
                   for r in essp_rates)
        _report(f"criterion 5: joint <= CTR for 100% of eval predictions under "
                f"the product designs; ESSP-Split violation rate reported "
                f"(mean {np.mean(essp_rates):.5f})")


class TestCriterion6IpspGradientGating:
    def test_all_unclicked_batch_leaves_cvr_branch_bit_identical(self):
        net = md.NetworkConfig()
        model = md.build("IPSP", net, seed=3)
        rng = np.random.default_rng(0)
        n = 256
        dense = rng.standard_normal((n, net.dense_input_dim))
        cats = rng.integers(0, net.vocab_size, (n, net.n_categorical))
        train_ds = fd.Dataset(dense, cats, np.zeros(n, dtype=int),
                              np.zeros(n, dtype=int), np.full(n, 10.0),
                              np.zeros(n, dtype=int), "fp")
        m = 16
        eval_ds = fd.Dataset(rng.standard_normal((m, net.dense_input_dim)),
                             rng.integers(0, net.vocab_size, (m, net.n_categorical)),
                             np.array([1] * 4 + [0] * 12),
                             np.array([1] + [0] * 15), np.ones(m),
                             np.ones(m, dtype=int), "fp")
        cvr_before = [p.value.copy() for p in model._heads["cvr"].params()]
        trunk_before = [p.value.copy() for p in model._stacks["shared"].params()]
        tr.train(model, train_ds, eval_ds,
                 tr.TrainConfig(learning_rate=0.05, batch_size=n, epochs=1, seed=0))
        for before, param in zip(cvr_before, model._heads["cvr"].params()):
            np.testing.assert_array_equal(before, param.value)
        assert any(not np.array_equal(b, p.value) for b, p in
                   zip(trunk_before, model._stacks["shared"].params()))
        _report("criterion 6: IPSP training step on an all-unclicked batch "
                "leaves every CVR-branch-exclusive parameter bit-identical "
                "while the shared trunk still learns from the click loss")


class TestCriterion7PrAucOracle:
    def test_exact_match_against_brute_force(self):
        rng = np.random.default_rng(777)
        worst = 0.0
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 201))
            labels = (rng.random(n) < rng.uniform(0.05, 0.9)).astype(float)
            if labels.sum() in (0, n):
                continue
            preds = np.round(rng.random(n), 2)  # quantized: plenty of ties
            weights = rng.uniform(0.1, 10.0, n)
            fast = metrics.pr_auc(preds, labels, weights)
            brute = brute_force_pr_auc(list(preds), list(labels), list(weights))
            worst = max(worst, abs(fast - brute))
            assert abs(fast - brute) <= 1e-9
            checked += 1
        _report(f"criterion 7: PR-AUC equals brute-force enumeration on 1000 "
                f"random instances (max deviation {worst:.2e})")


class TestCriterion8DriftHarness:
    def test_flat_without_drift(self, drift_reports):
        report = drift_reports[0.0]
        for name in report.models:
            means = [report.means[name][o] for o in report.offsets]
            sems = [report.sems[name][o] for o in report.offsets]
            for i in range(len(means)):
                for j in range(i + 1, len(means)):
                    combined = 3 * math.hypot(sems[i], sems[j])
                    assert abs(means[i] - means[j]) < combined, (name, i, j)
        _report("criterion 8a: with drift_rate 0, per-offset-day CE is flat "
                "within 3 combined standard errors for IP and ESMM")

    def test_decay_with_positive_drift(self, drift_reports):
        report = drift_reports[0.25]
        for name in ("IP", "ESMM"):
            day2 = report.means[name][2]
            day6 = report.means[name][6]
            assert day6 > day2, (name, day2, day6)
        deltas = {name: report.means[name][6] - report.means[name][2]
                  for name in report.models}
        _report(f"criterion 8b: with drift_rate 0.25, day-6 CE exceeds day-2 "
                f"CE for both models (deltas {deltas})")

    def test_exactly_five_offsets(self, drift_reports):
        assert drift_reports[0.0].offsets == (2, 3, 4, 5, 6)
        _report("criterion 8c: drift report covers exactly offsets 2..6")


class TestCriterion9Reproducibility:
    def test_rerun_yields_byte_identical_csv(self, tmp_path):
        raw = {
            "funnel": {"dense_dim": 4, "n_categorical": 1, "vocab_size": 6,
                       "base_click_rate": 0.3, "base_conv_rate": 0.3,
                       "dense_signal": 1.0, "cat_signal": 0.5,
                       "n_days": 10, "seed": 2},
            "net": {"embedding_dim": 3, "shared_layer_dims": [8, 6],
                    "head_layer_dims": [4, 4]},
            "train": {"learning_rate": 0.02, "batch_size": 256, "epochs": 2},
            "models": ["IP", "ESMM", "ESP"],
            "n_seeds": 2,
            "n_train_per_day": 1_000,
            "n_eval": 600,
            "train_days": 2,
            "downsample_factor": 2.0,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        contents = []
        for sub in ("first", "second"):
            out = tmp_path / sub
            code = cli.main(["ablation", "--config", str(config_path),
                             "--out", str(out), "--format", "both"])
            assert code == 0
            contents.append({path.name: path.read_bytes()
                             for path in sorted(out.iterdir())})
        assert contents[0] == contents[1]
        _report("criterion 9: rerunning the ablation command with the same "
                "config produces byte-identical CSV and JSON reports")
