"""Training-loop contracts: determinism, temporal split, loss descent,
evaluation identities against the ground-truth oracle."""

import math

import numpy as np
import pytest

from funnellab import funnel as fd
from funnellab import metrics
from funnellab import models as md
from funnellab import training as tr
from funnellab.oracles import brute_force_pr_auc


def _toy_setup(seed=3, n_train=3000, n_eval=1500, click=0.3, conv=0.3):
    cfg = fd.make_funnel_config(dense_dim=4, n_categorical=1, vocab_size=6,
                                base_click_rate=click, base_conv_rate=conv,
                                dense_signal=1.0, cat_signal=0.5,
                                n_days=2, seed=seed)
    net = md.NetworkConfig(dense_input_dim=4, n_categorical=1, vocab_size=6,
                           embedding_dim=3, shared_layer_dims=(8, 6),
                           head_layer_dims=(4, 4))
    train_ds = fd.generate_day(cfg, 0, n_train, seed=10)
    eval_ds = fd.generate_day(cfg, 1, n_eval, seed=11)
    return cfg, net, train_ds, eval_ds


class TestTrainContract:
    def test_zero_epochs_leaves_model_unchanged(self):
        _, net, train_ds, eval_ds = _toy_setup()
        model = md.build("ESP", net, seed=0)
        before = [p.value.copy() for p in model.parameters()]
        _, history = tr.train(model, train_ds, eval_ds,
                              tr.TrainConfig(epochs=0))
        for b, p in zip(before, model.parameters()):
            np.testing.assert_array_equal(b, p.value)
        assert history.head_losses == []

    def test_same_seed_identical_history_and_params(self):
        _, net, train_ds, eval_ds = _toy_setup()

        def run():
            model = md.build("IPSP", net, seed=4)
            _, history = tr.train(model, train_ds, eval_ds,
                                  tr.TrainConfig(learning_rate=0.01, batch_size=256,
                                                 epochs=2, seed=9))
            return history, [p.value.copy() for p in model.parameters()]

        hist_a, params_a = run()
        hist_b, params_b = run()
        assert hist_a.head_losses == hist_b.head_losses
        for rec_a, rec_b in zip(hist_a.eval_metrics, hist_b.eval_metrics):
            assert rec_a.joint_ce == rec_b.joint_ce
        for a, b in zip(params_a, params_b):
            np.testing.assert_array_equal(a, b)

    def test_temporal_split_violation_rejected(self):
        _, net, train_ds, _ = _toy_setup()
        model = md.build("ESP", net, seed=0)
        with pytest.raises(ValueError, match="temporal"):
            tr.train(model, train_ds, train_ds, tr.TrainConfig(epochs=1))

    def test_histories_have_epoch_lengths(self):
        _, net, train_ds, eval_ds = _toy_setup()
        model = md.build("ESMM", net, seed=1)
        _, history = tr.train(model, train_ds, eval_ds,
                              tr.TrainConfig(epochs=3, batch_size=512))
        assert len(history.head_losses) == 3
        assert len(history.eval_metrics) == 3

    @pytest.mark.parametrize("name", md.MODEL_NAMES)
    def test_final_train_loss_below_first_epoch(self, name):
        _, net, train_ds, eval_ds = _toy_setup(n_train=4000)
        model = md.build(name, net, seed=2)
        _, history = tr.train(model, train_ds, eval_ds,
                              tr.TrainConfig(learning_rate=0.01, batch_size=256,
                                             epochs=5, seed=1))
        first = sum(history.head_losses[0].values())
        last = sum(history.head_losses[-1].values())
        assert last < first

    def test_nan_poisoned_model_aborts_with_diagnostic(self):
        _, net, train_ds, eval_ds = _toy_setup()
        model = md.build("ESP", net, seed=0)
        model.parameters()[0].value[0] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            tr.train(model, train_ds, eval_ds, tr.TrainConfig(epochs=1))

    def test_diverged_last_step_aborts_without_numpy_warnings(self, recwarn):
        """One step at a huge learning rate leaves finite but enormous
        weights that no later loss sees; evaluation must not score them
        with NaN metrics, and numpy must print no warning on the way."""
        _, net, train_ds, eval_ds = _toy_setup()
        model = md.build("ESMM", net, seed=0)
        cfg = tr.TrainConfig(learning_rate=1e300, batch_size=len(train_ds), epochs=1)
        with pytest.raises(FloatingPointError, match="ESMM at epoch 0"):
            tr.train(model, train_ds, eval_ds, cfg)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_invalid_train_config_rejected(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(learning_rate=-1.0)

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="invalid training config"):
            tr.TrainConfig(learning_rate=lr)

    def test_ip_cvr_tower_sees_only_clicked_examples(self):
        """Unclicked conversions cannot exist; IP's conversion tower trains on
        the clicked subset, so click-flipping unclicked rows must not change it."""
        cfg, net, train_ds, eval_ds = _toy_setup()
        model_a = md.build("IP", net, seed=6)
        model_b = md.build("IP", net, seed=6)
        # variant dataset: identical clicked rows, perturbed unclicked features
        dense = train_ds.dense.copy()
        mask = train_ds.click == 0
        dense[mask] += 0.37
        variant = fd.Dataset(dense, train_ds.cats, train_ds.click,
                             train_ds.conversion, train_ds.weight, train_ds.day,
                             train_ds.config_fingerprint, "variant")
        cfg_t = tr.TrainConfig(epochs=1, batch_size=512, seed=3)
        tr.train(model_a, train_ds, eval_ds, cfg_t)
        tr.train(model_b, variant, eval_ds, cfg_t)
        for pa, pb in zip(model_a.tower_parameters("cvr"),
                          model_b.tower_parameters("cvr")):
            np.testing.assert_array_equal(pa.value, pb.value)


class TestEvaluate:
    def test_constant_half_predictor_gives_ln2(self):
        _, net, _, eval_ds = _toy_setup()
        model = md.build("ESP", net, seed=0)
        for head in model._heads.values():
            head.out.weights.value[...] = 0.0
            head.out.biases.value[...] = 0.0
        record = tr.evaluate(model, eval_ds)
        assert record.joint_ce == pytest.approx(math.log(2.0), abs=1e-12)

    def test_oracle_predictor_ce_equals_bayes_exactly(self):
        cfg, _, _, eval_ds = _toy_setup()
        gt = fd.GroundTruth(cfg)
        record = tr.evaluate(gt, eval_ds)
        assert record.joint_ce == fd.bayes_ce(gt, eval_ds, "joint")
        assert record.ctr_ce == fd.bayes_ce(gt, eval_ds, "ctr")

    def test_pr_auc_matches_brute_force_oracle(self):
        _, net, train_ds, eval_ds = _toy_setup(n_eval=300)
        model = md.build("ESMM", net, seed=3)
        tr.train(model, train_ds, eval_ds, tr.TrainConfig(epochs=1, seed=0))
        record = tr.evaluate(model, eval_ds)
        preds = model.predict_dataset(eval_ds)["joint"]
        brute = brute_force_pr_auc(list(preds), list(eval_ds.conversion),
                                   list(eval_ds.weight))
        assert record.joint_pr_auc == pytest.approx(brute, abs=1e-9)

    def test_violation_rate_zero_for_product_designs(self):
        _, net, train_ds, eval_ds = _toy_setup()
        for name in ("IP", "IPSP", "ESMM", "ESMM-NS"):
            model = md.build(name, net, seed=4)
            tr.train(model, train_ds, eval_ds, tr.TrainConfig(epochs=1, seed=0))
            record = tr.evaluate(model, eval_ds)
            assert record.essp_violation_rate == 0.0

    def test_essp_violation_rate_reported_and_finite(self):
        _, net, train_ds, eval_ds = _toy_setup()
        model = md.build("ESSP-Split", net, seed=4)
        tr.train(model, train_ds, eval_ds, tr.TrainConfig(epochs=1, seed=0))
        record = tr.evaluate(model, eval_ds)
        assert record.essp_violation_rate is not None
        assert 0.0 <= record.essp_violation_rate <= 1.0

    def test_esp_has_no_ctr_metrics(self):
        _, net, train_ds, eval_ds = _toy_setup()
        model = md.build("ESP", net, seed=4)
        record = tr.evaluate(model, eval_ds)
        assert record.ctr_ce is None
        assert record.essp_violation_rate is None

    def test_trained_model_ce_not_below_bayes(self):
        cfg, net, train_ds, eval_ds = _toy_setup(n_train=8000, n_eval=6000)
        gt = fd.GroundTruth(cfg)
        floor = fd.bayes_ce(gt, eval_ds, "joint")
        model = md.build("ESP", net, seed=5)
        tr.train(model, train_ds, eval_ds,
                 tr.TrainConfig(learning_rate=0.01, epochs=4, seed=2))
        record = tr.evaluate(model, eval_ds)
        # sampling tolerance: the floor itself is a sample mean
        assert record.joint_ce >= floor - 0.05 * floor


class TestBatchSizeInvariance:
    def test_final_eval_ce_within_3_combined_sems_across_10_seeds(self):
        # runs must be near convergence: a systematic optimizer-step-count
        # gap would otherwise masquerade as a batch-size effect
        ces = {128: [], 512: []}
        for seed in range(10):
            cfg, net, train_ds, eval_ds = _toy_setup(seed=40 + seed, n_train=2000,
                                                     n_eval=1000)
            for batch in ces:
                model = md.build("ESP", net, seed=seed)
                tr.train(model, train_ds, eval_ds,
                         tr.TrainConfig(learning_rate=0.05, batch_size=batch,
                                        epochs=10, seed=seed))
                ces[batch].append(tr.evaluate(model, eval_ds).joint_ce)
        mean_small, mean_big = np.mean(ces[128]), np.mean(ces[512])
        sem_small = np.std(ces[128], ddof=1) / math.sqrt(10)
        sem_big = np.std(ces[512], ddof=1) / math.sqrt(10)
        assert abs(mean_small - mean_big) < 3 * math.hypot(sem_small, sem_big)

