"""Design-table, wiring, weight-regime, and gradient-flow contracts for the
six model designs."""

import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnellab import autodiff as ad
from funnellab import funnel as fd
from funnellab import models as md
from funnellab import training as tr


NET = md.NetworkConfig(dense_input_dim=4, n_categorical=2, vocab_size=10,
                       embedding_dim=3, shared_layer_dims=(8, 6),
                       head_layer_dims=(4, 4))


def _parameter_count(model):
    return sum(p.value.size for p in model.parameters())


def _batch(n=16, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, NET.dense_input_dim))
    cats = rng.integers(0, NET.vocab_size, (n, NET.n_categorical))
    return dense, cats


class TestCharacteristicsTable:
    def test_flag_table_matches_design_checklist(self):
        expected = {
            "IP": (False, False, False),
            "ESMM": (True, True, True),
            "ESMM-NS": (False, True, True),
            "ESSP-Split": (True, True, False),
            "IPSP": (True, False, False),
            "ESP": (False, True, False),
        }
        assert set(md.MODEL_TABLE) == set(expected)
        for name, (shared, entire, weighted) in expected.items():
            c = md.MODEL_TABLE[name]
            assert (c.shared_params, c.entire_space, c.weighted_cvr) == (
                shared, entire, weighted)
            assert c.name == name


class TestBuild:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            md.build("ESMM2", NET, seed=0)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            md.NetworkConfig(embedding_dim=0)
        with pytest.raises(ValueError):
            md.NetworkConfig(shared_layer_dims=(4,))

    def test_ipsp_count_within_5pct_of_esmm(self):
        ipsp = _parameter_count(md.build("IPSP", NET, seed=0))
        esmm = _parameter_count(md.build("ESMM", NET, seed=0))
        assert abs(ipsp - esmm) / esmm < 0.05

    def test_ip_is_twice_esp_with_same_tower_dims(self):
        ip = _parameter_count(md.build("IP", NET, seed=0))
        esp = _parameter_count(md.build("ESP", NET, seed=0))
        assert ip == 2 * esp

    def test_single_graph_parity_at_default_config(self):
        default = md.NetworkConfig()
        counts = [_parameter_count(md.build(name, default, seed=0))
                  for name in ("ESMM", "ESSP-Split", "IPSP", "ESP")]
        assert max(counts) / min(counts) < 1.05

    def test_dual_tower_designs_about_twice_single_graph(self):
        default = md.NetworkConfig()
        ip = _parameter_count(md.build("IP", default, seed=0))
        esmm = _parameter_count(md.build("ESMM", default, seed=0))
        assert 1.8 < ip / esmm < 2.1

    def test_esp_has_no_ctr_head(self):
        dense, cats = _batch(4)
        assert "ctr" not in md.build("ESP", NET, seed=0).predict_all(dense, cats)

    def test_conditional_head_exposure(self):
        dense, cats = _batch(4)
        for name in ("IP", "IPSP", "ESMM", "ESMM-NS"):
            cvr = md.build(name, NET, seed=1).predict_all(dense, cats)["cvr"]
            assert np.all((cvr > 0) & (cvr < 1))
        for name in ("ESSP-Split", "ESP"):
            assert "cvr" not in md.build(name, NET, seed=1).predict_all(dense, cats)


def _zero_output_layers(model):
    for head in model._heads.values():
        head.out.weights.value[...] = 0.0
        head.out.biases.value[...] = 0.0


class TestPredictions:
    def test_esmm_joint_bounded_by_ctr(self):
        model = md.build("ESMM", NET, seed=2)
        dense, cats = _batch(64, seed=5)
        out = model.predict_all(dense, cats)
        assert np.all(out["joint"] <= out["ctr"])

    def test_ip_zero_final_layers_joint_quarter(self):
        model = md.build("IP", NET, seed=3)
        _zero_output_layers(model)
        dense, cats = _batch(8)
        np.testing.assert_allclose(model.predict_all(dense, cats)["joint"], 0.25)

    def test_esmm_zero_final_layers_ctr_half(self):
        model = md.build("ESMM", NET, seed=3)
        _zero_output_layers(model)
        dense, cats = _batch(8)
        np.testing.assert_allclose(model.predict_all(dense, cats)["ctr"], 0.5)

    def test_product_designs_joint_is_exact_product(self):
        dense, cats = _batch(32, seed=9)
        for name in ("IP", "IPSP", "ESMM", "ESMM-NS"):
            model = md.build(name, NET, seed=4)
            out = model.predict_all(dense, cats)
            np.testing.assert_array_equal(out["joint"], out["ctr"] * out["cvr"])

    def test_essp_heads_unconstrained(self):
        model = md.build("ESSP-Split", NET, seed=4)
        dense, cats = _batch(8)
        out = model.predict_all(dense, cats)
        assert set(out) == {"ctr", "joint"}

    def test_ip_ctr_tower_matches_standalone_single_tower(self):
        """Tower init order: the click-side tower of a dual-tower design is
        draw-for-draw identical to a standalone single tower (same seed)."""
        ip = md.build("IP", NET, seed=7)
        esp = md.build("ESP", NET, seed=7)
        dense, cats = _batch(16, seed=8)
        np.testing.assert_array_equal(ip.predict_all(dense, cats)["ctr"],
                                      esp.predict_all(dense, cats)["joint"])

    def test_same_seed_same_predictions(self):
        dense, cats = _batch(4)
        a = md.build("IPSP", NET, seed=11).predict_all(dense, cats)
        b = md.build("IPSP", NET, seed=11).predict_all(dense, cats)
        assert a.keys() == b.keys()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])


def _one_pass(model, dense, cats):
    tape = ad.Tape()
    values = {name: node.value for name, node in model.forward_heads(tape, dense, cats).items()}
    tape.release()
    return values


def _assert_bit_equal(got, want):
    assert set(got) == set(want)
    for name in want:
        assert got[name].shape == want[name].shape
        assert got[name].tobytes() == want[name].tobytes(), name


class TestBlockedPrediction:
    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(md.MODEL_NAMES),
           n=st.one_of(st.sampled_from([0, 1, 6, 7, 8, 13, 14, 15, 21, 22]),
                       st.integers(0, 60)),
           seed=st.integers(0, 2**32 - 1))
    def test_blocks_equal_one_pass(self, name, n, seed):
        """With 7-row blocks, predict_all equals one forward pass over the
        whole batch bit for bit, and no block is shorter than 7 rows unless
        the batch is."""
        model = md.build(name, NET, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        for param in model.parameters():
            param.value += rng.normal(0.0, 0.3, param.value.shape)
        dense, cats = _batch(n, seed=seed)
        heights = []
        forward_heads = md.Model.forward_heads

        def recording(self, tape, dense, cats, heads=None):
            heights.append(len(dense))
            return forward_heads(self, tape, dense, cats, heads)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(md, "PREDICT_BLOCK_ROWS", 7)
            mp.setattr(md.Model, "forward_heads", recording)
            got = model.predict_all(dense, cats)
        _assert_bit_equal(got, _one_pass(model, dense, cats))
        assert sum(heights) == n and len(heights) == max(1, n // 7)
        assert all(7 <= h < 14 for h in heights) or heights == [n]

    def test_short_tail_joins_last_block_at_full_width(self):
        """At the default widths, a tail block of a few rows can round
        differently from the same rows inside a tall pass; the remainder
        joins the last block, so predictions stay equal to one pass."""
        net = md.NetworkConfig()
        rng = np.random.default_rng(0)
        n = 2 * md.PREDICT_BLOCK_ROWS + 8
        dense = rng.standard_normal((n, net.dense_input_dim))
        cats = rng.integers(0, net.vocab_size, (n, net.n_categorical))
        for name in ("IP", "ESMM"):
            model = md.build(name, net, seed=1)
            for param in model.parameters():
                param.value += rng.normal(0.0, 0.05, param.value.shape)
            _assert_bit_equal(model.predict_all(dense, cats), _one_pass(model, dense, cats))

    def test_missing_batch_axis_rejected(self):
        model = md.build("ESMM", NET, seed=0)
        with pytest.raises(ValueError, match=r"dense must have shape \(n, 4\)"):
            model.predict_all(np.zeros(NET.dense_input_dim), np.zeros(2, dtype=int))


class TestBatchChecks:
    """A batch is dense (n, dense_input_dim) and integer cats
    (n, n_categorical), exactly; anything else would be read silently
    wrong, so it is refused with the expected shape."""

    @pytest.mark.parametrize("case,match", [
        ("extra-cats-column", r"cats must be an integer array of shape \(5, 2\)"),
        ("float-cats", "cats must be an integer array"),
        ("cats-1d", r"shape \(5, 2\)"),
        ("cats-short", r"shape \(5, 2\)"),
        ("dense-wide", r"dense must have shape \(n, 4\)"),
        ("dense-3d", r"dense must have shape \(n, 4\)"),
    ])
    def test_misshapen_batch_rejected(self, case, match):
        dense, cats = _batch(5)
        dense, cats = {
            "extra-cats-column": (dense, np.hstack([cats, cats[:, :1]])),
            "float-cats": (dense, cats + 0.7),
            "cats-1d": (dense, cats[:, 0]),
            "cats-short": (dense, cats[:4]),
            "dense-wide": (np.hstack([dense, dense[:, :1]]), cats),
            "dense-3d": (dense[:, None, :], cats),
        }[case]
        model = md.build("ESMM", NET, seed=0)
        with pytest.raises(ValueError, match=match):
            model.predict_all(dense, cats)
        with pytest.raises(ValueError, match=match):
            model.forward_heads(ad.Tape(), dense, cats)

    def test_any_integer_dtype_accepted(self):
        dense, cats = _batch(5)
        model = md.build("ESMM", NET, seed=0)
        want = model.predict_all(dense, cats)
        _assert_bit_equal(model.predict_all(dense, cats.astype(np.uint8)), want)


class TestOneBatchCheck:
    """The model and the oracle read a batch through one check, so a bad
    batch gets the same ValueError from both."""

    @pytest.fixture(scope="class")
    def oracle(self):
        return fd.GroundTruth(fd.make_funnel_config(
            dense_dim=NET.dense_input_dim, n_categorical=NET.n_categorical,
            vocab_size=NET.vocab_size, n_days=1))

    @pytest.mark.parametrize("case,match", [
        ("float-cats", r"cats must be an integer array of shape \(5, 2\), got float64"),
        ("index-minus-one", r"embedding index out of range \[0, 10\): min=-1, max="),
        ("index-at-vocab-size", r"embedding index out of range \[0, 10\): min=\d+, max=10$"),
        ("cats-too-wide", r"cats must be an integer array of shape \(5, 2\)"),
        ("dense-too-wide", r"dense must have shape \(n, 4\), got \(5, 5\)"),
        ("cats-1d", r"cats must be an integer array of shape \(5, 2\)"),
        ("dense-1d", r"dense must have shape \(n, 4\), got \(4,\)"),
    ])
    def test_same_error_from_model_and_oracle(self, oracle, case, match):
        dense, cats = _batch(5)
        dense, cats = {
            "float-cats": (dense, cats.astype(float)),
            "index-minus-one": (dense, np.where(np.arange(5)[:, None] == 2, -1, cats)),
            "index-at-vocab-size": (dense, np.where(np.arange(5)[:, None] == 3, 10, cats)),
            "cats-too-wide": (dense, np.hstack([cats, cats[:, :1]])),
            "dense-too-wide": (np.hstack([dense, dense[:, :1]]), cats),
            "cats-1d": (dense, cats[:, 0]),
            "dense-1d": (dense[0], cats[:1]),
        }[case]
        predictors = [md.build("ESMM", NET, seed=0).predict_all, oracle.probabilities]
        messages = []
        for predict in predictors:
            with pytest.raises(ValueError, match=match) as info:
                predict(dense, cats)
            messages.append(str(info.value))
        assert len(set(messages)) == 1, messages

    def test_no_categorical_columns_pass(self):
        net = md.NetworkConfig(dense_input_dim=3, n_categorical=0, vocab_size=1,
                               embedding_dim=2, shared_layer_dims=(4, 4),
                               head_layer_dims=(2, 2))
        dense, cats = np.zeros((2, 3)), np.zeros((2, 0), dtype=int)
        assert fd.check_batch(dense, cats, 3, 0, 1)[1].shape == (2, 0)
        assert md.build("IP", net, seed=0).predict_all(dense, cats)["joint"].shape == (2,)


def _regime(name, click, weight, conversion=None):
    """The ``batch_loss`` terms of one design on one batch, as floats, with
    the design's predictions on that batch."""
    n = len(click)
    conversion = np.zeros(n, dtype=int) if conversion is None else conversion
    dense, cats = _batch(n)
    ds = fd.Dataset(dense, cats, click, conversion, weight, np.zeros(n, dtype=int), "fp")
    model = md.build(name, NET, seed=0)
    _, terms, _ = tr.batch_loss(model, ad.Tape(), ds, np.arange(n))
    values = {key: float(term.value) for key, term in terms.items()}
    return values, model.predict_all(dense, cats)


def _bce(pred, labels, weights):
    return float(ad.weighted_bce(ad.Tape().constant(pred), np.asarray(labels, float),
                                 np.asarray(weights, float)).value)


class TestLossWeights:
    """The loss regime at the array level: each ``batch_loss`` term is the
    weighted BCE of its target output under the expected weights."""

    def test_ipsp_unclicked_gets_zero_cvr_weight(self):
        click, conversion = np.array([0, 1]), np.array([0, 1])
        terms, out = _regime("IPSP", click, np.ones(2), conversion)
        assert terms["ctr"] == _bce(out["ctr"], click, [1.0, 1.0])
        assert terms["cvr"] == _bce(out["cvr"], conversion, [0.0, 1.0])

    def test_ip_same_regime_as_ipsp(self):
        click = np.array([0])
        terms, out = _regime("IP", click, np.array([10.0]))
        assert terms == {"cvr": 0.0, "ctr": _bce(out["ctr"], click, [10.0])}

    def test_esmm_regime_scales_with_calibration_weight(self):
        click, conversion = np.array([0, 1]), np.array([0, 1])
        for name in ("ESMM", "ESMM-NS", "ESSP-Split"):
            terms, out = _regime(name, click, np.array([10.0, 1.0]), conversion)
            assert terms["ctr"] == _bce(out["ctr"], click, [10.0, 1.0]), name
            assert terms["cvr"] == _bce(out["joint"], conversion, [10.0, 1.0]), name

    def test_esp_has_no_ctr_loss(self):
        conversion = np.array([1])
        terms, out = _regime("ESP", np.array([1]), np.array([2.5]), conversion)
        assert terms == {"cvr": _bce(out["joint"], conversion, [2.5])}

    def test_cvr_loss_targets(self):
        # conditional designs attach the conversion loss to the conditional
        # head; entire-space designs attach it to the joint output
        click = np.ones(4, dtype=int)
        conversion = np.array([1, 0, 1, 0])
        for name, target in [("IP", "cvr"), ("IPSP", "cvr"), ("ESMM", "joint"),
                             ("ESMM-NS", "joint"), ("ESSP-Split", "joint"),
                             ("ESP", "joint")]:
            terms, out = _regime(name, click, np.ones(4), conversion)
            assert terms["cvr"] == _bce(out[target], conversion, np.ones(4)), name


class TestFlagRules:
    @pytest.mark.parametrize("name", md.MODEL_NAMES)
    def test_heads_and_towers_follow_flags(self, name):
        """A direct joint head exactly when entire_space without the
        reconnection; a click head unless that direct head stands alone in
        a non-shared design; one trunk under both heads exactly when
        shared_params."""
        c = md.MODEL_TABLE[name]
        model = md.build(name, NET, seed=0)
        direct = c.entire_space and not c.weighted_cvr
        heads = {"joint"} if direct and not c.shared_params else {
            "ctr", "joint" if direct else "cvr"}
        assert set(model._heads) == heads
        out = model.predict_all(*_batch(4))
        assert set(out) == heads | {"joint"}
        if not direct:
            np.testing.assert_array_equal(out["joint"], out["ctr"] * out["cvr"])
        towers = {head: {p.name.split(".")[0] for p in model.tower_parameters(head)}
                  - {head} for head in heads}
        if c.shared_params or len(heads) == 1:
            assert all(t == {"shared"} for t in towers.values())
        else:
            assert towers == {head: {f"{head}_tower"} for head in heads}
            assert len(model.parameters()) == sum(
                len(model.tower_parameters(head)) for head in heads)

    @pytest.mark.parametrize("module", [md, tr], ids=["models", "training"])
    def test_no_design_name_comparisons(self, module):
        """Designs differ only through MODEL_TABLE: no code compares against
        a design name (``name == "IP"``, ``name in ("IP", "IPSP")``)."""
        tree = ast.parse(inspect.getsource(module))
        names = set(md.MODEL_NAMES)

        def is_design_name(node):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                return any(is_design_name(elt) for elt in node.elts)
            return isinstance(node, ast.Constant) and node.value in names

        offenders = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Compare)
                     and any(map(is_design_name, [node.left, *node.comparators]))]
        assert offenders == [], f"design-name comparisons at lines {offenders}"


def _all_negative_datasets(n=64):
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((n, NET.dense_input_dim))
    cats = rng.integers(0, NET.vocab_size, (n, NET.n_categorical))
    train = fd.Dataset(dense, cats, np.zeros(n, dtype=int), np.zeros(n, dtype=int),
                       np.ones(n), np.zeros(n, dtype=int), "fp")
    m = 8
    eval_click = np.array([1, 1, 0, 0, 1, 0, 0, 0])
    eval_conv = np.array([1, 0, 0, 0, 0, 0, 0, 0])
    evalds = fd.Dataset(rng.standard_normal((m, NET.dense_input_dim)),
                        rng.integers(0, NET.vocab_size, (m, NET.n_categorical)),
                        eval_click, eval_conv, np.ones(m), np.ones(m, dtype=int), "fp")
    return train, evalds


class TestGradientGating:
    def test_ipsp_all_unclicked_batch_leaves_cvr_head_bit_identical(self):
        model = md.build("IPSP", NET, seed=13)
        train_ds, eval_ds = _all_negative_datasets()
        cvr_before = [p.value.copy() for p in model._heads["cvr"].params()]
        trunk_before = [p.value.copy() for p in model._stacks["shared"].params()]
        tr.train(model, train_ds, eval_ds,
                 tr.TrainConfig(learning_rate=0.05, batch_size=64, epochs=1, seed=0))
        for before, param in zip(cvr_before, model._heads["cvr"].params()):
            np.testing.assert_array_equal(before, param.value)
        changed = any(not np.array_equal(b, p.value)
                      for b, p in zip(trunk_before, model._stacks["shared"].params()))
        assert changed, "shared trunk should still move via the click loss"

    def test_esmm_joint_loss_reaches_ctr_branch(self):
        model = md.build("ESMM", NET, seed=14)
        rng = np.random.default_rng(3)
        dense, cats = _batch(16, seed=15)
        z = (rng.random(16) < 0.5).astype(float)
        tape = ad.Tape()
        out = model.forward_heads(tape, dense, cats)
        joint_loss = ad.weighted_bce(out["joint"], z, np.ones(16))
        tape.backward(joint_loss)
        ctr_grads = [p.grad for p in model._heads["ctr"].params()]
        assert any(np.any(g != 0) for g in ctr_grads)

    def test_esmm_ns_gradient_routing(self):
        """The click tower is reached by both losses; the conversion tower
        only by the joint loss."""
        model = md.build("ESMM-NS", NET, seed=16)
        dense, cats = _batch(16, seed=17)
        y = np.array([1.0, 0.0] * 8)
        z = np.array([1.0] + [0.0] * 15)

        tape = ad.Tape()
        out = model.forward_heads(tape, dense, cats)
        tape.backward(ad.weighted_bce(out["ctr"], y, np.ones(16)))
        cvr_tower = model.tower_parameters("cvr")
        assert all(np.all(p.grad == 0) for p in cvr_tower), \
            "click loss must not reach the conversion tower"
        assert any(np.any(p.grad != 0) for p in model.tower_parameters("ctr"))

        tape = ad.Tape()
        out = model.forward_heads(tape, dense, cats)
        tape.backward(ad.weighted_bce(out["joint"], z, np.ones(16)))
        assert any(np.any(p.grad != 0) for p in cvr_tower)
        assert any(np.any(p.grad != 0) for p in model.tower_parameters("ctr")), \
            "joint loss flows through the product into the click tower"
