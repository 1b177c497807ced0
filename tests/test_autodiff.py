"""Unit tests for the reverse-mode engine: op contracts, gradient
correctness against central finite differences, and optimizer behavior."""

import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnellab import autodiff as ad
from funnellab import funnel as fd
from funnellab import models as md
from funnellab import training as tr


def _node(tape, values):
    return tape.constant(np.asarray(values, dtype=np.float64))


def _dense_layer(weights, biases):
    """A DenseLayer holding ``weights`` (out x in) and ``biases``; its own
    initial values come from a generator of their own."""
    weights = np.asarray(weights, dtype=np.float64)
    layer = ad.DenseLayer(weights.shape[1], weights.shape[0], np.random.default_rng(0))
    layer.weights.value[...] = weights
    layer.biases.value[...] = biases
    return layer


def _backprop(params, grads):
    """Run one backward that leaves exactly ``grads`` in the params' ``.grad``:
    d/dp of sum(p * g) is g, bit for bit."""
    tape = ad.Tape()
    terms = [ad.vsum(ad.multiply(tape.watch(p), tape.constant(g)))
             for p, g in zip(params, grads)]
    root = terms[0]
    for term in terms[1:]:
        root = ad.add(root, term)
    tape.backward(root)


class TestDenseForward:
    def test_identity_weights_zero_bias(self):
        layer = _dense_layer(np.eye(2), np.zeros(2))
        tape = ad.Tape()
        out = layer(_node(tape, [[1.0, 2.0]]))
        np.testing.assert_allclose(out.value, [[1.0, 2.0]])

    def test_zero_weights_bias_only(self):
        layer = _dense_layer(np.zeros((1, 2)), [3.0])
        tape = ad.Tape()
        out = layer(_node(tape, [[7.0, -4.0]]))
        np.testing.assert_allclose(out.value, [[3.0]])

    def test_hand_sum(self):
        layer = _dense_layer([[1.0, 1.0]], [0.0])
        tape = ad.Tape()
        out = layer(_node(tape, [[2.0, 3.0]]))
        np.testing.assert_allclose(out.value, [[5.0]])

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(0)
        layer = ad.DenseLayer(3, 2, rng)
        x = rng.standard_normal((4, 3))
        tape = ad.Tape()
        batched = layer(_node(tape, x)).value
        for i in range(4):
            row = layer(_node(ad.Tape(), x[i:i + 1])).value
            np.testing.assert_allclose(batched[i:i + 1], row)

    def test_dimension_mismatch_raises(self):
        layer = ad.DenseLayer(3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer(_node(ad.Tape(), [1.0, 2.0]))

    @pytest.mark.parametrize("values", [[1.0, 2.0, 3.0], [[[1.0, 2.0, 3.0]]]],
                             ids=["vector", "3-d"])
    def test_non_batch_input_rejected(self, values):
        layer = ad.DenseLayer(3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="dense input must be \\(n, 3\\)"):
            layer(_node(ad.Tape(), values))

    def test_nonfinite_init_rejected(self):
        with pytest.raises(ValueError):
            ad.Param([[np.inf]])


class TestRelu:
    def test_elementwise(self):
        out = ad.relu(_node(ad.Tape(), [-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.value, [0.0, 0.0, 2.0])

    @pytest.mark.parametrize("x,grad", [(0.0, 0.0), (5.0, 1.0)])
    def test_subgradient(self, x, grad):
        tape = ad.Tape()
        inp = _node(tape, x)
        out = ad.relu(inp)
        tape.backward(out)
        assert inp.grad == grad


class TestSigmoid:
    def test_zero(self):
        out = ad.sigmoid(_node(ad.Tape(), 0.0))
        assert float(out.value) == 0.5

    def test_large_logit_no_overflow(self):
        out = ad.sigmoid(_node(ad.Tape(), 1000.0))
        assert 0.0 < float(out.value) < 1.0
        out = ad.sigmoid(_node(ad.Tape(), -1000.0))
        assert 0.0 < float(out.value) < 1.0

    def test_analytic_ln3(self):
        out = ad.sigmoid(_node(ad.Tape(), math.log(3.0)))
        assert float(out.value) == pytest.approx(0.75, rel=1e-12)


def _masked_sigmoid_values(v):
    """The sigmoid as a masked divide: 1 / (1 + e) where v >= 0, else
    e / (1 + e), with e = exp(-|v|)."""
    e = np.exp(-np.abs(v), out=np.empty(v.shape))
    d = 1.0 + e
    np.divide(e, d, out=e)
    return np.divide(1.0, d, out=e, where=v >= 0)


class TestStableSigmoidValues:
    """The plain-divide form gives the masked form's bits everywhere."""

    @staticmethod
    def _assert_same_bits(v):
        got, expected = ad._stable_sigmoid_values(v), _masked_sigmoid_values(v)
        assert got.shape == expected.shape == v.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(width=64), max_size=64),
           st.floats(0.0, 800.0), st.integers(0, 2 ** 32 - 1))
    def test_same_bits_as_masked_divide(self, values, scale, seed):
        rng = np.random.default_rng(seed)
        self._assert_same_bits(np.array(values, dtype=np.float64))
        self._assert_same_bits(scale * rng.standard_normal(1000))

    @pytest.mark.parametrize("value", [
        0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 745.0, -745.0, -800.0,
        5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    ])
    def test_special_values_same_bits(self, value):
        self._assert_same_bits(np.array(value))        # 0-d
        self._assert_same_bits(np.full((2, 3), value))


class TestWeightedBce:
    def test_half_prediction_is_ln2(self):
        tape = ad.Tape()
        loss = ad.weighted_bce(_node(tape, 0.5), 1.0, 1.0)
        assert float(loss.value) == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_confident_correct(self):
        tape = ad.Tape()
        loss = ad.weighted_bce(_node(tape, 0.9), 1.0, 1.0)
        assert float(loss.value) == pytest.approx(0.10536051565782628, abs=1e-12)

    def test_weighted_wrong_prediction(self):
        # 10 * -ln(0.1), hand-computed
        tape = ad.Tape()
        loss = ad.weighted_bce(_node(tape, 0.9), 0.0, 10.0)
        assert float(loss.value) == pytest.approx(23.025850929940454, abs=1e-10)

    def test_negative_weight_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ValueError):
            ad.weighted_bce(_node(tape, 0.5), 1.0, -1.0)

    def test_nan_weight_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            ad.weighted_bce(_node(tape, [0.5, 0.5]), [1.0, 0.0], [1.0, np.nan])

    def test_zero_weight_contributes_zero_gradient(self):
        rng = np.random.default_rng(3)
        layer = ad.DenseLayer(2, 1, rng)
        x = rng.standard_normal((4, 2))
        labels = np.array([1.0, 0.0, 1.0, 0.0])

        def run(weights):
            tape = ad.Tape()
            pred = ad.sigmoid(ad.reshape(layer(_node(tape, x)), (4,)))
            loss = ad.weighted_bce(pred, labels, weights)
            tape.backward(loss)
            return [p.grad.copy() for p in layer.params()]

        full = run(np.array([1.0, 1.0, 0.0, 0.0]))
        masked = run(np.array([1.0, 1.0, 1e9, 1e9]) * np.array([1, 1, 0, 0]))
        for a, b in zip(full, masked):
            np.testing.assert_array_equal(a, b)
        # all-zero weights: exactly zero gradient everywhere
        zeroed = run(np.zeros(4))
        for g in zeroed:
            assert np.all(g == 0.0)

    def test_gradient_flows_to_pred_only(self):
        tape = ad.Tape()
        pred = _node(tape, 0.8)
        loss = ad.weighted_bce(pred, 1.0, 2.0)
        tape.backward(loss)
        assert pred.grad == pytest.approx(-2.0 / 0.8, rel=1e-12)


class TestBackward:
    def test_linear(self):
        w = ad.Param(np.asarray(3.0), "w")
        tape = ad.Tape()
        root = ad.multiply(tape.watch(w), _node(tape, 2.0))
        tape.backward(root)
        assert float(w.grad) == 2.0

    def test_sigmoid_derivative_at_zero(self):
        w = ad.Param(np.asarray(0.0), "w")
        tape = ad.Tape()
        root = ad.sigmoid(ad.multiply(tape.watch(w), _node(tape, 1.0)))
        tape.backward(root)
        assert float(w.grad) == pytest.approx(0.25, abs=1e-12)

    def test_non_scalar_root_rejected(self):
        tape = ad.Tape()
        vec = _node(tape, [1.0, 2.0])
        with pytest.raises(ValueError):
            tape.backward(vec)

    def test_unreachable_node_keeps_no_gradient(self):
        tape = ad.Tape()
        a = _node(tape, 2.0)
        dangling = ad.sigmoid(a)       # not an ancestor of the root
        root = ad.scale(a, 3.0)
        after = ad.sigmoid(a)          # recorded after the root
        tape.backward(root)
        assert dangling.grad is None
        assert after.grad is None
        assert float(a.grad) == 3.0

    def test_node_reached_twice_gets_exact_sum(self):
        tape = ad.Tape()
        x = _node(tape, [1.0, -2.0, 3.0])
        doubled = ad.add(x, x)
        tape.backward(ad.vsum(ad.scale(doubled, 3.0)))
        np.testing.assert_array_equal(x.grad, [6.0, 6.0, 6.0])
        # x keeps doubled's gradient as its first contribution and makes a
        # new array for the second, so doubled's own gradient is not changed
        np.testing.assert_array_equal(doubled.grad, [3.0, 3.0, 3.0])

    def test_shared_trunk_gradient_is_sum_of_heads(self):
        rng = np.random.default_rng(11)
        trunk = ad.DenseLayer(3, 4, rng)
        heads = [ad.DenseLayer(4, 1, rng), ad.DenseLayer(4, 1, rng)]
        x = rng.standard_normal((5, 3))

        def trunk_grad(used_heads):
            tape = ad.Tape()
            h = ad.relu(trunk(_node(tape, x)))
            outs = [ad.vsum(head(h)) for head in used_heads]
            root = outs[0] if len(outs) == 1 else ad.add(outs[0], outs[1])
            tape.backward(root)
            return h.grad

        both = trunk_grad(heads)
        np.testing.assert_array_equal(both, trunk_grad(heads[1:]) + trunk_grad(heads[:1]))

    def test_second_backward_raises(self):
        tape = ad.Tape()
        root = ad.scale(_node(tape, 2.0), 3.0)
        tape.backward(root)
        with pytest.raises(ValueError, match="released"):
            tape.backward(root)

    def test_tape_freed_by_reference_counting(self, monkeypatch):
        """Backward and prediction release their tapes, one per prediction
        block, so no tape waits for the cyclic collector."""
        tapes = []

        class RecordedTape(ad.Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(ad, "Tape", RecordedTape)
        monkeypatch.setattr(md, "PREDICT_BLOCK_ROWS", 2)
        net = md.NetworkConfig(dense_input_dim=3, n_categorical=1, vocab_size=5,
                               embedding_dim=2, shared_layer_dims=(4, 3),
                               head_layer_dims=(2, 2))
        model = md.build("ESMM", net, seed=0)
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((6, 3))
        cats = rng.integers(0, 5, (6, 1))

        def loss():
            out = model.forward_heads(ad.Tape(), dense, cats)
            return ad.weighted_bce(out["joint"], np.zeros(6), np.ones(6))

        def train_step():
            root = loss()
            root.tape.backward(root)

        gc.disable()
        try:
            train_step()
            model.predict_all(dense, cats)
            assert len(tapes) == 1 + 3
            ad.gradient_check(loss, model.parameters()[:1], max_coords_per_param=1)
            assert len(tapes) == 7
            assert [ref() for ref in tapes] == [None] * 7
        finally:
            gc.enable()

    def test_finite_difference_layer_combos(self):
        """Reverse-mode gradients match central differences for every layer
        combination used in this repo (dense, relu, sigmoid, embedding,
        concat, product, weighted bce)."""
        rng = np.random.default_rng(42)
        emb = ad.EmbeddingTable(6, 3, rng)
        trunk = ad.DenseLayer(7, 5, rng)
        head_a = ad.DenseLayer(5, 1, rng)
        head_b = ad.DenseLayer(5, 1, rng)
        # jitter biases off zero so no relu pre-activation sits at the kink
        for p in (trunk.biases, head_a.biases, head_b.biases):
            p.value += rng.uniform(0.05, 0.15, p.value.shape)
        x = rng.standard_normal((6, 4))
        idx = rng.integers(0, 6, size=6)
        labels = (rng.random(6) < 0.5).astype(float)
        weights = rng.uniform(0.5, 3.0, 6)

        def loss_fn():
            tape = ad.Tape()
            h = ad.concat([_node(tape, x), emb.lookup(tape, idx)])
            h = ad.relu(trunk(h))
            pa = ad.sigmoid(ad.reshape(head_a(h), (6,)))
            pb = ad.sigmoid(ad.reshape(head_b(h), (6,)))
            joint = ad.multiply(pa, pb)
            loss = ad.add(ad.weighted_bce(joint, labels, weights),
                          ad.weighted_bce(pa, 1.0 - labels, weights))
            return ad.scale(loss, 1.0 / weights.sum())

        params = emb.params() + trunk.params() + head_a.params() + head_b.params()
        result = ad.gradient_check(loss_fn, params)
        assert result["passed"], result


def reference_step(params, ms, vs, t, lr):
    """One per-parameter Adam update, the textbook form of ``Adam.step``."""
    b1, b2 = ad.ADAM_BETA1, ad.ADAM_BETA2
    bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for p, m, v in zip(params, ms, vs):
        g = p.grad
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + ad.ADAM_EPS)


class TestOptimizers:
    def test_adam_zero_gradient_leaves_params(self):
        p = ad.Param(np.array([1.0, -2.0]), "p")
        opt = ad.Adam([p], lr=0.1)
        _backprop([p], [np.zeros(2)])
        before = p.value.copy()
        opt.step()
        np.testing.assert_array_equal(p.value, before)

    def test_adam_moments_decay_after_zero_grad(self):
        p = ad.Param(np.array([1.0]), "p")
        opt = ad.Adam([p], lr=0.1)
        _backprop([p], [np.array([2.0])])
        opt.step()
        m_after_first = opt._m_flat.copy()
        _backprop([p], [np.array([0.0])])
        opt.step()
        np.testing.assert_allclose(opt._m_flat, ad.ADAM_BETA1 * m_after_first)

    def test_adam_moves_against_constant_gradient(self):
        p = ad.Param(np.array([0.0]), "p")
        opt = ad.Adam([p], lr=0.01)
        for _ in range(50):
            _backprop([p], [np.array([3.0])])
            opt.step()
        assert p.value[0] < 0.0

    def test_adam_first_step_magnitude(self):
        # fresh state: m_hat = g, v_hat = g^2, step = lr * g / (|g| + eps)
        for g in (0.7, -4.0):
            p = ad.Param(np.array([1.0]), "p")
            opt = ad.Adam([p], lr=0.05)
            _backprop([p], [np.array([g])])
            opt.step()
            expected = 1.0 - 0.05 * g / (math.sqrt(g * g) + ad.ADAM_EPS)
            assert p.value[0] == pytest.approx(expected, rel=1e-12)
            assert abs(1.0 - p.value[0]) == pytest.approx(0.05, rel=1e-6)

    def test_nonfinite_gradient_aborts(self):
        p = ad.Param(np.array([1.0]), "p")
        opt = ad.Adam([p], lr=0.1)
        _backprop([p], [np.array([np.nan])])
        with pytest.raises(FloatingPointError):
            opt.step()

    def test_nonfinite_gradient_names_parameter(self):
        params = [ad.Param(np.ones((2, 2)), "a"), ad.Param(np.ones(3), "b"),
                  ad.Param(np.ones(1), "c")]
        opt = ad.Adam(params, lr=0.1)
        grads = [np.ones_like(p.value) for p in params]
        grads[1][2] = np.nan
        _backprop(params, grads)
        with pytest.raises(FloatingPointError, match="'b'"):
            opt.step()
        for p in params:
            np.testing.assert_array_equal(p.value, np.ones_like(p.value))

    def test_step_before_backward_rejected(self):
        p = ad.Param(np.array([1.0]), "p")
        opt = ad.Adam([p], lr=0.1)
        with pytest.raises(ValueError, match="'p' has no gradient; run backward first"):
            opt.step()
        np.testing.assert_array_equal(p.value, [1.0])

    def test_rebound_gradient_rejected(self):
        """A gradient reaches Adam only through a backward: a Param.grad
        rebound after adoption, even to an array of the right shape, is
        refused and no parameter moves."""
        p = ad.Param(np.array([1.0, -2.0]), "p")
        q = ad.Param(np.array([0.5]), "q")
        opt = ad.Adam([q, p], lr=0.1)
        _backprop([q, p], [np.ones(1), np.ones(2)])
        p.grad = np.array([1.0, 1.0])
        with pytest.raises(ValueError, match="'p' was rebound after this optimizer adopted it"):
            opt.step()
        np.testing.assert_array_equal(p.value, [1.0, -2.0])
        np.testing.assert_array_equal(q.value, [0.5])

    @pytest.mark.parametrize("rebind", ["assign", "second-adam"])
    def test_rebound_value_rejected(self, rebind):
        p = ad.Param(np.array([1.0, -2.0]), "p")
        opt = ad.Adam([p], lr=0.1)
        if rebind == "assign":
            p.value = p.value.copy()
        else:
            ad.Adam([p], lr=0.1)
        _backprop([p], [np.ones(2)])
        with pytest.raises(ValueError, match="'p' was rebound after this optimizer adopted it"):
            opt.step()
        np.testing.assert_array_equal(p.value, [1.0, -2.0])

    def test_flat_adam_matches_per_parameter_reference(self):
        """The flat update equals the per-parameter Adam loop bit for bit."""
        rng = np.random.default_rng(4)
        shapes = [(3, 4), (4,), (5, 2), (1,)]
        flat = [ad.Param(rng.standard_normal(s), f"p{i}") for i, s in enumerate(shapes)]
        ref = [ad.Param(p.value.copy(), p.name) for p in flat]
        opt = ad.Adam(flat, lr=0.03)
        held = [p.value for p in flat]
        ms = [np.zeros(s) for s in shapes]
        vs = [np.zeros(s) for s in shapes]
        for t in range(1, 6):
            grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-3, 3) for s in shapes]
            _backprop(flat, grads)
            for b, g in zip(ref, grads):
                b.grad = g.copy()
            opt.step()
            reference_step(ref, ms, vs, t, 0.03)
            for a, b in zip(flat, ref):
                np.testing.assert_array_equal(a.value, b.value)
            # the flat moments are the per-parameter ones laid end to end
            np.testing.assert_array_equal(opt._m_flat, np.concatenate([m.ravel() for m in ms]))
            np.testing.assert_array_equal(opt._v_flat, np.concatenate([v.ravel() for v in vs]))
        # once adopted, parameters are updated in place, never rebound
        assert all(p.value is h for p, h in zip(flat, held))


# Graph-building steps for the ownership property: (op, first operand, second
# operand), operands picked among the nodes built so far.
GRAPH_STEPS = st.lists(st.tuples(st.sampled_from(["add_self", "add", "mul", "reshape",
                                                  "concat", "sum"]),
                                 st.integers(0, 2**16), st.integers(0, 2**16)),
                       min_size=1, max_size=12)


def _copying_accumulate(node, grad):
    """Reference accumulation that copies every first contribution into an
    array the node owns (a watched Param's own gradient array) and adds
    later ones to it in place."""
    if node.grad is not None:
        node.grad += grad
    elif node.param is not None:
        node.param._grad_buffer[...] = grad
        node.grad = node.param.grad = node.param._grad_buffer
    else:
        node.grad = np.array(grad, dtype=np.float64)


def _ownership_graph(steps, seed, adopt):
    """Backward over a graph built from ``steps``; returns every node."""
    rng = np.random.default_rng(seed)
    params = [ad.Param(rng.standard_normal((2, 3)), "a"),
              ad.Param(rng.standard_normal((3, 2)), "b")]
    if adopt:  # gradient arrays become views of one flat buffer
        ad.Adam(params, lr=0.1)
    tape = ad.Tape()
    built = [tape.watch(p) for p in params] + [tape.constant(rng.standard_normal((2, 3)))]
    for op, i, j in steps:
        x = built[i % len(built)]
        alike = [n for n in built if n.value.shape == x.value.shape]
        rows = [n for n in built if n.value.ndim == 2 and x.value.ndim == 2
                and n.value.shape[0] == x.value.shape[0]]
        if op == "add_self":
            built.append(ad.add(x, x))
        elif op in ("add", "mul"):
            y = alike[j % len(alike)]
            built.append((ad.add if op == "add" else ad.multiply)(x, y))
        elif op == "reshape":
            built.append(ad.reshape(x, x.value.shape[::-1]))
        elif op == "concat" and rows:
            built.append(ad.concat([x, rows[j % len(rows)]]))
        elif op == "sum":
            built.append(ad.vsum(x))
    scalars = [ad.vsum(n) if n.value.ndim else n for n in built[-3:]]
    root = scalars[0]
    for term in scalars[1:]:
        root = ad.add(root, term)
    nodes = list(tape.nodes)
    tape.backward(root)
    return nodes


class TestGradientOwnership:
    @settings(max_examples=80, deadline=None)
    @given(steps=GRAPH_STEPS, seed=st.integers(0, 2**32 - 1), adopt=st.booleans())
    def test_gradients_match_copying_rule_and_params_share_nothing(self, steps, seed, adopt):
        """Rules that forward their own gradient or a view of it (add,
        reshape, concat, sum) hand it over uncopied, yet every node's
        gradient has the bits of a rule that copies every contribution, and
        no watched parameter's gradient shares memory with another node's."""
        nodes = _ownership_graph(steps, seed, adopt)
        with mock.patch.object(ad, "_accumulate", _copying_accumulate):
            reference = _ownership_graph(steps, seed, adopt)
        for node, ref in zip(nodes, reference, strict=True):
            assert (node.grad is None) == (ref.grad is None), node
            if node.grad is not None:
                got, want = np.asarray(node.grad), np.asarray(ref.grad)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), node
        for p in (n for n in nodes if n.param is not None):
            assert p.grad is p.param.grad
            for other in nodes:
                if other is not p and other.grad is not None:
                    assert not np.shares_memory(p.grad, other.grad), (p, other)

    def test_dense_feature_gradient_is_a_view_of_concat_gradient(self):
        """The dense-feature constant keeps its slice of the concat node's
        gradient as given, with no copy per training step."""
        funnel = fd.make_funnel_config(dense_dim=4, n_categorical=1, vocab_size=6,
                                       n_days=1, seed=3)
        net = md.NetworkConfig(dense_input_dim=4, n_categorical=1, vocab_size=6,
                               embedding_dim=3, shared_layer_dims=(8, 6),
                               head_layer_dims=(4, 4))
        ds = fd.generate_day(funnel, 0, 40, seed=10)
        tape = ad.Tape()
        total, _, _ = tr.batch_loss(md.build("ESMM", net, seed=5), tape, ds, np.arange(40))
        nodes = list(tape.nodes)
        tape.backward(total)
        [const] = [n for n in nodes if n.op == "const"]
        [joined] = [n for n in nodes if n.op == "concat"]
        assert const.grad.shape == (40, 4)
        assert np.shares_memory(const.grad, joined.grad)

    def test_unreached_parameter_gets_zero_gradient_every_step(self):
        """A watched parameter the root does not reach gets an exactly-zero
        gradient, never what an earlier step left in its array."""
        rng = np.random.default_rng(5)
        used = ad.Param(rng.standard_normal(4), "used")
        unused = ad.Param(rng.standard_normal(4), "unused")
        opt = ad.Adam([used, unused], lr=0.1)
        for step in range(4):
            tape = ad.Tape()
            a, b = tape.watch(used), tape.watch(unused)
            reaches_both = step % 2 == 0
            tape.backward(ad.vsum(ad.multiply(a, b) if reaches_both else a))
            if reaches_both:
                assert unused.grad.any()
            else:
                assert unused.grad.tobytes() == np.zeros(4).tobytes()
            opt.step()

    @pytest.mark.parametrize("name", md.MODEL_NAMES)
    def test_train_matches_per_parameter_reference(self, name):
        """``train`` leaves the parameter bytes of a loop that runs
        ``batch_loss``, ``backward`` and ``reference_step`` on copied
        gradients, one optimizer state per loss job."""
        funnel = fd.make_funnel_config(dense_dim=4, n_categorical=1, vocab_size=6,
                                       base_click_rate=0.3, base_conv_rate=0.3,
                                       dense_signal=1.0, cat_signal=0.5, n_days=2, seed=3)
        net = md.NetworkConfig(dense_input_dim=4, n_categorical=1, vocab_size=6,
                               embedding_dim=3, shared_layer_dims=(8, 6),
                               head_layer_dims=(4, 4))
        train_ds = fd.generate_day(funnel, 0, 300, seed=10)
        eval_ds = fd.generate_day(funnel, 1, 300, seed=11)
        cfg = tr.TrainConfig(learning_rate=0.05, batch_size=32, epochs=2, seed=7)
        trained, _ = tr.train(md.build(name, net, seed=5), train_ds, eval_ds, cfg)

        model = md.build(name, net, seed=5)
        jobs = [(heads, ds, params, rng, [np.zeros(p.value.shape) for p in params],
                 [np.zeros(p.value.shape) for p in params], [0])
                for heads, ds, params, rng in tr.loss_jobs(model, train_ds, cfg.seed)]
        for _ in range(cfg.epochs):
            for heads, ds, params, rng, ms, vs, t in jobs:
                for idx in tr._epoch_batches(rng, len(ds), cfg.batch_size):
                    tape = ad.Tape()
                    total, _, _ = tr.batch_loss(model, tape, ds, idx, heads)
                    tape.backward(total)
                    for p in params:
                        p.grad = p.grad.copy()
                    t[0] += 1
                    reference_step(params, ms, vs, t[0], cfg.learning_rate)
        assert sum(t[0] for *_, t in jobs) > 10
        for a, b in zip(trained.parameters(), model.parameters()):
            assert a.value.tobytes() == b.value.tobytes(), a.name


class TestDeterminism:
    def test_identical_seed_bit_identical_params(self):
        def run():
            rng = np.random.default_rng(123)
            layer = ad.DenseLayer(4, 3, rng)
            out_layer = ad.DenseLayer(3, 1, rng)
            data_rng = np.random.default_rng(5)
            x = data_rng.standard_normal((8, 4))
            labels = (data_rng.random(8) < 0.3).astype(float)
            opt = ad.Adam(layer.params() + out_layer.params(), lr=0.01)
            for _ in range(25):
                tape = ad.Tape()
                pred = ad.sigmoid(ad.reshape(out_layer(ad.relu(layer(_node(tape, x)))), (8,)))
                loss = ad.weighted_bce(pred, labels, np.ones(8))
                tape.backward(loss)
                opt.step()
            return [p.value.copy() for p in layer.params() + out_layer.params()]

        for a, b in zip(run(), run()):
            np.testing.assert_array_equal(a, b)


class TestOverfitProperty:
    def test_two_layer_net_overfits_separable_batch(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.standard_normal((8, 2)) + 3.0,
                            rng.standard_normal((8, 2)) - 3.0])
        labels = np.array([1.0] * 8 + [0.0] * 8)
        hidden = ad.DenseLayer(2, 8, rng)
        out = ad.DenseLayer(8, 1, rng)
        params = hidden.params() + out.params()
        opt = ad.Adam(params, lr=0.01)
        final = None
        for _ in range(2000):
            tape = ad.Tape()
            pred = ad.sigmoid(ad.reshape(out(ad.relu(hidden(_node(tape, x)))), (16,)))
            loss = ad.weighted_bce(pred, labels, np.ones(16))
            root = ad.scale(loss, 1.0 / 16.0)
            tape.backward(root)
            opt.step()
            final = float(root.value)
        assert final < 0.01


class TestEmbeddingTable:
    def test_lookup_and_gradient_scatter(self):
        rng = np.random.default_rng(1)
        emb = ad.EmbeddingTable(4, 2, rng)
        idx = np.array([1, 1, 3])
        tape = ad.Tape()
        rows = emb.lookup(tape, idx)
        np.testing.assert_array_equal(rows.value, emb.rows.value[idx])
        tape.backward(ad.vsum(rows))
        # repeated index 1 accumulates twice
        np.testing.assert_allclose(emb.rows.grad[1], [2.0, 2.0])
        np.testing.assert_allclose(emb.rows.grad[3], [1.0, 1.0])
        np.testing.assert_allclose(emb.rows.grad[0], [0.0, 0.0])

    def test_gradient_equals_add_at_bit_for_bit(self):
        """Repeated rows sum their contributions in index order and rows
        never looked up get exactly zero, as with np.add.at into zeros."""
        rng = np.random.default_rng(4)
        emb = ad.EmbeddingTable(12, 5, rng)
        idx = np.concatenate([rng.integers(0, 6, 200), [9, 9, 0]])
        upstream = rng.standard_normal((len(idx), 5)) * 10.0 ** rng.integers(-8, 8, (len(idx), 1))
        tape = ad.Tape()
        rows = emb.lookup(tape, idx)
        tape.backward(ad.vsum(ad.multiply(rows, tape.constant(upstream))))
        want = np.zeros_like(emb.rows.value)
        np.add.at(want, idx, upstream)
        assert emb.rows.grad.tobytes() == want.tobytes()
        assert not emb.rows.grad[[6, 7, 8, 10, 11]].any()

    def test_out_of_range_index_rejected(self):
        emb = ad.EmbeddingTable(4, 2, np.random.default_rng(1))
        with pytest.raises(ValueError):
            emb.lookup(ad.Tape(), np.array([4]))


def _leaf(rng, shape, low=-2.0, high=2.0):
    return ad.Param(rng.uniform(low, high, shape))


def _dense_case(rng, n, m, k):
    x = _leaf(rng, (n, m))
    layer = _dense_layer(rng.uniform(-1, 1, (k, m)), rng.uniform(-1, 1, k))
    return [x, *layer.params()], lambda tape: ad.dense_forward(layer, tape.watch(x))


def _relu_case(rng, n, m, k):
    # at least 0.1 from zero, so no finite difference straddles the kink
    x = ad.Param(rng.choice([-1.0, 1.0], (n, m)) * rng.uniform(0.1, 2.0, (n, m)))
    return [x], lambda tape: ad.relu(tape.watch(x))


def _sigmoid_case(rng, n, m, k):
    x = _leaf(rng, (n, m), -4.0, 4.0)
    return [x], lambda tape: ad.sigmoid(tape.watch(x))


def _binary_case(op):
    def case(rng, n, m, k):
        a, b = _leaf(rng, (n, m)), _leaf(rng, (n, m))
        if k == 1:  # one node as both operands: its two contributions must add up
            return [a], lambda tape: op(tape.watch(a), tape.watch(a))
        return [a, b], lambda tape: op(tape.watch(a), tape.watch(b))
    return case


def _scale_case(rng, n, m, k):
    x, c = _leaf(rng, (n, m)), rng.uniform(-3.0, 3.0)
    return [x], lambda tape: ad.scale(tape.watch(x), c)


def _reshape_case(rng, n, m, k):
    x = _leaf(rng, (n, m))
    return [x], lambda tape: ad.reshape(tape.watch(x), (m, n))


def _vsum_case(rng, n, m, k):
    x = _leaf(rng, (n, m))
    return [x], lambda tape: ad.vsum(tape.watch(x))


def _concat_case(rng, n, m, k):
    parts = [_leaf(rng, (n, width)) for width in (m, k, 1)]
    return parts, lambda tape: ad.concat([tape.watch(p) for p in parts])


def _embed_case(rng, n, m, k):
    table = ad.EmbeddingTable(k, m, rng)
    indices = rng.integers(0, k, n + k)  # more lookups than rows: some repeat
    return table.params(), lambda tape: table.lookup(tape, indices)


def _weighted_bce_case(rng, n, m, k):
    # inside the clamp interval, where the loss is differentiable
    pred = _leaf(rng, (n,), 0.05, 0.95)
    labels = rng.integers(0, 2, n).astype(np.float64)
    weights = rng.uniform(0.0, 3.0, n)
    return [pred], lambda tape: ad.weighted_bce(tape.watch(pred), labels, weights)


OP_CASES = {
    "dense": _dense_case, "relu": _relu_case, "sigmoid": _sigmoid_case,
    "multiply": _binary_case(ad.multiply), "add": _binary_case(ad.add),
    "scale": _scale_case, "reshape": _reshape_case, "vsum": _vsum_case,
    "concat": _concat_case, "embed": _embed_case, "weighted_bce": _weighted_bce_case,
}


class TestOpGradientProperties:
    @pytest.mark.parametrize("case", OP_CASES.values(), ids=OP_CASES.keys())
    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 5)] * 3), seed=st.integers(0, 2**32 - 1))
    def test_gradient_matches_finite_differences(self, case, dims, seed):
        """Every op's reverse-mode gradient equals central differences, at
        gradient_check's default tolerance, on random shapes and values."""
        rng = np.random.default_rng(seed)
        params, forward = case(rng, *dims)
        probe = forward(ad.Tape())
        probe.tape.release()
        # a scalar that weighs every output entry differently
        weights = rng.standard_normal(probe.value.shape)

        def loss_fn():
            out = forward(ad.Tape())
            if out.value.ndim == 0:
                return out
            return ad.vsum(ad.multiply(out, out.tape.constant(weights)))

        result = ad.gradient_check(loss_fn, params)
        assert result["passed"], result
