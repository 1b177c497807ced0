"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tape`` records the forward computation as an ordered list of nodes
(creation order is topological by construction); ``Tape.backward`` walks the
list in reverse from a scalar root and accumulates exact partial derivatives
into every reachable node. One rule decides where gradients live: only a
watched Param's own gradient array is ever written in place. Any other node
keeps its first contribution as given, which may be another node's gradient
or a view of it (add, reshape, concat, sum), and each later contribution
makes a new array. Nodes the root never reaches keep ``grad`` None.

Parameters (``Param``) live outside the tape so they persist across training
steps; ``Tape.watch`` binds them as leaf nodes for one forward/backward cycle.
Each Param owns one gradient array, which backward fills (zeros if the root
never reaches the parameter) and binds to ``Param.grad``; the next backward
overwrites it, so copy it to keep it. ``Adam`` adopts its parameters when
built: their values and gradient arrays become views of its flat arrays, so
backward writes where the update reads. A gradient reaches Adam only through
a backward; a ``Param.grad`` or ``Param.value`` rebound after adoption is
refused.

A tape is single-use: ``backward`` ends by calling ``Tape.release``, which
drops the tape's node list and so breaks the node <-> tape reference cycle.
A released tape is freed by reference counting as soon as its nodes are, and
a second ``backward`` on it raises ``ValueError``. Forward-only callers call
``release`` once they have read the values they need.

Tapes are single-threaded. Distinct tapes/models share no mutable state, so
independent training runs can execute concurrently.
"""

import math

import numpy as np

# Predictions are clamped into [CLAMP_EPS, 1 - CLAMP_EPS] before any log.
CLAMP_EPS = 1e-7

# Adam hyperparameters.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# gradient_check's step and tolerances; its docstring says how they apply.
GRADCHECK_STEP = 1e-5
GRADCHECK_REL_TOL = 1e-4
GRADCHECK_ABS_TOL = 1e-7
GRADCHECK_SMALL_GRAD = 1e-4


class Node:
    """One computation record: value, op name, a gradient rule, and for a
    watched leaf its ``param``."""

    __slots__ = ("value", "grad", "op", "backward_fn", "tape", "index", "param")

    def __init__(self, value, op, backward_fn, tape, index):
        self.value = value
        self.grad = None
        self.op = op
        self.backward_fn = backward_fn
        self.tape = tape
        self.index = index
        self.param = None

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={np.shape(self.value)}, index={self.index})"


class Param:
    """A persistent trainable array with its latest gradient (None until a
    backward on a tape that watches it)."""

    __slots__ = ("value", "grad", "name", "_grad_buffer")

    def __init__(self, value, name=""):
        value = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"parameter {name!r} has non-finite entries")
        self.value = value
        self.grad = None
        self.name = name
        self._grad_buffer = np.empty_like(value)

    def __repr__(self):
        return f"Param(name={self.name!r}, shape={self.value.shape})"


class Tape:
    """Ordered record of one forward pass; every node's parents precede it."""

    def __init__(self):
        self.nodes = []
        self._watched = {}

    def _record(self, value, op, backward_fn):
        if type(value) is not np.ndarray:  # a numpy scalar from a 0-d op
            value = np.asarray(value, dtype=np.float64)
        nodes = self.nodes
        node = Node(value, op, backward_fn, self, len(nodes))
        nodes.append(node)
        return node

    def constant(self, value):
        """A leaf node whose gradient is tracked but feeds nothing."""
        return self._record(np.asarray(value, dtype=np.float64), "const", None)

    def watch(self, param):
        """Bind a Param as a leaf node; repeat calls return the same node."""
        node = self._watched.get(param)
        if node is None:
            node = self._watched[param] = self._record(param.value, "param", None)
            node.param = param
        return node

    def backward(self, root):
        """Accumulate d(root)/d(node) into every node at or before root.

        ``root`` must be a scalar node on this tape. Each node's gradient is
        set when the first contribution reaches it; a node nothing reached
        runs no backward rule and keeps ``grad`` None, but a watched Param's
        array is zero-filled: after the pass, every watched Param's ``.grad``
        is its own gradient array. The tape is then released: calling
        ``backward`` on it again raises ``ValueError``.
        """
        nodes = self.nodes
        if nodes is None:
            raise ValueError("tape was already released; record a new tape")
        if root.tape is not self:
            raise ValueError("backward root belongs to a different tape")
        if root.value.ndim != 0:
            raise ValueError(f"backward root must be scalar, got shape {root.value.shape}")
        try:
            _accumulate(root, np.ones(root.value.shape))
            # A node's consumers all come after it, so a node still without a
            # gradient when the walk reaches it is one the root never reaches.
            for node in reversed(nodes[: root.index + 1]):
                if node.grad is not None and node.backward_fn is not None:
                    node.backward_fn(node.grad)
            # Adam reads every Param's gradient, reached or not.
            for node in self._watched.values():
                if node.grad is None:
                    _accumulate(node, 0.0)
        finally:
            self.release()

    def release(self):
        """Drop the node list and the watched map, breaking the node <-> tape
        reference cycle; nodes keep their values and gradients."""
        self.nodes = None
        self._watched = None


def _accumulate(node, grad):
    """Add one gradient contribution to ``node``.

    A watched Param's contributions are summed in place into its own gradient
    array (where a rule may have computed the first one). Any other node
    keeps its first contribution as given and makes a new array for each
    later one, so no array a node received is ever written to.
    """
    if node.param is None:
        node.grad = grad if node.grad is None else node.grad + grad
    elif node.grad is not None:
        node.grad += grad
    else:
        buffer = node.param._grad_buffer
        if grad is not buffer:
            buffer[...] = grad
        node.grad = node.param.grad = buffer


def _target(node):
    """The ``out`` array for a contribution to ``node``: the Param's own
    gradient array on a watched Param's first touch, else None (allocate)."""
    if node.grad is None and node.param is not None:
        return node.param._grad_buffer
    return None


def relu(x):
    """Elementwise max(0, v); the subgradient at 0 is 0."""
    def backward_fn(out_grad):
        # A 0/1 float mask: the same products as a bool mask, computed faster.
        grad = np.greater(x.value, 0.0, out=np.empty(x.value.shape), casting="unsafe")
        grad *= out_grad
        _accumulate(x, grad)

    return x.tape._record(np.maximum(x.value, 0.0), "relu", backward_fn)


def _stable_sigmoid_values(v):
    """1 / (1 + e) where v >= 0 and e / (1 + e) elsewhere, with e = exp(-|v|)
    (no overflow), in one buffer; a 0-d v gives a 0-d array."""
    e = np.exp(np.copysign(v, -1.0), out=np.empty(v.shape))
    d = 1.0 + e
    # e <= 1 where v >= 0, so the larger of (v >= 0) and e is 1 there and e
    # elsewhere: one plain divide gives both branches.
    np.maximum(v >= 0, e, out=e)
    return np.divide(e, d, out=e)


# The true sigmoid never reaches either end of (0, 1), so saturated outputs
# are rounded to the nearest representable interior double.
_SIGMOID_LOW = np.nextafter(0.0, 1.0)
_SIGMOID_HIGH = np.nextafter(1.0, 0.0)


def sigmoid(x):
    """Numerically stable logistic function; output stays inside (0, 1)."""
    value = _stable_sigmoid_values(x.value)
    np.maximum(value, _SIGMOID_LOW, out=value)
    np.minimum(value, _SIGMOID_HIGH, out=value)

    def backward_fn(out_grad):
        _accumulate(x, out_grad * value * (1.0 - value))

    return x.tape._record(value, "sigmoid", backward_fn)


def multiply(a, b):
    """Elementwise product of two same-shape nodes."""
    if a.value.shape != b.value.shape:
        raise ValueError(f"multiply shape mismatch: {a.value.shape} vs {b.value.shape}")

    def backward_fn(out_grad):
        _accumulate(a, out_grad * b.value)
        _accumulate(b, out_grad * a.value)

    return a.tape._record(a.value * b.value, "mul", backward_fn)


def add(a, b):
    """Elementwise sum of two same-shape nodes."""
    if a.value.shape != b.value.shape:
        raise ValueError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")

    def backward_fn(out_grad):
        _accumulate(a, out_grad)
        _accumulate(b, out_grad)

    return a.tape._record(a.value + b.value, "add", backward_fn)


def scale(x, c):
    """Multiply a node by a python constant."""
    c = float(c)

    def backward_fn(out_grad):
        _accumulate(x, out_grad * c)

    return x.tape._record(x.value * c, "scale", backward_fn)


def reshape(x, shape):
    def backward_fn(out_grad):
        _accumulate(x, out_grad.reshape(x.value.shape))

    return x.tape._record(x.value.reshape(shape), "reshape", backward_fn)


def vsum(x):
    """Sum all entries of a node into a scalar."""
    def backward_fn(out_grad):
        _accumulate(x, np.broadcast_to(out_grad, x.value.shape))

    return x.tape._record(x.value.sum(), "sum", backward_fn)


def concat(parts):
    """Concatenate nodes along the last axis (joins dense and embedded features)."""
    value = np.concatenate([p.value for p in parts], axis=-1)

    def backward_fn(out_grad):
        stop = 0
        for part in parts:
            start, stop = stop, stop + part.value.shape[-1]
            _accumulate(part, out_grad[..., start:stop])

    return parts[0].tape._record(value, "concat", backward_fn)


class DenseLayer:
    """Affine layer: weights (out_dim x in_dim) and biases (out_dim,).

    Dimensions are fixed at construction. Weights start uniform in
    +-sqrt(6 / (fan_in + fan_out)), biases at zero.
    """

    def __init__(self, in_dim, out_dim, rng, name="dense"):
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError(f"layer dims must be positive, got ({in_dim}, {out_dim})")
        limit = math.sqrt(6.0 / (in_dim + out_dim))
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weights = Param(rng.uniform(-limit, limit, size=(out_dim, in_dim)),
                             name=f"{name}.weights")
        self.biases = Param(np.zeros(out_dim), name=f"{name}.biases")

    def params(self):
        return [self.weights, self.biases]

    def __call__(self, x):
        return dense_forward(self, x)


def dense_forward(layer, x):
    """x . weights^T + biases for a batch x of shape (n, in_dim), recorded on
    the tape of ``x``."""
    if x.value.ndim != 2 or x.value.shape[1] != layer.in_dim:
        raise ValueError(f"dense input must be (n, {layer.in_dim}), got {x.value.shape}")
    tape = x.tape
    w = tape.watch(layer.weights)
    b = tape.watch(layer.biases)
    value = x.value @ layer.weights.value.T
    value += layer.biases.value

    def backward_fn(out_grad):
        _accumulate(w, np.matmul(out_grad.T, x.value, out=_target(w)))
        _accumulate(b, np.add.reduce(out_grad, axis=0, out=_target(b)))
        _accumulate(x, out_grad @ layer.weights.value)

    return tape._record(value, "dense", backward_fn)


class EmbeddingTable:
    """Lookup table of vocab_size rows, each a dim-vector."""

    def __init__(self, vocab_size, dim, rng, name="embedding"):
        if vocab_size <= 0 or dim <= 0:
            raise ValueError(f"embedding dims must be positive, got ({vocab_size}, {dim})")
        limit = math.sqrt(6.0 / (vocab_size + dim))
        self.vocab_size = vocab_size
        self.dim = dim
        self.rows = Param(rng.uniform(-limit, limit, size=(vocab_size, dim)),
                          name=f"{name}.rows")

    def params(self):
        return [self.rows]

    def lookup(self, tape, indices):
        """Gather rows for an int index batch (n,) -> (n, dim)."""
        indices = np.asarray(indices)
        # A negative index wraps to a huge unsigned one, so one max checks both ends.
        if indices.size and indices.astype(np.uint64).max() >= self.vocab_size:
            raise ValueError(
                f"embedding index out of range [0, {self.vocab_size}): "
                f"min={indices.min()}, max={indices.max()}")
        rows = tape.watch(self.rows)

        def backward_fn(out_grad):
            # Scatter-add as one bincount over flat (row, column) bins: each
            # bin sums its contributions in index order from 0.0, the same
            # operations as np.add.at into a zero gradient.
            bins = np.add.outer(indices * self.dim, np.arange(self.dim)).ravel()
            grad = np.bincount(bins, weights=out_grad.ravel(), minlength=self.rows.value.size)
            _accumulate(rows, grad.reshape(self.rows.value.shape))

        return tape._record(self.rows.value[indices], "embed", backward_fn)


def weighted_bce(pred, labels, weights):
    """Weighted binary cross-entropy, reduced to a scalar sum.

    ``pred`` is a node of probabilities; ``labels`` and ``weights`` are plain
    arrays (no gradient flows to them). Predictions are clamped into
    [CLAMP_EPS, 1 - CLAMP_EPS] before the logs; the clamp's subgradient is
    zero outside that interval, so the result is the exact derivative of the
    computed function. A weight of zero contributes exactly zero loss and
    exactly zero gradient.
    """
    labels = np.asarray(labels, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if labels.shape != pred.value.shape or weights.shape != pred.value.shape:
        raise ValueError(
            f"weighted_bce shape mismatch: pred {pred.value.shape}, "
            f"labels {labels.shape}, weights {weights.shape}")
    if not (weights >= 0).all():  # also false for NaN
        raise ValueError("weighted_bce weights must be nonnegative")
    p = np.minimum(np.maximum(pred.value, CLAMP_EPS), 1.0 - CLAMP_EPS)
    negatives = 1.0 - labels
    # Negating the sum instead of every loss term, and subtracting instead of
    # adding a negated term, round exactly as the textbook forms do.
    value = -np.add.reduce(weights * (labels * np.log(p) + negatives * np.log1p(-p)),
                           axis=None)

    def backward_fn(out_grad):
        in_range = (pred.value > CLAMP_EPS) & (pred.value < 1.0 - CLAMP_EPS)
        dp = weights * (negatives / (1.0 - p) - labels / p) * in_range
        _accumulate(pred, out_grad * dp)

    return pred.tape._record(value, "weighted_bce", backward_fn)


class Adam:
    """First/second-moment adaptive optimizer with bias correction.

    Adam adopts its parameters when built: each ``Param.value`` and the
    gradient array backward writes into become views of flat arrays over
    all parameters; the moments ``_m_flat`` and ``_v_flat`` are flat arrays
    in the same order. A gradient reaches Adam only through a backward, which
    binds each ``Param.grad`` to the parameter's slice of the flat gradient.
    Each step checks the flat gradient for finiteness once and updates every
    parameter in place in one vectorised pass. A parameter whose ``grad`` or
    ``value`` is rebound after adoption, for example by another Adam
    adopting it, makes ``step`` raise.
    """

    def __init__(self, params, lr):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("Adam parameters must be distinct")
        self.lr = float(lr)
        self.t = 0
        n = sum(p.value.size for p in self.params)
        self._value = np.empty(n)
        self._grad = np.empty(n)
        self._step = np.empty(n)
        self._denom = np.empty(n)
        self._m_flat = np.zeros(n)
        self._v_flat = np.zeros(n)
        self._adopted = []
        start = 0
        for p in self.params:
            end = start + p.value.size
            value, grad = (flat[start:end].reshape(p.value.shape)
                           for flat in (self._value, self._grad))
            value[...] = p.value
            p.value, p._grad_buffer = value, grad
            self._adopted.append((p, value, grad))
            start = end

    def step(self):
        # Backward binds each Param.grad to its slice of the flat gradient;
        # two identity tests per parameter catch a missing backward and a
        # rebound Param.grad or Param.value.
        for param, value, grad in self._adopted:
            if param.grad is not grad or param.value is not value:
                if param.grad is None:
                    raise ValueError(
                        f"parameter {param.name!r} has no gradient; run backward first")
                raise ValueError(f"parameter {param.name!r} was rebound after this "
                                 "optimizer adopted it")
        g = self._grad
        if not np.isfinite(g).all():
            bad = next(p for p in self.params if not np.isfinite(p.grad).all())
            raise FloatingPointError(
                f"non-finite gradient for {bad.name!r}: training diverged")
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        m, v, step, denom = self._m_flat, self._v_flat, self._step, self._denom
        # lr * (m / bc1) / (sqrt(v / bc2) + eps), the same operations as the
        # per-parameter form, computed into the preallocated buffers.
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        m += step
        v *= ADAM_BETA2
        np.multiply(g, g, out=step)
        step *= 1.0 - ADAM_BETA2
        v += step
        np.divide(m, bc1, out=step)
        step *= self.lr
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        self._value -= step


def gradient_check(loss_fn, params, max_coords_per_param=None, rng=None):
    """Compare reverse-mode gradients against central differences of step GRADCHECK_STEP.

    ``loss_fn`` rebuilds the forward pass and returns a scalar root node.
    Each checked coordinate must satisfy |analytic - fd| <= GRADCHECK_REL_TOL
    * max(|analytic|, |fd|), or |analytic - fd| <= GRADCHECK_ABS_TOL when the
    analytic gradient's magnitude is below GRADCHECK_SMALL_GRAD. Returns a
    dict with the worst relative/absolute errors and a pass flag.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    root = loss_fn()
    root.tape.backward(root)
    analytic = [np.array(p.grad, copy=True) for p in params]

    def loss_value():
        node = loss_fn()
        node.tape.release()
        return float(node.value)

    worst_rel = 0.0
    worst_abs = 0.0
    ok = True
    for param, grad in zip(params, analytic):
        flat = param.value.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords_per_param is not None and flat.size > max_coords_per_param:
            coords = rng.choice(flat.size, size=max_coords_per_param, replace=False)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + GRADCHECK_STEP
            up = loss_value()
            flat[idx] = orig - GRADCHECK_STEP
            down = loss_value()
            flat[idx] = orig
            fd = (up - down) / (2.0 * GRADCHECK_STEP)
            a = grad.reshape(-1)[idx]
            err = abs(a - fd)
            denom = max(abs(a), abs(fd))
            worst_abs = max(worst_abs, err)
            if abs(a) < GRADCHECK_SMALL_GRAD:
                if err > GRADCHECK_ABS_TOL:
                    ok = False
                worst_rel = max(worst_rel, err / max(denom, GRADCHECK_SMALL_GRAD))
            else:
                rel = err / denom
                worst_rel = max(worst_rel, rel)
                if rel > GRADCHECK_REL_TOL:
                    ok = False
    return {"passed": ok, "max_rel_err": worst_rel, "max_abs_err": worst_abs}
