"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tape`` records the forward computation as an ordered list of nodes
(creation order is topological by construction); ``Tape.backward`` walks the
list in reverse from a scalar root and accumulates exact partial derivatives
into every reachable node. A node's gradient is allocated on first touch, as
a copy of its first contribution; nodes the root never reaches get zeros.
Parameters (``Param``) live outside the tape so they persist across training
steps; ``Tape.watch`` binds them as leaf nodes for one forward/backward cycle.

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

# Default Adam hyperparameters.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Node:
    """One computation record: value, parents, and a gradient rule."""

    __slots__ = ("value", "grad", "parents", "op", "backward_fn", "tape", "index")

    def __init__(self, value, parents, op, backward_fn, tape, index):
        self.value = value
        self.grad = None
        self.parents = parents
        self.op = op
        self.backward_fn = backward_fn
        self.tape = tape
        self.index = index

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={np.shape(self.value)}, index={self.index})"


class Param:
    """A persistent trainable array with its latest gradient."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value, name=""):
        value = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"parameter {name!r} has non-finite entries")
        self.value = value
        self.grad = None
        self.name = name

    def __repr__(self):
        return f"Param(name={self.name!r}, shape={self.value.shape})"


class Tape:
    """Ordered record of one forward pass; every node's parents precede it."""

    def __init__(self):
        self.nodes = []
        self._watched = {}

    def _record(self, value, parents, op, backward_fn):
        node = Node(np.asarray(value, dtype=np.float64), parents, op, backward_fn,
                    self, len(self.nodes))
        self.nodes.append(node)
        return node

    def constant(self, value, op="const"):
        """A leaf node whose gradient is tracked but feeds nothing."""
        return self._record(value, (), op, None)

    def watch(self, param):
        """Bind a Param as a leaf node; repeat calls return the same node."""
        node = self._watched.get(param)
        if node is None:
            node = self._record(param.value, (), "param", None)
            self._watched[param] = node
        return node

    def backward(self, root):
        """Accumulate d(root)/d(node) into every node at or before root.

        ``root`` must be a scalar node on this tape. Each node's gradient is
        allocated when the first contribution reaches it; a node nothing
        reached runs no backward rule, and ends the pass with an all-zero
        gradient. After the pass, watched Params carry their gradients in
        ``.grad`` and the tape is released: it is single-use, and calling
        ``backward`` on it again raises ``ValueError``.
        """
        if self.nodes is None:
            raise ValueError("tape was already released; record a new tape")
        if root.tape is not self:
            raise ValueError("backward root belongs to a different tape")
        if np.ndim(root.value) != 0:
            raise ValueError(f"backward root must be scalar, got shape {np.shape(root.value)}")
        try:
            root.grad = np.ones_like(root.value)
            for node in reversed(self.nodes[: root.index + 1]):
                if node.grad is not None and node.backward_fn is not None:
                    node.backward_fn(node.grad)
            for node in self.nodes:
                if node.grad is None:
                    node.grad = np.zeros_like(node.value)
            for param, node in self._watched.items():
                param.grad = node.grad
        finally:
            self.release()

    def release(self):
        """Drop the node list and the watched map, breaking the node <-> tape
        reference cycle; nodes keep their values and gradients."""
        self.nodes = None
        self._watched = None


def _accumulate(node, grad):
    """Add one gradient contribution to ``node``.

    The first contribution is copied, never kept: it may be another node's
    gradient or a view of one, which a later ``+=`` must not change.
    """
    if node.grad is None:
        node.grad = np.array(grad, dtype=np.float64)
    else:
        node.grad += grad


def _as_node(tape, x):
    return x if isinstance(x, Node) else tape.constant(x)


def relu(x):
    """Elementwise max(0, v); the subgradient at 0 is 0."""
    def backward_fn(out_grad):
        _accumulate(x, out_grad * (x.value > 0))

    return x.tape._record(np.maximum(x.value, 0.0), (x,), "relu", backward_fn)


def _stable_sigmoid_values(v):
    # exp(-|v|) never overflows; the two branches cover both signs exactly.
    e = np.exp(-np.abs(v))
    out = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    # Keep the open interval (0, 1): the true sigmoid never reaches either end,
    # so round saturated outputs to the nearest representable interior double.
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def sigmoid(x):
    """Numerically stable logistic function; output stays inside (0, 1)."""
    value = _stable_sigmoid_values(x.value)

    def backward_fn(out_grad):
        _accumulate(x, out_grad * value * (1.0 - value))

    return x.tape._record(value, (x,), "sigmoid", backward_fn)


def multiply(a, b):
    """Elementwise product of two same-shape nodes."""
    if np.shape(a.value) != np.shape(b.value):
        raise ValueError(f"multiply shape mismatch: {np.shape(a.value)} vs {np.shape(b.value)}")

    def backward_fn(out_grad):
        _accumulate(a, out_grad * b.value)
        _accumulate(b, out_grad * a.value)

    return a.tape._record(a.value * b.value, (a, b), "mul", backward_fn)


def add(a, b):
    """Elementwise sum of two same-shape nodes."""
    if np.shape(a.value) != np.shape(b.value):
        raise ValueError(f"add shape mismatch: {np.shape(a.value)} vs {np.shape(b.value)}")

    def backward_fn(out_grad):
        _accumulate(a, out_grad)
        _accumulate(b, out_grad)

    return a.tape._record(a.value + b.value, (a, b), "add", backward_fn)


def scale(x, c):
    """Multiply a node by a python constant."""
    c = float(c)

    def backward_fn(out_grad):
        _accumulate(x, out_grad * c)

    return x.tape._record(x.value * c, (x,), "scale", backward_fn)


def reshape(x, shape):
    def backward_fn(out_grad):
        _accumulate(x, out_grad.reshape(x.value.shape))

    return x.tape._record(x.value.reshape(shape), (x,), "reshape", backward_fn)


def vsum(x):
    """Sum all entries of a node into a scalar."""
    def backward_fn(out_grad):
        _accumulate(x, np.broadcast_to(out_grad, x.value.shape))

    return x.tape._record(x.value.sum(), (x,), "sum", backward_fn)


def concat(parts, axis=-1):
    """Concatenate nodes along an axis (used to join dense and embedded features)."""
    sizes = [p.value.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def backward_fn(out_grad):
        for part, piece in zip(parts, np.split(out_grad, offsets, axis=axis)):
            _accumulate(part, piece)

    value = np.concatenate([p.value for p in parts], axis=axis)
    return parts[0].tape._record(value, tuple(parts), "concat", backward_fn)


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

    @classmethod
    def from_arrays(cls, weights, biases, name="dense"):
        weights = np.asarray(weights, dtype=np.float64)
        biases = np.asarray(biases, dtype=np.float64)
        if weights.ndim != 2 or biases.shape != (weights.shape[0],):
            raise ValueError("weights must be (out, in) and biases (out,)")
        layer = cls.__new__(cls)
        layer.in_dim = weights.shape[1]
        layer.out_dim = weights.shape[0]
        layer.weights = Param(weights, name=f"{name}.weights")
        layer.biases = Param(biases, name=f"{name}.biases")
        return layer

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
        _accumulate(w, out_grad.T @ x.value)
        _accumulate(b, out_grad.sum(axis=0))
        _accumulate(x, out_grad @ layer.weights.value)

    return tape._record(value, (x, w, b), "dense", backward_fn)


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
        if indices.size and (indices.min() < 0 or indices.max() >= self.vocab_size):
            raise ValueError(
                f"embedding index out of range [0, {self.vocab_size}): "
                f"min={indices.min()}, max={indices.max()}")
        rows = tape.watch(self.rows)

        def backward_fn(out_grad):
            # Scatter-add as one bincount over flat (row, column) bins: each
            # bin sums its contributions in index order from 0.0, the same
            # operations as np.add.at into a zero gradient.
            bins = (indices.reshape(-1, 1) * self.dim + np.arange(self.dim)).ravel()
            grad = np.bincount(bins, weights=out_grad.ravel(), minlength=self.rows.value.size)
            _accumulate(rows, grad.reshape(self.rows.value.shape))

        return tape._record(self.rows.value[indices], (rows,), "embed", backward_fn)


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
    if labels.shape != np.shape(pred.value) or weights.shape != np.shape(pred.value):
        raise ValueError(
            f"weighted_bce shape mismatch: pred {np.shape(pred.value)}, "
            f"labels {labels.shape}, weights {weights.shape}")
    if np.any(weights < 0):
        raise ValueError("weighted_bce weights must be nonnegative")
    p = np.clip(pred.value, CLAMP_EPS, 1.0 - CLAMP_EPS)
    losses = -(labels * np.log(p) + (1.0 - labels) * np.log1p(-p))
    value = np.sum(weights * losses)

    def backward_fn(out_grad):
        in_range = (pred.value > CLAMP_EPS) & (pred.value < 1.0 - CLAMP_EPS)
        dp = weights * (-(labels / p) + (1.0 - labels) / (1.0 - p)) * in_range
        _accumulate(pred, out_grad * dp)

    return pred.tape._record(value, (pred,), "weighted_bce", backward_fn)


class Adam:
    """First/second-moment adaptive optimizer with bias correction.

    Both moments live in flat arrays over all parameters (``_m`` and ``_v``
    hold per-parameter views of them). Each step gathers every gradient into
    one preallocated buffer, checks it for finiteness once and updates it in
    one vectorised pass; each parameter's array is then updated in place, so
    callers holding a ``Param.value`` keep seeing the live weights.
    """

    def __init__(self, params, lr, beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        n = sum(p.value.size for p in self.params)
        self._grad = np.empty(n)
        self._step = np.empty(n)
        self._denom = np.empty(n)
        self._m_flat = np.zeros(n)
        self._v_flat = np.zeros(n)
        self._m, self._v, self._steps = [], [], []
        start = 0
        for p in self.params:
            end = start + p.value.size
            self._m.append(self._m_flat[start:end].reshape(p.value.shape))
            self._v.append(self._v_flat[start:end].reshape(p.value.shape))
            self._steps.append(self._step[start:end].reshape(p.value.shape))
            start = end

    def step(self):
        grads = [p.grad for p in self.params]
        for param, g in zip(self.params, grads):
            if g is None:
                raise ValueError(f"parameter {param.name!r} has no gradient; run backward first")
        g = self._grad
        np.concatenate([np.ravel(grad) for grad in grads], out=g)
        if not np.isfinite(g).all():
            bad = next(p for p in self.params if not np.all(np.isfinite(p.grad)))
            raise FloatingPointError(
                f"non-finite gradient for {bad.name!r}: training diverged")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        m, v, step, denom = self._m_flat, self._v_flat, self._step, self._denom
        # lr * (m / bc1) / (sqrt(v / bc2) + eps), the same operations as the
        # per-parameter form, computed into the preallocated buffers.
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=step)
        m += step
        v *= self.beta2
        np.multiply(g, g, out=step)
        step *= 1.0 - self.beta2
        v += step
        np.divide(m, bc1, out=step)
        step *= self.lr
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        for param, param_step in zip(self.params, self._steps):
            param.value -= param_step


def gradient_check(loss_fn, params, h=1e-5, rel_tol=1e-4, abs_tol=1e-7,
                   small_grad=1e-4, max_coords_per_param=None, rng=None):
    """Compare reverse-mode gradients against central finite differences.

    ``loss_fn`` rebuilds the forward pass and returns a scalar root node.
    Each checked coordinate must satisfy |analytic - fd| <= rel_tol *
    max(|analytic|, |fd|), or |analytic - fd| <= abs_tol when the analytic
    gradient's magnitude is below ``small_grad``. Returns a dict with the
    worst relative/absolute errors and a pass flag.
    """
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
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(flat.size, size=max_coords_per_param, replace=False)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_value()
            flat[idx] = orig - h
            down = loss_value()
            flat[idx] = orig
            fd = (up - down) / (2.0 * h)
            a = grad.reshape(-1)[idx]
            err = abs(a - fd)
            denom = max(abs(a), abs(fd))
            worst_abs = max(worst_abs, err)
            if abs(a) < small_grad:
                if err > abs_tol:
                    ok = False
                worst_rel = max(worst_rel, err / max(denom, small_grad))
            else:
                rel = err / denom
                worst_rel = max(worst_rel, rel)
                if rel > rel_tol:
                    ok = False
    return {"passed": ok, "max_rel_err": worst_rel, "max_abs_err": worst_abs}
