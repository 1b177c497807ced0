"""The six click/conversion model designs as one parameterized family.

Every design is described by three boolean characteristics:

* shared_params  - one trunk feeding both task heads vs. disjoint towers
* entire_space   - the conversion-side loss targets the joint event
                   p(conversion, click | x) on all impressions, instead of
                   the conditional p(conversion | click, x) on clicked ones
* weighted_cvr   - the joint prediction is composed as the click sigmoid
                   times an implicit conditional-conversion sigmoid, so the
                   conversion loss is implicitly weighted by the click
                   prediction (the reconnection adds no trainable parameters
                   and no loss is attached to the implicit node itself)

The name -> flags table below is asserted as data in the test suite, and
it alone decides each design's wiring:

* An entire-space design without the reconnection (entire_space and not
  weighted_cvr: ESSP-Split, ESP) has a head predicting the joint directly.
  Every other design has a conditional ``cvr`` head, and joint = ctr x cvr
  (exact, so joint <= ctr always).
* Every design has a ``ctr`` head, except a non-shared one with a direct
  joint head (ESP): its click tower could not reach the joint, so it is
  dropped and no click prediction exists.
* shared_params gives one ``shared`` stack under every head; otherwise each
  head has its own ``<head>_tower`` stack (a lone head keeps ``shared``).

The loss regime and the training jobs follow from the same flags; see
``training``.

Models are mutable during training only; a trained model is safe for
concurrent read-only prediction.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import funnel as fd

MODEL_NAMES = ("IP", "ESMM", "ESMM-NS", "ESSP-Split", "IPSP", "ESP")

# Rows per forward pass in ``Model.predict_all``. A whole eval set in one
# pass gives every dense layer full-height temporaries (30k x 64 doubles is
# 15 MB) on fresh pages; at this height they are 1 MB and stay in cache.
# BLAS can round a row differently in the last bit when it sits in a short
# block (OpenBLAS: under ~150 rows) or one whose height is not a multiple of
# its kernel's row tile; a power of two this tall is neither, and the
# remainder joins the last block, so every row equals its one-pass value.
PREDICT_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class ModelCharacteristics:
    shared_params: bool
    entire_space: bool
    weighted_cvr: bool
    name: str


MODEL_TABLE = {
    "IP": ModelCharacteristics(False, False, False, "IP"),
    "ESMM": ModelCharacteristics(True, True, True, "ESMM"),
    "ESMM-NS": ModelCharacteristics(False, True, True, "ESMM-NS"),
    "ESSP-Split": ModelCharacteristics(True, True, False, "ESSP-Split"),
    "IPSP": ModelCharacteristics(True, False, False, "IPSP"),
    "ESP": ModelCharacteristics(False, True, False, "ESP"),
}


@dataclass(frozen=True)
class NetworkConfig:
    """Network dimensions shared by every design.

    Two trunk layers after the feature embeddings, then two layers per head,
    by default. Head widths are kept small relative to embeddings and trunk
    so single-graph designs (one or two heads) stay within 5% of each other
    in trainable-parameter count; the dual-tower designs (IP, ESMM-NS) run
    about twice the single-tower count.
    """

    dense_input_dim: int = 16
    n_categorical: int = 2
    vocab_size: int = 100
    embedding_dim: int = 16
    shared_layer_dims: tuple = (64, 32)
    head_layer_dims: tuple = (8, 8)

    def __post_init__(self):
        object.__setattr__(self, "shared_layer_dims", tuple(self.shared_layer_dims))
        object.__setattr__(self, "head_layer_dims", tuple(self.head_layer_dims))
        if len(self.shared_layer_dims) != 2 or len(self.head_layer_dims) != 2:
            raise ValueError("shared_layer_dims and head_layer_dims need exactly 2 entries")
        dims = (self.dense_input_dim, self.embedding_dim,
                *self.shared_layer_dims, *self.head_layer_dims)
        if any(d <= 0 for d in dims) or self.vocab_size <= 0:
            raise ValueError(f"network dims must be positive, got {self}")
        if self.n_categorical < 0:
            raise ValueError("n_categorical must be nonnegative")


class _Stack:
    """Feature embeddings plus the two trunk layers."""

    def __init__(self, net, rng, name):
        self.embeddings = [
            ad.EmbeddingTable(net.vocab_size, net.embedding_dim, rng,
                              name=f"{name}.emb{j}")
            for j in range(net.n_categorical)
        ]
        in_dim = net.dense_input_dim + net.n_categorical * net.embedding_dim
        dims = [in_dim, *net.shared_layer_dims]
        self.layers = [
            ad.DenseLayer(dims[i], dims[i + 1], rng, name=f"{name}.trunk{i}")
            for i in range(len(dims) - 1)
        ]
        self.out_dim = dims[-1]

    def forward(self, tape, dense, cats):
        parts = [tape.constant(dense)]
        parts += [emb.lookup(tape, cats[:, j]) for j, emb in enumerate(self.embeddings)]
        h = ad.concat(parts) if len(parts) > 1 else parts[0]
        for layer in self.layers:
            h = ad.relu(layer(h))
        return h

    def params(self):
        out = []
        for emb in self.embeddings:
            out += emb.params()
        for layer in self.layers:
            out += layer.params()
        return out


class _Head:
    """Two head layers plus a single-logit output, ending in a sigmoid."""

    def __init__(self, in_dim, net, rng, name):
        dims = [in_dim, *net.head_layer_dims]
        self.layers = [
            ad.DenseLayer(dims[i], dims[i + 1], rng, name=f"{name}.layer{i}")
            for i in range(len(dims) - 1)
        ]
        self.out = ad.DenseLayer(dims[-1], 1, rng, name=f"{name}.out")

    def forward(self, h):
        for layer in self.layers:
            h = ad.relu(layer(h))
        logit = ad.reshape(self.out(h), (h.value.shape[0],))
        return ad.sigmoid(logit)

    def params(self):
        out = []
        for layer in self.layers:
            out += layer.params()
        return out + self.out.params()


class Model:
    """A built design: towers, heads, and the prediction compositions."""

    def __init__(self, characteristics, net, stacks, heads, wiring):
        self.characteristics = characteristics
        self.net = net
        self._stacks = stacks          # name -> _Stack
        self._heads = heads            # name -> _Head
        self._wiring = wiring          # head name -> stack name

    @property
    def name(self):
        return self.characteristics.name

    def parameters(self):
        out = []
        for stack_name in self._stacks:
            out += self._stacks[stack_name].params()
            for head_name, tower in self._wiring.items():
                if tower == stack_name:
                    out += self._heads[head_name].params()
        return out

    def tower_parameters(self, head_name):
        """Parameters of one tower: its stack plus the named head."""
        stack = self._stacks[self._wiring[head_name]]
        return stack.params() + self._heads[head_name].params()

    def forward_heads(self, tape, dense, cats, heads=None):
        """Run the heads on one tape; returns nodes keyed ctr/cvr/joint.

        ``heads`` selects a subset (default: all), and only the stacks
        under it run. The joint output is the product of the click and
        conditional sigmoids when both are selected, or the direct head.
        """
        net = self.net
        dense, cats = fd.check_batch(dense, cats, net.dense_input_dim, net.n_categorical,
                                     net.vocab_size)
        heads = tuple(self._heads) if heads is None else heads
        reps = {tower: self._stacks[tower].forward(tape, dense, cats)
                for tower in dict.fromkeys(self._wiring[name] for name in heads)}
        out = {name: self._heads[name].forward(reps[self._wiring[name]])
               for name in heads}
        if "ctr" in out and "cvr" in out:
            out["joint"] = ad.multiply(out["ctr"], out["cvr"])
        return out

    def predict_all(self, dense, cats):
        """Raw-array predictions for a batch; no gradients retained.

        Rows run through ``forward_heads`` in blocks of PREDICT_BLOCK_ROWS,
        one tape per block, released as soon as its values are copied out;
        the last block takes the remainder (so it holds up to twice as many
        rows), and a batch shorter than one block is one forward pass.
        """
        net = self.net
        dense, cats = fd.check_batch(dense, cats, net.dense_input_dim, net.n_categorical,
                                     net.vocab_size)
        n = len(dense)
        starts = range(0, n - PREDICT_BLOCK_ROWS + 1, PREDICT_BLOCK_ROWS) or [0]
        stops = [*starts[1:], n]
        values = {}
        for start, stop in zip(starts, stops):
            tape = ad.Tape()
            nodes = self.forward_heads(tape, dense[start:stop], cats[start:stop])
            for name, node in nodes.items():
                if name not in values:
                    values[name] = np.empty(n)
                values[name][start:stop] = node.value
            tape.release()
        return values

    def predict_dataset(self, ds):
        return self.predict_all(ds.dense, ds.cats)


def build(name, net_config, seed):
    """Construct one of the six designs with deterministic initialization.

    Towers are initialized in a fixed order (click-side first), so the CTR
    tower of a dual-tower design and a standalone single tower built from
    the same seed are parameter-identical.
    """
    if name not in MODEL_TABLE:
        raise ValueError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    chars = MODEL_TABLE[name]
    rng = np.random.default_rng(seed)
    direct_joint = chars.entire_space and not chars.weighted_cvr
    names = ("ctr", "joint" if direct_joint else "cvr")
    if direct_joint and not chars.shared_params:
        names = ("joint",)
    stacks, heads, wiring = {}, {}, {}
    for head in names:
        tower = "shared" if chars.shared_params or len(names) == 1 else f"{head}_tower"
        if tower not in stacks:
            stacks[tower] = _Stack(net_config, rng, tower)
        heads[head] = _Head(stacks[tower].out_dim, net_config, rng, head)
        wiring[head] = tower
    return Model(chars, net_config, stacks, heads, wiring)
