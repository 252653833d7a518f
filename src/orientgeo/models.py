"""From-scratch MLP pose networks and the Bin & Delta composition rules.

Networks are lists of (W, b, activation) layers on plain numpy arrays;
forward keeps a cache so the hand-written backward pass can produce weight
gradients from a loss gradient at the output.  No batch normalization:
desk-scale batches make its statistics noisy (deviation from the reference
topology, recorded in the experiment docs).

Layers may carry leading stack axes, W (..., out, in) and b (..., out), so
one network runs many same-shaped ones (per category, per dictionary key)
by matmul broadcasting on inputs (..., n, in).  A stacked network keeps all
its parameters in one contiguous buffer (..., P): P is one entry's
parameter count, in layer order, weight then bias, and the layers' arrays
are reshaped views into it.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from . import so3

ACTIVATIONS = ("relu", "pi_tanh", "linear")

ADDITIVE = "additive"
QUATERNION_RENORM = "quaternion_renorm"
RIEMANNIAN = "riemannian"
COMBINATION_RULES = (ADDITIVE, QUATERNION_RENORM, RIEMANNIAN)

CHECKPOINT_VERSION = 1


class DimensionMismatch(ValueError):
    pass


class ZeroSum(ValueError):
    """Renormalized quaternion sum with vanishing norm.  `row` is the first
    collapsed row when the sum belongs to a batch."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


@dataclasses.dataclass
class Layer:
    weight: np.ndarray  # (..., out, in)
    bias: np.ndarray  # (..., out)
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weight.ndim < 2 or self.bias.shape != self.weight.shape[:-1]:
            raise DimensionMismatch("weight/bias shapes disagree")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ValueError("non-finite parameters")


@dataclasses.dataclass
class MLP:
    layers: list
    # the (..., P) buffer the layers view, for networks built by stack
    params: np.ndarray = dataclasses.field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weight.shape[-1] != prev.weight.shape[-2]:
                raise DimensionMismatch("consecutive layer dimensions do not chain")

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[-2]


def flatten(pairs) -> np.ndarray:
    """(weight, bias) pairs in layer order, a network's parameters or the
    gradients backward returns, as one (..., P) array in the buffer layout."""
    pairs = list(pairs)
    lead = pairs[0][1].shape[:-1]
    return np.concatenate([a.reshape(lead + (math.prod(a.shape[len(lead):]),))
                           for pair in pairs for a in pair], axis=-1)


def on_buffer(params: np.ndarray, like: MLP) -> MLP:
    """A network with the layer shapes and activations of `like` whose
    parameters are views of params (..., P)."""
    lead, start, layers = params.shape[:-1], 0, []
    for layer in like.layers:
        out, inp = layer.weight.shape[-2:]
        weight = params[..., start:start + out * inp].reshape(lead + (out, inp))
        start += out * inp
        layers.append(Layer(weight, params[..., start:start + out], layer.activation))
        start += out
    return MLP(layers, params)


def stack(nets) -> MLP:
    """One network whose new leading axis runs over `nets` (same shapes and
    activations), on one new (len(nets), ..., P) buffer of their parameters."""
    return on_buffer(np.stack([flatten((l.weight, l.bias) for l in n.layers) for n in nets]),
                     nets[0])


def unstack(net: MLP, i) -> MLP:
    """Entry i of the leading stack axis, as views of the stacked parameters."""
    return MLP([Layer(l.weight[i], l.bias[i], l.activation) for l in net.layers])


def _apply_activation(tag: str, z: np.ndarray) -> np.ndarray:
    if tag == "linear":
        return z
    if tag == "relu":
        return np.maximum(z, 0.0)
    if tag == "pi_tanh":
        # float tanh saturates to exactly 1.0 around |z|=19; clip to the
        # largest double below pi so outputs stay strictly inside (-pi, pi)
        limit = np.nextafter(math.pi, 0.0)
        return np.clip(math.pi * np.tanh(z), -limit, limit)
    raise ValueError(tag)


def _activation_backward(tag: str, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """d loss / d z given h = act(z) and g = d loss / d h."""
    if tag == "linear":
        return g
    if tag == "relu":
        return g * (h > 0.0)
    if tag == "pi_tanh":
        # h = pi tanh z  =>  dh/dz = pi (1 - tanh^2 z) = pi - h^2 / pi
        return g * (math.pi - h * h / math.pi)
    raise ValueError(tag)


def forward(net: MLP, f: np.ndarray) -> np.ndarray:
    """Run the network on a single feature vector or a (..., n, in_dim) batch."""
    out, _ = forward_cached(net, f)
    return out


def forward_cached(net: MLP, f: np.ndarray):
    """Forward pass keeping per-layer (activation, output) pairs."""
    x = np.asarray(f, dtype=float)
    if x.shape[-1] != net.in_dim:
        raise DimensionMismatch(
            f"feature dim {x.shape[-1]} does not match first layer {net.in_dim}"
        )
    cache = [("input", x)]
    h = x
    for layer in net.layers:
        bias = layer.bias if h.ndim == 1 else layer.bias[..., None, :]
        h = _apply_activation(layer.activation, h @ np.swapaxes(layer.weight, -1, -2) + bias)
        cache.append((layer.activation, h))
    return h, cache


def backward(net: MLP, cache, grad_out: np.ndarray):
    """Weight/bias gradients for a loss gradient at the network output.

    Returns (grads, grad_input) where grads is a list of (dW, db) aligned
    with net.layers, each shaped like the layer's parameters.  Batched
    inputs sum over the sample axis (the second to last).
    """
    grads = [None] * len(net.layers)
    g = np.asarray(grad_out, dtype=float)
    for i in reversed(range(len(net.layers))):
        tag, h = cache[i + 1]
        gz = _activation_backward(tag, h, g)
        h_prev = cache[i][1]
        if gz.ndim == 1:
            grads[i] = (np.outer(gz, h_prev), gz.copy())
        else:
            grads[i] = (np.swapaxes(gz, -1, -2) @ h_prev, gz.sum(axis=-2))
        g = gz @ net.layers[i].weight
    return grads, g


def init_pose_network(sizes, seed: int, activations=None) -> MLP:
    """Kaiming-style fan-in uniform init: W ~ U(+-sqrt(6/fan_in)), b = 0.

    Default activations are relu on hidden layers and linear on the head;
    pass an explicit list (one tag per layer) for pose heads.
    """
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    n_layers = len(sizes) - 1
    if activations is None:
        activations = ["relu"] * (n_layers - 1) + ["linear"]
    if len(activations) != n_layers:
        raise ValueError("one activation per layer required")
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(n_layers):
        fan_in = sizes[i]
        bound = math.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(sizes[i + 1], sizes[i]))
        layers.append(Layer(w, np.zeros(sizes[i + 1]), activations[i]))
    return MLP(layers)


# ---------------------------------------------------------------------------
# Bin & Delta composition


def compose(rule: str, key: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Fuse key poses and deltas (..., d) row by row into final poses.

    additive          -> z_l + dy                  (vectors (..., 3))
    quaternion_renorm -> (z_l + dy) / |z_l + dy|   (vectors (..., 4))
    riemannian        -> R(z_l) @ exp(dy)          (matrices (..., 3, 3))
    """
    key = np.asarray(key, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if key.shape != delta.shape:
        raise DimensionMismatch("key and delta dimensions differ")
    if rule == ADDITIVE:
        return key + delta
    if rule == QUATERNION_RENORM:
        s = key + delta
        n = np.linalg.norm(s, axis=-1, keepdims=True)
        if np.any(n < 1e-12):
            raise ZeroSum(f"|z + dy| = {n.min():.3g}")
        return s / n
    if rule == RIEMANNIAN:
        if key.shape[-1] != 3:
            raise DimensionMismatch("riemannian rule is axis-angle only")
        key_m = so3.rodrigues(so3.clip_axis_angle_norm(key))
        return key_m @ so3.rodrigues(so3.clip_axis_angle_norm(delta))
    raise ValueError(f"unknown combination rule {rule!r}")


def compose_rotation(rule: str, key: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """compose(...) as rotation matrices (..., 3, 3), with the axis-angle
    safety projection for the additive rule."""
    out = compose(rule, key, delta)
    if rule == RIEMANNIAN:
        return out
    if rule == ADDITIVE:
        return so3.rodrigues(so3.clip_axis_angle_norm(out))
    return so3._quat_to_matrix(so3.canonical_quaternion(out))


# ---------------------------------------------------------------------------
# checkpoints


def save_mlp(net: MLP, path, seed=None) -> None:
    """JSON checkpoint: header with sizes/activations/seed, layer-ordered
    tensors.  json round-trips doubles exactly (shortest-repr), so loading
    reproduces the weights bit-for-bit."""
    sizes = [net.in_dim] + [layer.weight.shape[-2] for layer in net.layers]
    doc = {
        "version": CHECKPOINT_VERSION,
        "sizes": sizes,
        "activations": [layer.activation for layer in net.layers],
        "seed": seed,
        "tensors": [
            {"weight": layer.weight.tolist(), "bias": layer.bias.tolist()}
            for layer in net.layers
        ],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))  # json.dump would stream through the pure-Python encoder


def load_mlp(path) -> MLP:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    layers = [
        Layer(
            np.array(t["weight"], dtype=float),
            np.array(t["bias"], dtype=float),
            act,
        )
        for t, act in zip(doc["tensors"], doc["activations"])
    ]
    return MLP(layers)
