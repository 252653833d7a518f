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

from . import _checks, so3

ACTIVATIONS = ("relu", "pi_tanh", "linear")
_PI_LIMIT = float(np.nextafter(math.pi, 0.0))  # the largest double below pi

ADDITIVE = "additive"
QUATERNION_RENORM = "quaternion_renorm"
RIEMANNIAN = "riemannian"

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


def _views(params: np.ndarray, like: MLP) -> list:
    """(weight, bias) views of params (..., P) in the layer shapes of `like`."""
    lead, start, views = params.shape[:-1], 0, []
    for layer in like.layers:
        out, inp = layer.weight.shape[-2:]
        weight = params[..., start:start + out * inp].reshape(lead + (out, inp))
        start += out * inp
        views.append((weight, params[..., start:start + out]))
        start += out
    return views


def on_buffer(params: np.ndarray, like: MLP) -> MLP:
    """A network with the layer shapes and activations of `like` whose
    parameters are views of params (..., P)."""
    return MLP([Layer(w, b, layer.activation)
                for (w, b), layer in zip(_views(params, like), like.layers)], params)


def stack(nets) -> MLP:
    """One network whose new leading axis runs over `nets` (same shapes and
    activations), on one new (len(nets), ..., P) buffer of their parameters:
    each entry's weights and biases, in layer order, as one row."""
    lead = nets[0].layers[0].bias.shape[:-1]
    rows = [np.concatenate([a.reshape(lead + (math.prod(a.shape[len(lead):]),))
                            for l in n.layers for a in (l.weight, l.bias)], axis=-1) for n in nets]
    return on_buffer(np.stack(rows), nets[0])


def _apply_activation(tag: str, z: np.ndarray) -> np.ndarray:
    if tag == "linear":
        return z
    if tag == "relu":
        return np.maximum(z, 0.0, out=z)  # z is forward_cached's fresh matmul result
    if tag == "pi_tanh":
        # float tanh saturates to exactly 1.0 around |z|=19; clip to the
        # largest double below pi so outputs stay strictly inside (-pi, pi).
        # np.minimum(np.maximum(..)) is np.clip without its Python wrapper,
        # which costs more than the two ufuncs on a training batch
        return np.minimum(np.maximum(math.pi * np.tanh(z), -_PI_LIMIT), _PI_LIMIT)
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
    """Run the network on feature rows (..., n, in_dim)."""
    out, _ = forward_cached(net, f)
    return out


def forward_cached(net: MLP, f: np.ndarray):
    """Forward pass keeping per-layer (activation, output) pairs."""
    x = np.asarray(f, dtype=float)
    if x.ndim < 2 or x.shape[-1] != net.in_dim:
        raise DimensionMismatch(f"features of shape {x.shape} are not rows (..., n, {net.in_dim})")
    cache = [("input", x)]
    h = x
    for layer in net.layers:
        z = h @ layer.weight.mT
        z += layer.bias[..., None, :]
        h = _apply_activation(layer.activation, z)
        cache.append((layer.activation, h))
    return h, cache


def backward(net: MLP, cache, grad_out: np.ndarray) -> np.ndarray:
    """Weight/bias gradients for a loss gradient at the network output, as
    one (..., P) array in the buffer layout (see on_buffer), summed over
    the sample axis (the second to last).  The gradient at the network
    input is not formed.
    """
    p = sum(l.weight.shape[-2] * (l.weight.shape[-1] + 1) for l in net.layers)
    grads = np.empty(net.layers[0].bias.shape[:-1] + (p,))
    g = np.asarray(grad_out, dtype=float)
    for i, (dw, db) in reversed(list(enumerate(_views(grads, net)))):
        tag, h = cache[i + 1]
        gz = _activation_backward(tag, h, g)
        h_prev = cache[i][1]
        np.matmul(gz.mT, h_prev, out=dw)
        np.add.reduce(gz, axis=-2, out=db)
        if i:
            g = gz @ net.layers[i].weight
    return grads


def init_pose_network(sizes, seed: int, activations=None) -> MLP:
    """Kaiming-style fan-in uniform init: W ~ U(+-sqrt(6/fan_in)), b = 0.

    Default activations are relu on hidden layers and linear on the head;
    pass an explicit list (one tag per layer) for pose heads.  ValueError
    unless every size is an integer >= 1.
    """
    sizes = [_checks.count(n, f"sizes[{i}]") for i, n in enumerate(sizes)]
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


def compose_rotation(rule: str, key: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Fuse key poses and deltas (..., d) row by row into rotation matrices
    (..., 3, 3), by the rule ObjectiveSpec.combination names:

    additive          -> R(z_l + dy), the sum projected into the |v| < pi ball
    quaternion_renorm -> the rotation of (z_l + dy) / |z_l + dy|
    riemannian        -> R(z_l) @ exp(dy)
    """
    key = np.asarray(key, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if key.shape != delta.shape:
        raise DimensionMismatch("key and delta dimensions differ")
    if rule == ADDITIVE:
        return so3.rodrigues(so3.clip_axis_angle_norm(key + delta))
    if rule == QUATERNION_RENORM:
        s = key + delta
        n = np.linalg.norm(s, axis=-1, keepdims=True)
        if np.any(n < 1e-12):
            raise ZeroSum(f"|z + dy| = {n.min():.3g}")
        return so3._quat_to_matrix(so3.canonical_quaternion(s / n))
    if rule == RIEMANNIAN:
        if key.shape[-1] != 3:
            raise DimensionMismatch("riemannian rule is axis-angle only")
        key_m = so3.rodrigues(so3.clip_axis_angle_norm(key))
        return key_m @ so3.rodrigues(so3.clip_axis_angle_norm(delta))
    raise ValueError(f"unknown combination rule {rule!r}")


# ---------------------------------------------------------------------------
# checkpoints


def _sizes(net: MLP) -> list:
    """Input width, then each layer's output width (of one stack entry)."""
    return [net.in_dim] + [layer.weight.shape[-2] for layer in net.layers]


def save_mlp(net: MLP, path) -> None:
    """JSON checkpoint: header with version/sizes/activations, layer-ordered
    tensors.  json round-trips doubles exactly (shortest-repr), so loading
    reproduces the weights bit-for-bit."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "sizes": _sizes(net),
        "activations": [layer.activation for layer in net.layers],
        "tensors": [
            {"weight": layer.weight.tolist(), "bias": layer.bias.tolist()}
            for layer in net.layers
        ],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))  # json.dump would stream through the pure-Python encoder


def load_mlp(path) -> MLP:
    """Read a save_mlp checkpoint.  ValueError when it is not a JSON object
    with save_mlp's keys and value types, its version is unknown, its
    activations or sizes do not match its tensors, or a tensor holds a NaN
    or infinity."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("a checkpoint must be a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    try:  # a missing key, or a value of another JSON type than save_mlp writes
        tensors, activations, sizes = doc["tensors"], doc["activations"], doc["sizes"]
        if not tensors or len(activations) != len(tensors):
            raise ValueError(f"checkpoint has {len(tensors)} tensors, {len(activations)} activations")
        layers = [
            Layer(
                np.array(t["weight"], dtype=float),
                np.array(t["bias"], dtype=float),
                act,
            )
            for t, act in zip(tensors, activations)
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint: {exc!r}") from exc
    if not all(np.all(np.isfinite(l.weight)) and np.all(np.isfinite(l.bias)) for l in layers):
        raise ValueError("checkpoint has non-finite parameters")
    net = MLP(layers)
    if sizes != _sizes(net):
        raise ValueError(f"checkpoint sizes {sizes} do not match its tensors {_sizes(net)}")
    return net
