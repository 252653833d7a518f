"""From-scratch MLP pose networks and the Bin & Delta composition rules.

A network is one parameter buffer (..., P) plus its layer sizes and
activations: P is one network's parameter count, in layer order, weight
then bias, and its layers are views W (..., out, in) and b (..., out) into
the buffer.  Leading stack axes let one network run many same-shaped ones
(per category, per dictionary key) by matmul broadcasting on inputs (...,
n, in).  forward keeps a cache so the hand-written backward pass can
produce weight gradients from a loss gradient at the output.  No batch
normalization: desk-scale batches make its statistics noisy (deviation
from the reference topology, recorded in the experiment docs).
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
    """One layer's views into its network's buffer."""

    weight: np.ndarray  # (..., out, in)
    bias: np.ndarray  # (..., out)
    activation: str


def _param_count(sizes) -> int:
    """P, the parameters of one network with layer widths `sizes`."""
    return sum(out * (inp + 1) for inp, out in zip(sizes, sizes[1:]))


def _views(params: np.ndarray, sizes) -> list:
    """(weight, bias) views of params (..., P) for layer widths `sizes`."""
    lead, start, views = params.shape[:-1], 0, []
    for inp, out in zip(sizes, sizes[1:]):
        weight = params[..., start:start + out * inp].reshape(lead + (out, inp))
        start += out * inp
        views.append((weight, params[..., start:start + out]))
        start += out
    return views


@dataclasses.dataclass(eq=False)
class MLP:
    """A network, or a stack of same-shaped ones, as its (..., P) parameter
    buffer; `layers` are views into it, built once."""

    params: np.ndarray = dataclasses.field(repr=False)
    sizes: tuple  # input width, then each layer's output width
    activations: tuple  # one tag per layer
    layers: tuple = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        self.sizes, self.activations = tuple(self.sizes), tuple(self.activations)
        if len(self.activations) != len(self.sizes) - 1:
            raise ValueError("one activation per layer required")
        for tag in self.activations:
            if tag not in ACTIVATIONS:
                raise ValueError(f"unknown activation {tag!r}")
        p = _param_count(self.sizes)
        if self.params.shape[-1:] != (p,):
            raise DimensionMismatch(f"parameters of shape {self.params.shape} are not (..., {p})")
        self.layers = tuple(Layer(w, b, tag) for (w, b), tag
                            in zip(_views(self.params, self.sizes), self.activations))

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]


def on_buffer(params: np.ndarray, like: MLP) -> MLP:
    """A network with the sizes and activations of `like` whose parameters
    are views of params (..., P)."""
    return MLP(params, like.sizes, like.activations)


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
    one (..., P) array in the buffer layout (see MLP), summed over
    the sample axis (the second to last).  The gradient at the network
    input is not formed.
    """
    grads = np.empty(net.params.shape)
    g = np.asarray(grad_out, dtype=float)
    for i, (dw, db) in reversed(list(enumerate(_views(grads, net.sizes)))):
        tag, h = cache[i + 1]
        gz = _activation_backward(tag, h, g)
        h_prev = cache[i][1]
        np.matmul(gz.mT, h_prev, out=dw)
        np.add.reduce(gz, axis=-2, out=db)
        if i:
            g = gz @ net.layers[i].weight
    return grads


def init_pose_network(sizes, seed, activations=None) -> MLP:
    """Kaiming-style fan-in uniform init: W ~ U(+-sqrt(6/fan_in)), b = 0.

    seed is an integer, or an array of them for a stack of that shape
    whose entry at each index draws from its own seed, layer by layer, as
    one network of that seed would.  Default activations are relu on
    hidden layers and linear on the head; pass an explicit list (one tag
    per layer) for pose heads.  ValueError unless every size is an integer
    >= 1 and every seed an integer >= 0.
    """
    sizes = [_checks.count(n, f"sizes[{i}]") for i, n in enumerate(sizes)]
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    if activations is None:
        activations = ["relu"] * (len(sizes) - 2) + ["linear"]
    seeds = np.array(seed, dtype=object)  # keeps each entry as given, for the check
    seeds.flat = [_checks.count(s, "seed", 0) for s in seeds.flat]
    net = MLP(np.zeros(seeds.shape + (_param_count(sizes),)), sizes, activations)
    for at in np.ndindex(seeds.shape):
        rng = np.random.default_rng(seeds[at])
        for layer in net.layers:
            bound = math.sqrt(6.0 / layer.weight.shape[-1])
            layer.weight[at] = rng.uniform(-bound, bound, size=layer.weight.shape[-2:])
    return net


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


def save_mlp(net: MLP, path) -> None:
    """JSON checkpoint: header with version/sizes/activations, layer-ordered
    tensors.  json round-trips doubles exactly (shortest-repr), so loading
    reproduces the weights bit-for-bit."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "sizes": list(net.sizes),
        "activations": list(net.activations),
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
        arrays = []
        for t, act in zip(tensors, activations):
            weight, bias = np.array(t["weight"], dtype=float), np.array(t["bias"], dtype=float)
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
            if weight.ndim < 2 or bias.shape != weight.shape[:-1]:
                raise DimensionMismatch("weight/bias shapes disagree")
            arrays += [weight, bias]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint: {exc!r}") from exc
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("checkpoint has non-finite parameters")
    weights, lead = arrays[::2], arrays[1].shape[:-1]
    if any(w.shape[:-2] != lead or w.shape[-1] != v.shape[-2] for v, w in zip(weights, weights[1:])):
        raise DimensionMismatch("consecutive layer dimensions do not chain")
    found = [weights[0].shape[-1]] + [w.shape[-2] for w in weights]
    if sizes != found:
        raise ValueError(f"checkpoint sizes {sizes} do not match its tensors {found}")
    params = np.concatenate([a.reshape(lead + (-1,)) for a in arrays], axis=-1)
    return MLP(params, found, activations)
