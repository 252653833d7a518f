import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientgeo import models, so3

from so3_helpers import random_axis_angle


def rng(seed=0):
    return np.random.default_rng(seed)


def fd_weight_gradient(net, x, loss_fn, h=1e-6):
    """Central finite differences of loss_fn(forward(net, x)) in every parameter."""
    out = []
    for layer in net.layers:
        for arr in (layer.weight, layer.bias):
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + h
                up = loss_fn(models.forward(net, x))
                arr[idx] = old - h
                dn = loss_fn(models.forward(net, x))
                arr[idx] = old
                g[idx] = (up - dn) / (2.0 * h)
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_weights_pi_tanh_head():
    net = models.MLP(np.zeros(3 * 5 + 3), (5, 3), ("pi_tanh",))
    np.testing.assert_array_equal(models.forward(net, np.ones((1, 5))), np.zeros((1, 3)))


def test_forward_identity_linear_layer():
    net = models.MLP(np.concatenate([np.eye(4).ravel(), np.zeros(4)]), (4, 4), ("linear",))
    x = np.array([[1.0, -2.0, 3.0, 0.5]])
    np.testing.assert_array_equal(models.forward(net, x), x)


def test_forward_dimension_mismatch():
    net = models.init_pose_network([4, 3], seed=0)
    with pytest.raises(models.DimensionMismatch):
        models.forward(net, np.zeros((1, 5)))


@pytest.mark.parametrize("shape", [(), (4,)])
def test_forward_refuses_features_that_are_not_rows(shape):
    net = models.init_pose_network([4, 3], seed=0)
    with pytest.raises(models.DimensionMismatch, match=rf"^features of shape {re.escape(str(shape))} "):
        models.forward_cached(net, np.zeros(shape))


def test_pi_tanh_strictly_inside_pi_ball():
    g = rng(2)
    net = models.init_pose_network([8, 6, 3], seed=1, activations=["relu", "pi_tanh"])
    for _ in range(100):
        out = models.forward(net, 100.0 * g.standard_normal((1, 8)))
        assert np.all(np.abs(out) < math.pi)


def test_forward_batched_matches_loop():
    g = rng(3)
    net = models.init_pose_network([7, 5, 4], seed=2, activations=["relu", "pi_tanh"])
    xs = g.standard_normal((10, 7))
    batched = models.forward(net, xs)
    for i in range(10):
        np.testing.assert_allclose(batched[i], models.forward(net, xs[i : i + 1])[0], atol=1e-14)


# ---------------------------------------------------------------------------
# backward vs finite differences


def layer_grads(net, cache, grad_out):
    """backward's gradients as (dW, db) per layer, read through on_buffer."""
    buf = models.backward(net, cache, grad_out)
    return [(l.weight, l.bias) for l in models.on_buffer(buf, net).layers]


@pytest.mark.parametrize("head", ["linear", "pi_tanh"])
def test_backward_matches_finite_differences(head):
    g = rng(4)
    net = models.init_pose_network([5, 6, 3], seed=3, activations=["relu", head])
    x = g.standard_normal((1, 5))
    c = g.standard_normal(3)

    def loss_fn(out):
        return float(np.dot(c, out[0]))

    out, cache = models.forward_cached(net, x)
    grads = layer_grads(net, cache, c[None])
    expected = fd_weight_gradient(net, x, loss_fn)
    flat_analytic = np.concatenate([np.concatenate([w.ravel(), b.ravel()]) for w, b in grads])
    flat_fd = np.concatenate([e.ravel() for e in expected])
    scale = max(1.0, np.max(np.abs(flat_fd)))
    assert np.max(np.abs(flat_analytic - flat_fd)) / scale <= 1e-6


def test_backward_batch_sums_per_sample_grads():
    g = rng(6)
    net = models.init_pose_network([5, 4, 2], seed=7)
    (w1, b1), (w2, _) = [(l.weight, l.bias) for l in net.layers]
    xs = g.standard_normal((8, 5))
    gs = g.standard_normal((8, 2))
    _, cache = models.forward_cached(net, xs)
    grads_batch = layer_grads(net, cache, gs)
    # each sample's relu -> linear backward by hand, summed
    acc = [[np.zeros_like(w1), np.zeros_like(b1)], [np.zeros_like(w2), np.zeros(2)]]
    for x, gz2 in zip(xs, gs):
        h1 = np.maximum(w1 @ x + b1, 0.0)
        gz1 = (w2.T @ gz2) * (h1 > 0.0)
        for a, (gz, h_prev) in zip(acc, ((gz1, x), (gz2, h1))):
            a[0] += np.outer(gz, h_prev)
            a[1] += gz
    for (wb, bb), (ws, bs) in zip(grads_batch, acc):
        np.testing.assert_allclose(wb, ws, atol=1e-12)
        np.testing.assert_allclose(bb, bs, atol=1e-12)


# ---------------------------------------------------------------------------
# stacked networks


@settings(max_examples=60, deadline=None)
@given(
    g=st.integers(1, 3),
    k=st.integers(1, 3),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_forward_backward_equal_per_network_calls(g, k, n, seed):
    # a (G, K) stack of heads on shared per-G features, as the per-bin
    # heads run in training, against each head on its own
    rng = np.random.default_rng(seed)
    acts = ["relu", "pi_tanh"]
    stacked = models.init_pose_network([5, 4, 3], 100 * np.arange(g)[:, None] + np.arange(k), acts)
    stacked.layers[0].bias[:] = rng.normal(size=(g, k, 4))
    heads = [[models.init_pose_network([5, 4, 3], seed=100 * i + j, activations=acts)
              for j in range(k)] for i in range(g)]
    for i, row in enumerate(heads):
        for j, net in enumerate(row):
            net.layers[0].bias[:] = stacked.layers[0].bias[i, j]
    assert stacked.layers[0].weight.shape == (g, k, 4, 5)
    assert (stacked.in_dim, stacked.out_dim) == (5, 3)
    x = rng.normal(size=(g, n, 5))
    grad_out = rng.normal(size=(g, k, n, 3))
    out, cache = models.forward_cached(stacked, x[:, None])
    grads = layer_grads(stacked, cache, grad_out)
    assert out.shape == (g, k, n, 3)
    for i in range(g):
        for j in range(k):
            one_out, one_cache = models.forward_cached(heads[i][j], x[i])
            np.testing.assert_allclose(out[i, j], one_out, rtol=0, atol=1e-14)
            one_grads = layer_grads(heads[i][j], one_cache, grad_out[i, j])
            for (dw, db), (ow, ob) in zip(grads, one_grads):
                np.testing.assert_allclose(dw[i, j], ow, rtol=0, atol=1e-13)
                np.testing.assert_allclose(db[i, j], ob, rtol=0, atol=1e-13)
            view = models.on_buffer(stacked.params[i, j], stacked)
            np.testing.assert_array_equal(view.layers[1].weight, heads[i][j].layers[1].weight)


def test_stack_lays_parameters_out_in_one_buffer_the_layers_view():
    # (G, K) stack of [5, 4, 3] heads: P = 4*5 + 4 + 3*4 + 3, weight then bias
    # per layer, each entry drawn as the one network of its seed
    stacked = models.init_pose_network([5, 4, 3], [[10 * i + j for j in range(3)] for i in range(2)])
    assert stacked.params.shape == (2, 3, 39) and stacked.params.flags.c_contiguous
    for i in range(2):
        for j in range(3):
            one = models.init_pose_network([5, 4, 3], seed=10 * i + j)
            want = np.concatenate([a.ravel() for l in one.layers for a in (l.weight, l.bias)])
            assert np.array_equal(one.params, want)
            assert np.array_equal(stacked.params[i, j], want)
    views = [a for l in stacked.layers for a in (l.weight, l.bias)]
    views += [a for l in models.on_buffer(stacked.params[1, 2], stacked).layers
              for a in (l.weight, l.bias)]
    assert all(np.shares_memory(a, stacked.params) for a in views)
    stacked.params[1, 2, 20:24] = 7.0  # the first layer's bias of head (1, 2)
    assert np.array_equal(models.on_buffer(stacked.params[1], stacked).layers[0].bias[2],
                          np.full(4, 7.0))


# ---------------------------------------------------------------------------
# init


@pytest.mark.parametrize("params, sizes, activations, error", [
    (np.zeros(18), (5, 3), ("pi_tanh", "linear"), "one activation per layer"),
    (np.zeros(18), (5, 3), ("tanh",), "unknown activation 'tanh'"),
    (np.zeros(17), (5, 3), ("linear",), r"parameters of shape \(17,\) are not \(..., 18\)"),
    (np.zeros((2, 18, 1)), (5, 3), ("linear",), r"parameters of shape \(2, 18, 1\)"),
])
def test_a_network_refuses_a_buffer_its_sizes_do_not_fill(params, sizes, activations, error):
    with pytest.raises(ValueError, match=error):
        models.MLP(params, sizes, activations)


def test_init_deterministic():
    a = models.init_pose_network([8, 4, 3], seed=42)
    b = models.init_pose_network([8, 4, 3], seed=42)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)


def test_init_shapes():
    net = models.init_pose_network([8, 4, 3], seed=0)
    assert net.layers[0].weight.shape == (4, 8)
    assert net.layers[1].weight.shape == (3, 4)


def test_init_forward_finite():
    g = rng(7)
    net = models.init_pose_network([16, 8, 3], seed=11, activations=["relu", "pi_tanh"])
    out = models.forward(net, g.standard_normal((1, 16)))
    assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# compose


def test_compose_additive_zero_delta():
    z = np.array([0.1, 0.2, 0.3])
    r = models.compose_rotation(models.ADDITIVE, z, np.zeros(3))
    np.testing.assert_array_equal(r, so3.rodrigues(z))


def test_compose_riemannian_identity_key():
    d = np.array([0.3, -0.1, 0.2])
    r = models.compose_rotation(models.RIEMANNIAN, np.zeros(3), d)
    np.testing.assert_allclose(r, so3.rodrigues(d), atol=1e-15)


def test_compose_riemannian_coaxial_adds_angles():
    z = np.array([0.0, 0.0, math.pi / 4.0])
    r = models.compose_rotation(models.RIEMANNIAN, z, z)
    expected = so3.rodrigues(np.array([0.0, 0.0, math.pi / 2.0]))
    np.testing.assert_allclose(r, expected, atol=1e-12)
    np.testing.assert_allclose(r, so3.rodrigues(z) @ so3.rodrigues(z), atol=1e-12)


def test_compose_quaternion_renorm_unit_output():
    g = rng(8)
    z = g.standard_normal(4)
    z /= np.linalg.norm(z)
    d = 0.1 * g.standard_normal(4)
    r = models.compose_rotation(models.QUATERNION_RENORM, z, d)
    # a rotation only if the sum was renormalized: an unnormalized quaternion scales R
    assert np.abs(r @ r.T - np.eye(3)).max() <= 1e-12
    assert abs(np.linalg.det(r) - 1.0) <= 1e-12
    # the sum's rotation: it maps z + d's vector part onto itself
    axis = (z + d)[1:]
    np.testing.assert_allclose(r @ axis, axis, atol=1e-12)


def test_compose_quaternion_zero_sum():
    z = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(models.ZeroSum):
        models.compose_rotation(models.QUATERNION_RENORM, z, -z)


def test_composed_axis_angle_always_inside_ball():
    g = rng(9)
    for _ in range(200):
        z = random_axis_angle(g)
        d = g.uniform(-math.pi, math.pi, size=3)  # can push norm past pi
        projected = so3.clip_axis_angle_norm(z + d)
        assert np.linalg.norm(projected) < math.pi
        r = models.compose_rotation(models.ADDITIVE, z, d)
        np.testing.assert_allclose(r, so3.rodrigues(projected), atol=1e-15)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    g = rng(14)
    net = models.init_pose_network([6, 5, 3], seed=21, activations=["relu", "pi_tanh"])
    # bake in some irrational-looking values
    net.layers[0].weight += 0.1 * g.standard_normal(net.layers[0].weight.shape)
    path = tmp_path / "ckpt.json"
    models.save_mlp(net, path)
    loaded = models.load_mlp(path)
    assert [l.activation for l in loaded.layers] == ["relu", "pi_tanh"]
    for la, lb in zip(net.layers, loaded.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 99, "tensors": [], "activations": []}')
    with pytest.raises(ValueError):
        models.load_mlp(path)


def test_checkpoint_bytes_equal_json_dump_output(tmp_path):
    net = models.init_pose_network([6, 5, 3], seed=3, activations=["relu", "pi_tanh"])
    net.layers[1].bias[:] = rng(5).standard_normal(3)
    path = tmp_path / "ckpt.json"
    models.save_mlp(net, path)
    doc = {
        "version": models.CHECKPOINT_VERSION,
        "sizes": [6, 5, 3],
        "activations": ["relu", "pi_tanh"],
        "tensors": [{"weight": l.weight.tolist(), "bias": l.bias.tolist()} for l in net.layers],
    }
    oracle = tmp_path / "oracle.json"
    with open(oracle, "w") as fh:
        json.dump(doc, fh)  # the streaming writer save_mlp used before
    assert path.read_bytes() == oracle.read_bytes()


def test_checkpoint_of_a_stacked_network_records_entry_sizes(tmp_path):
    net = models.init_pose_network([5, 4, 3], list(range(7)))
    path = tmp_path / "stacked.json"
    models.save_mlp(net, path)
    assert json.loads(path.read_text())["sizes"] == [5, 4, 3]
    loaded = models.load_mlp(path)
    for la, lb in zip(net.layers, loaded.layers):
        assert np.array_equal(la.weight, lb.weight) and np.array_equal(la.bias, lb.bias)


def _edited_checkpoint(tmp_path, edit):
    """A valid checkpoint of a [6, 5, 3] network, its document changed by edit."""
    net = models.init_pose_network([6, 5, 3], seed=1, activations=["relu", "pi_tanh"])
    path = tmp_path / "ckpt.json"
    models.save_mlp(net, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def test_checkpoint_with_a_short_activation_list_is_rejected(tmp_path):
    path = _edited_checkpoint(tmp_path, lambda doc: doc["activations"].pop())
    with pytest.raises(ValueError, match="2 tensors, 1 activations"):
        models.load_mlp(path)


@pytest.mark.parametrize("sizes", [[6, 5, 4], [6, 5], [7, 5, 3]])
def test_checkpoint_with_mismatched_sizes_is_rejected(tmp_path, sizes):
    path = _edited_checkpoint(tmp_path, lambda doc: doc.update(sizes=sizes))
    with pytest.raises(ValueError, match="do not match its tensors"):
        models.load_mlp(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("tensor", ["weight", "bias"])
def test_checkpoint_with_a_non_finite_parameter_is_rejected(tmp_path, value, tensor):
    def poison(doc):
        row = doc["tensors"][1][tensor]
        (row[0] if tensor == "weight" else row)[0] = value  # written as NaN / Infinity

    path = _edited_checkpoint(tmp_path, poison)
    with pytest.raises(ValueError, match="non-finite"):
        models.load_mlp(path)


@pytest.mark.parametrize("text", [
    "[1, 2]",  # not an object
    '{"version": 1}',  # no tensors, activations or sizes
    '{"version": 1, "activations": ["linear"], "tensors": [{"weight": [[1.0]], "bias": [0.0]}]}',
    '{"version": 1, "sizes": [1, 1], "activations": ["linear"], "tensors": [[[[1.0]], [0.0]]]}',
], ids=["list", "version-only", "no-sizes", "list-tensors"])
def test_checkpoint_of_the_wrong_shape_raises_value_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError):
        models.load_mlp(path)
