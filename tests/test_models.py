import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientgeo import models, so3


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
    layers = [models.Layer(np.zeros((3, 5)), np.zeros(3), "pi_tanh")]
    net = models.MLP(layers)
    np.testing.assert_array_equal(models.forward(net, np.ones(5)), np.zeros(3))


def test_forward_identity_linear_layer():
    net = models.MLP([models.Layer(np.eye(4), np.zeros(4), "linear")])
    x = np.array([1.0, -2.0, 3.0, 0.5])
    np.testing.assert_array_equal(models.forward(net, x), x)


def test_forward_dimension_mismatch():
    net = models.init_pose_network([4, 3], seed=0)
    with pytest.raises(models.DimensionMismatch):
        models.forward(net, np.zeros(5))


def test_pi_tanh_strictly_inside_pi_ball():
    g = rng(2)
    net = models.init_pose_network([8, 6, 3], seed=1, activations=["relu", "pi_tanh"])
    for _ in range(100):
        out = models.forward(net, 100.0 * g.standard_normal(8))
        assert np.all(np.abs(out) < math.pi)


def test_forward_batched_matches_loop():
    g = rng(3)
    net = models.init_pose_network([7, 5, 4], seed=2, activations=["relu", "pi_tanh"])
    xs = g.standard_normal((10, 7))
    batched = models.forward(net, xs)
    for i in range(10):
        np.testing.assert_allclose(batched[i], models.forward(net, xs[i]), atol=1e-14)


# ---------------------------------------------------------------------------
# backward vs finite differences


@pytest.mark.parametrize("head", ["linear", "pi_tanh"])
def test_backward_matches_finite_differences(head):
    g = rng(4)
    net = models.init_pose_network([5, 6, 3], seed=3, activations=["relu", head])
    x = g.standard_normal(5)
    c = g.standard_normal(3)

    def loss_fn(out):
        return float(np.dot(c, out))

    out, cache = models.forward_cached(net, x)
    grads, _ = models.backward(net, cache, c)
    expected = fd_weight_gradient(net, x, loss_fn)
    flat_analytic = np.concatenate([np.concatenate([w.ravel(), b.ravel()]) for w, b in grads])
    flat_fd = np.concatenate([e.ravel() for e in expected])
    scale = max(1.0, np.max(np.abs(flat_fd)))
    assert np.max(np.abs(flat_analytic - flat_fd)) / scale <= 1e-6


def test_backward_batch_sums_per_sample_grads():
    g = rng(6)
    net = models.init_pose_network([5, 4, 2], seed=7)
    xs = g.standard_normal((8, 5))
    gs = g.standard_normal((8, 2))
    _, cache = models.forward_cached(net, xs)
    grads_batch, _ = models.backward(net, cache, gs)
    acc = None
    for i in range(8):
        _, ci = models.forward_cached(net, xs[i])
        gi, _ = models.backward(net, ci, gs[i])
        if acc is None:
            acc = [[w.copy(), b.copy()] for w, b in gi]
        else:
            for a, (w, b) in zip(acc, gi):
                a[0] += w
                a[1] += b
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
    heads = [
        [models.init_pose_network([5, 4, 3], seed=100 * i + j, activations=["relu", "pi_tanh"])
         for j in range(k)]
        for i in range(g)
    ]
    for row in heads:
        for net in row:
            net.layers[0].bias[:] = rng.normal(size=4)
    stacked = models.stack([models.stack(row) for row in heads])
    assert stacked.layers[0].weight.shape == (g, k, 4, 5)
    assert (stacked.in_dim, stacked.out_dim) == (5, 3)
    x = rng.normal(size=(g, n, 5))
    grad_out = rng.normal(size=(g, k, n, 3))
    out, cache = models.forward_cached(stacked, x[:, None])
    grads, _ = models.backward(stacked, cache, grad_out)
    assert out.shape == (g, k, n, 3)
    for i in range(g):
        for j in range(k):
            one_out, one_cache = models.forward_cached(heads[i][j], x[i])
            np.testing.assert_allclose(out[i, j], one_out, rtol=0, atol=1e-14)
            one_grads, _ = models.backward(heads[i][j], one_cache, grad_out[i, j])
            for (dw, db), (ow, ob) in zip(grads, one_grads):
                np.testing.assert_allclose(dw[i, j], ow, rtol=0, atol=1e-13)
                np.testing.assert_allclose(db[i, j], ob, rtol=0, atol=1e-13)
            view = models.unstack(models.unstack(stacked, i), j)
            np.testing.assert_array_equal(view.layers[1].weight, heads[i][j].layers[1].weight)


def test_stack_lays_parameters_out_in_one_buffer_the_layers_view():
    # (G, K) stack of [5, 4, 3] heads: P = 4*5 + 4 + 3*4 + 3, weight then bias per layer
    heads = [[models.init_pose_network([5, 4, 3], seed=10 * i + j) for j in range(3)]
             for i in range(2)]
    stacked = models.stack([models.stack(row) for row in heads])
    assert stacked.params.shape == (2, 3, 39) and stacked.params.flags.c_contiguous
    for i in range(2):
        for j in range(3):
            want = np.concatenate([a.ravel() for l in heads[i][j].layers
                                   for a in (l.weight, l.bias)])
            assert np.array_equal(stacked.params[i, j], want)
    views = [a for l in stacked.layers for a in (l.weight, l.bias)]
    views += [a for l in models.unstack(models.unstack(stacked, 1), 2).layers
              for a in (l.weight, l.bias)]
    assert all(np.shares_memory(a, stacked.params) for a in views)
    stacked.params[1, 2, 20:24] = 7.0  # the first layer's bias of head (1, 2)
    assert np.array_equal(models.unstack(stacked, 1).layers[0].bias[2], np.full(4, 7.0))


# ---------------------------------------------------------------------------
# init


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
    out = models.forward(net, g.standard_normal(16))
    assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# compose


def test_compose_additive_zero_delta():
    z = np.array([0.1, 0.2, 0.3])
    np.testing.assert_array_equal(models.compose(models.ADDITIVE, z, np.zeros(3)), z)


def test_compose_riemannian_identity_key():
    d = np.array([0.3, -0.1, 0.2])
    r = models.compose(models.RIEMANNIAN, np.zeros(3), d)
    np.testing.assert_allclose(r, so3.rodrigues(d), atol=1e-15)


def test_compose_riemannian_coaxial_adds_angles():
    z = np.array([0.0, 0.0, math.pi / 4.0])
    r = models.compose(models.RIEMANNIAN, z, z)
    expected = so3.rodrigues(np.array([0.0, 0.0, math.pi / 2.0]))
    np.testing.assert_allclose(r, expected, atol=1e-12)
    np.testing.assert_allclose(r, so3.rodrigues(z) @ so3.rodrigues(z), atol=1e-12)


def test_compose_quaternion_renorm_unit_output():
    g = rng(8)
    z = g.standard_normal(4)
    z /= np.linalg.norm(z)
    d = 0.1 * g.standard_normal(4)
    q = models.compose(models.QUATERNION_RENORM, z, d)
    assert abs(np.linalg.norm(q) - 1.0) <= 1e-12


def test_compose_quaternion_zero_sum():
    z = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(models.ZeroSum):
        models.compose(models.QUATERNION_RENORM, z, -z)


def test_composed_axis_angle_always_inside_ball():
    g = rng(9)
    for _ in range(200):
        z = so3.random_axis_angle(g).vector
        d = g.uniform(-math.pi, math.pi, size=3)  # can push norm past pi
        projected = so3.clip_axis_angle_norm(z + d)
        so3.AxisAngle(projected)  # constructible: norm < pi
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
    models.save_mlp(net, path, seed=21)
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
    models.save_mlp(net, path, seed=3)
    doc = {
        "version": models.CHECKPOINT_VERSION,
        "sizes": [6, 5, 3],
        "activations": ["relu", "pi_tanh"],
        "seed": 3,
        "tensors": [{"weight": l.weight.tolist(), "bias": l.bias.tolist()} for l in net.layers],
    }
    oracle = tmp_path / "oracle.json"
    with open(oracle, "w") as fh:
        json.dump(doc, fh)  # the streaming writer save_mlp used before
    assert path.read_bytes() == oracle.read_bytes()


def test_checkpoint_of_a_stacked_network_records_entry_sizes(tmp_path):
    net = models.stack([models.init_pose_network([5, 4, 3], seed=s) for s in range(7)])
    path = tmp_path / "stacked.json"
    models.save_mlp(net, path)
    assert json.loads(path.read_text())["sizes"] == [5, 4, 3]
    loaded = models.load_mlp(path)
    for la, lb in zip(net.layers, loaded.layers):
        assert np.array_equal(la.weight, lb.weight) and np.array_equal(la.bias, lb.bias)
