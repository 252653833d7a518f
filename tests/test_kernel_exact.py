"""The geodesic axis-angle kernel and its pieces against the forms they
replaced, bit for bit: the per-column dot, np.trace, np.linalg.norm, the
kernel with its small-angle patches applied to every row, and the matrix
log's skew part.  The stacked near-pi log against its one-row form.  Also
the finiteness check's report of the first failing row, and the layout of
the kernel's outputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientgeo import gradcheck, losses, so3


# ---------------------------------------------------------------------------
# oracles: the forms the kernel replaced, kept verbatim


def oracle_vee(m):
    """The inverse of so3.hat on skew-symmetric matrices (..., 3, 3)."""
    return m[..., [2, 0, 1], [1, 2, 0]]


def oracle_dot_rows(u, v):
    out = u[..., 0] * v[..., 0]
    for i in range(1, u.shape[-1]):
        out = out + u[..., i] * v[..., i]
    return out


def oracle_geodesic_axis_angle(ys, a_mat):
    n = np.linalg.norm(ys, axis=-1)
    projected = n >= math.pi
    n_pi = np.maximum(n, math.pi)
    scale = np.where(projected, so3.MAX_AXIS_ANGLE_NORM / n_pi, 1.0)
    y = ys * scale[..., None]

    t = np.linalg.norm(y, axis=-1)
    tt = t * t
    small = t < so3.EPS_THETA
    ts = np.where(small, 1.0, t)
    sin_t, cos_t = np.sin(t), np.cos(t)
    versin = 1.0 - cos_t
    a = np.where(small, 1.0 - tt / 6.0, sin_t / ts)
    b = np.where(small, 0.5 - tt / 24.0, versin / (ts * ts))
    ap_t = np.where(small, -1.0 / 3.0, (t * cos_t - sin_t) / ts**3)
    bp_t = np.where(small, -1.0 / 12.0, (t * sin_t - 2.0 * versin) / ts**4)

    tr_a = np.trace(a_mat, axis1=-2, axis2=-1)
    a_t = a_mat.mT
    w = oracle_vee(a_t - a_mat)
    t1 = oracle_dot_rows(y, w)
    t2 = oracle_dot_rows(y, oracle_dot_rows(a_mat, y[..., None, :])) - tt * tr_a
    u = (tr_a - a * t1 + b * t2 - 1.0) / 2.0
    values = np.arccos(np.minimum(np.maximum(u, -1.0), 1.0))

    sym = oracle_dot_rows(a_mat + a_t, y[..., None, :])
    du = 0.5 * (
        (bp_t * t2 - ap_t * t1)[..., None] * y
        - a[..., None] * w
        + b[..., None] * (sym - 2.0 * tr_a[..., None] * y)
    )
    grads = losses._acos_grad_factor(u)[..., None] * du

    unit = ys / n_pi[..., None]
    radial = oracle_dot_rows(unit, grads)[..., None] * unit
    grads = np.where(projected[..., None], scale[..., None] * (grads - radial), grads)
    return values, grads, losses._non_smooth(values)


def same_bits(a, b):
    """Equal shapes and dtypes and identical bytes: -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# row draws: every neighbourhood the kernel branches on

KINDS = ("zero", "tiny", "ordinary", "pi", "beyond_pi")


def _rows(rng, kinds):
    """One axis-angle row (len(kinds), 3) per kind: zero, 0 < |y| <
    EPS_THETA, 0 < |y| < pi, |y| = pi (up to the axis' rounding), or
    pi < |y| < 2 pi; axes uniform on the sphere."""
    axes = rng.standard_normal((len(kinds), 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    norms = {
        "zero": lambda: 0.0,
        "tiny": lambda: rng.uniform(0.01, 0.99) * so3.EPS_THETA,
        "ordinary": lambda: rng.uniform(1e-3, math.pi - 1e-3),
        "pi": lambda: math.pi,
        "beyond_pi": lambda: rng.uniform(math.pi + 1e-9, 2.0 * math.pi),
    }
    return axes * np.array([norms[k]() for k in kinds])[:, None]


def _targets(rng, b):
    """b rotation matrices (b, 3, 3) of random axis-angle rows below pi."""
    return so3.rodrigues(_rows(rng, ["ordinary"] * b))


kinds_st = st.lists(st.sampled_from(KINDS), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(kinds=kinds_st, seed=st.integers(0, 2**32 - 1))
def test_kernel_equals_the_oracle_row_against_matrix(kinds, seed):
    rng = np.random.default_rng(seed)
    ys, a_mat = _rows(rng, kinds), _targets(rng, len(kinds))
    got = losses._geodesic_axis_angle(ys, a_mat)
    want = oracle_geodesic_axis_angle(ys, a_mat)
    for g, w in zip(got, want):
        assert same_bits(g, w)


@settings(max_examples=100, deadline=None)
@given(kinds=st.lists(kinds_st, min_size=1, max_size=5), k=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_equals_the_oracle_keys_against_one_target(kinds, k, seed):
    """The broadcast M_P and M_Pp evaluate: (B, K, 3) against (B, 1, 3, 3)."""
    rng = np.random.default_rng(seed)
    b = len(kinds)
    ys = np.stack([_rows(rng, [kk[(i + j) % len(kk)] for j in range(k)])
                   for i, kk in enumerate(kinds)])
    a_mat = _targets(rng, b)[:, None]
    got = losses._geodesic_axis_angle(ys, a_mat)
    want = oracle_geodesic_axis_angle(ys, a_mat)
    for g, w in zip(got, want):
        assert g.shape[:2] == (b, k)
        assert same_bits(g, w)


def test_every_row_kind_reaches_the_kernel():
    """The draws above do hit each branch: the series limits, the pi
    projection and the plain rows, all in one batch."""
    rng = np.random.default_rng(0)
    ys = _rows(rng, KINDS)
    t = np.linalg.norm(ys, axis=1)
    assert t[0] == 0.0 and 0.0 < t[1] < so3.EPS_THETA
    assert t[2] < math.pi <= t[4] and abs(t[3] - math.pi) <= 1e-15
    got = losses._geodesic_axis_angle(ys, _targets(rng, len(KINDS)))
    assert all(np.all(np.isfinite(part)) for part in got[:2])


@settings(max_examples=200, deadline=None)
@given(lead=st.lists(st.integers(1, 4), min_size=0, max_size=3), d=st.sampled_from([2, 3, 4]),
       broadcast=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_dot_rows_equals_the_oracle(lead, d, broadcast, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((*lead, d)) * 10.0 ** rng.integers(-8, 8, size=(*lead, d))
    v = rng.standard_normal((1,) * len(lead) + (d,) if broadcast else (*lead, d))
    assert same_bits(losses._dot_rows(u, v), oracle_dot_rows(u, v))
    assert same_bits(losses._dot_rows(v, u), oracle_dot_rows(v, u))


@settings(max_examples=200, deadline=None)
@given(lead=st.lists(st.integers(1, 5), min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_diagonal_sum_equals_np_trace(lead, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((*lead, 3, 3)) * 10.0 ** rng.integers(-12, 12, size=(*lead, 3, 3))
    for m in (a, np.broadcast_to(a[..., :1, :, :], a.shape), a.mT):
        diag = m[..., 0, 0] + m[..., 1, 1] + m[..., 2, 2]
        assert same_bits(diag, np.trace(m, axis1=-2, axis2=-1))


@settings(max_examples=200, deadline=None)
@given(lead=st.lists(st.integers(1, 5), min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_add_reduce_norm_equals_np_linalg_norm(lead, seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((*lead, 3)) * 10.0 ** rng.integers(-12, 12, size=(*lead, 3))
    assert same_bits(np.sqrt(np.add.reduce(y * y, axis=-1)), np.linalg.norm(y, axis=-1))


# ---------------------------------------------------------------------------
# the finiteness check


def _finite_batch(grad_shape):
    values = np.arange(1.0, grad_shape[0] + 1.0)
    return values, np.ones(grad_shape)


@pytest.mark.parametrize("role, grad_shape", [("pose", (6, 3)), ("deltas", (6, 4, 3))])
@pytest.mark.parametrize("k", [0, 3, 5])
@pytest.mark.parametrize("where", ["gradient", "value"])
def test_checked_reports_the_first_non_finite_row(role, grad_shape, k, where):
    values, grad = _finite_batch(grad_shape)
    if where == "gradient":
        grad[k].flat[-1] = math.nan  # the row's last entry; its value stays finite
    else:
        values[k] = math.inf
    if k < 5:  # a later row fails in both
        values[5], grad[5] = -math.inf, math.nan
    with pytest.raises(losses.NonFiniteObjective) as info:
        losses._checked(values, {"logits": np.zeros((6, 4)), role: grad})
    assert info.value.row == k
    assert f"row {k}" in str(info.value)


def test_checked_passes_finite_batches_through():
    values, grad = _finite_batch((6, 4, 3))
    out = losses._checked(values, {"deltas": grad})
    assert out.values is values and out.grads["deltas"] is grad
    assert same_bits(out.non_smooth, np.zeros(6, dtype=bool))


# ---------------------------------------------------------------------------
# the matrix log's skew part and the M_LE near-pi log


def oracle_log_rotation(m):
    tr = np.trace(m, axis1=-2, axis2=-1)
    theta = np.arccos(np.minimum(np.maximum((tr - 1.0) / 2.0, -1.0), 1.0))
    small = theta < so3.EPS_THETA
    scale = np.where(
        small, 0.5 + theta * theta / 12.0, theta / (2.0 * np.sin(np.where(small, 1.0, theta)))
    )
    return scale[..., None] * oracle_vee(m - np.swapaxes(m, -1, -2))


def oracle_log_near_pi(m):
    """The one-row near-pi log the stacked one replaced."""
    b = (m + np.eye(3)) / 2.0
    i0 = int(np.argmax(np.diag(b)))
    v = b[i0] / math.sqrt(max(b[i0, i0], 1e-300))
    v = v / np.linalg.norm(v)
    s = oracle_vee(m - m.T)
    if np.dot(v, s) < 0.0:
        v = -v
    elif np.allclose(s, 0.0):
        v = so3.canonical_quaternion(np.concatenate(([0.0], v)))[1:]
    c = min(1.0, max(-1.0, (float(np.trace(m)) - 1.0) / 2.0))
    theta = min(math.acos(c), math.pi - 1e-6)
    return theta * v


def _unit_rows(rng, n):
    u = rng.standard_normal((n, 3))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


@settings(max_examples=100, deadline=None)
@given(lead=st.lists(st.integers(1, 5), min_size=0, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_skew_vee_equals_vee_of_the_difference(lead, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((*lead, 3, 3)) * 10.0 ** rng.integers(-12, 12, size=(*lead, 3, 3))
    for m in (a, a.mT):
        assert same_bits(so3.skew_vee(m), oracle_vee(m - np.swapaxes(m, -1, -2)))


@pytest.mark.parametrize("max_angle", [math.pi - 2e-3, 1e-3, 1e-9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_log_rotation_equals_the_oracle(max_angle, seed):
    """Random rows, small-angle rows and rows below the Taylor switch."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, max_angle, size=(500, 1)) * _unit_rows(rng, 500)
    m = so3.rodrigues(v)
    assert same_bits(so3.log_rotation(m), oracle_log_rotation(m))
    assert same_bits(so3.log_rotation(m[0]), oracle_log_rotation(m[0]))


def _near_pi_stack(rng, n):
    """Rotations in the near-pi band, shuffled: exact half turns 2 u u^T - I
    (skew part exactly 0), Rodrigues half turns (skew part of rounding
    size), and turns whose trace sits just inside the band, about both
    signs of each axis."""
    u = _unit_rows(rng, n)
    half = 2.0 * u[:, :, None] * u[:, None, :] - np.eye(3)
    rod = so3.rodrigues(math.pi * u)
    edge = math.acos(-1.0 + so3.EPS_PI / 2.0)  # trace -1 + EPS_PI on the band's edge
    angles = rng.uniform(edge + 1e-9, math.pi, size=(n, 1))
    inside = so3.rodrigues(np.concatenate([angles * u, -angles * u]))
    m = np.concatenate([half, rod, inside])
    return m[rng.permutation(len(m))]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_stacked_near_pi_log_equals_the_one_row_log(seed):
    m = _near_pi_stack(np.random.default_rng(seed), 200)
    assert so3.near_pi(m).all()
    assert np.any(np.all(so3.skew_vee(m) == 0.0, axis=1))  # the canonical-sign branch runs
    got = losses._log_near_pi(m)
    want = np.stack([oracle_log_near_pi(r) for r in m])
    # np.arccos and math.acos may round differently, so not bit for bit
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    assert np.all(np.linalg.norm(got, axis=1) <= math.pi - 1e-6 + 1e-15)
    assert same_bits(losses._log_near_pi(m[:0]), np.empty((0, 3)))


# ---------------------------------------------------------------------------
# the kernel's output layout


def _head_major(a):
    """a (B, K, 3) laid out as the stacked per-bin heads return it: a
    transposed view of a C-contiguous (K, B, 3) array."""
    return np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2)


@pytest.mark.parametrize("b", [1, 7])
@pytest.mark.parametrize("keys, targets, layout", [
    (None, None, "c"), (5, 1, "c"), (5, 5, "c"), (5, 1, "head_major"),
], ids=["rows", "keys_one_target", "keys_own_targets", "head_major_keys_one_target"])
def test_kernel_outputs_are_laid_out_as_the_rows(b, keys, targets, layout):
    """(B, 3) against (B, 3, 3), (B, K, 3) against (B, 1, 3, 3), (B, K, 3)
    against (B, K, 3, 3), and head-major (B, K, 3) rows against (B, 1, 3, 3)
    targets, as M_Pp and M_XPp train: outputs in the rows' shape, with the oracle's
    bits and strides (C-contiguous for C-contiguous rows), and the inputs
    left as they were (the kernel works on a copy, even where the
    transposed rows are already contiguous)."""
    rng = np.random.default_rng(b)
    lead = (b,) if keys is None else (b, keys)
    ys = _rows(rng, [KINDS[i % len(KINDS)] for i in range(math.prod(lead))]).reshape(*lead, 3)
    tail = () if targets is None else (targets,)
    a_mat = _targets(rng, b * (targets or 1)).reshape(b, *tail, 3, 3)
    if layout == "head_major":
        ys = _head_major(ys)
    ys_before, a_before = ys.copy(), a_mat.copy()
    got = losses._geodesic_axis_angle(ys, a_mat)
    want = oracle_geodesic_axis_angle(ys, a_mat)
    for g, w, shape in zip(got, want, (lead, ys.shape, lead)):
        assert g.shape == shape and g.strides == w.strides and same_bits(g, w)
        assert g.flags.c_contiguous or layout != "c"
    assert same_bits(ys, ys_before) and same_bits(a_mat, a_before)


@pytest.mark.parametrize("family", ["M_P", "M_Pp", "M_XP", "M_XPp"])
def test_expectation_families_on_a_gradcheck_block_equal_the_oracle_kernel(monkeypatch, family):
    """objective_batch on the first block check_family builds (as many
    instances' probe rows as fit its row budget) with the kernel, and with
    the row-major oracle in its place: the same bits.  The einsum over the
    K axis sums in an order that follows its operands' layout."""
    spec = losses.ObjectiveSpec(family)
    calls, objective = [], losses.objective_batch

    def recording(*args):
        calls.append(args)
        return objective(*args)

    per_call = gradcheck._ROW_BUDGET // gradcheck._probe_rows(spec, 8)
    monkeypatch.setattr(losses, "objective_batch", recording)
    gradcheck.check_family(spec, instances=per_call)
    monkeypatch.setattr(losses, "objective_batch", objective)
    (args,) = calls
    got = objective(*args)
    monkeypatch.setattr(losses, "_geodesic_axis_angle", oracle_geodesic_axis_angle)
    want = objective(*args)
    assert len(got.values) == per_call * gradcheck._probe_rows(spec, 8)
    assert same_bits(got.values, want.values) and same_bits(got.non_smooth, want.non_smooth)
    assert got.grads.keys() == want.grads.keys()
    for name in got.grads:
        assert same_bits(got.grads[name], want.grads[name])
