"""Row-wise maps against their one-row calls: every so3 map, the Lloyd
step of fit_kmeans, the IoU rows of the detection matcher, and the
whole-buffer Adam step against the per-array one."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orientgeo import dictionary as dct
from orientgeo import harness, metrics, models, so3

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
ROWS = st.integers(min_value=1, max_value=6)


def _axis_angles(g, b):
    """b axis-angle rows with random angles from every regime: zero, the
    Taylor branch, ordinary, just inside and past the pi ball."""
    axis = g.standard_normal((b, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    regimes = [
        lambda: 0.0,
        lambda: g.uniform(0.0, 2.0 * so3.EPS_THETA),
        lambda: g.uniform(0.0, math.pi),
        lambda: math.pi - g.uniform(0.0, 1e-5),
        lambda: g.uniform(math.pi, 5.0),
    ]
    angles = [regimes[i]() for i in g.integers(0, len(regimes), size=b)]
    return axis * np.array(angles)[:, None]


def _rotations(g, b):
    """b rotation matrices: random ones, the identity, near-pi turns about
    each axis (every Shepperd branch), gimbal-locked ones (sin el = 0)."""
    out = []
    for kind in g.integers(0, 5, size=b):
        if kind == 0:
            out.append(so3.random_rotation(g).matrix)
        elif kind == 1:
            out.append(so3.rodrigues(g.uniform(-1.0, 1.0, 3) * g.choice([0.0, 1e-10, 0.3])))
        elif kind == 2:
            axis = np.eye(3)[g.integers(0, 3)] + 0.05 * g.standard_normal(3)
            out.append(so3.rodrigues(axis / np.linalg.norm(axis) * (math.pi - g.uniform(0.0, 0.3))))
        elif kind == 3:
            el = g.choice([0.0, math.pi])
            out.append(so3.euler_to_matrix([g.uniform(-3.0, 3.0), el, g.uniform(-3.0, 3.0)]))
        else:
            out.append(so3.euler_to_matrix(g.uniform(-3.0, 3.0, 3)))
    return np.stack(out)


def _quaternions(g, b):
    """b quaternion rows, some with leading zeros and negative components."""
    q = g.standard_normal((b, 4))
    q[g.random((b, 4)) < 0.3] = 0.0
    q[~q.any(axis=1), 3] = -1.0
    return q


def _assert_rows(stacked, one_row_calls):
    for i, want in enumerate(one_row_calls):
        np.testing.assert_array_equal(stacked[i], want)


@settings(max_examples=200, deadline=None)
@given(SEEDS, ROWS)
def test_axis_angle_maps_equal_one_row_calls(seed, b):
    g = np.random.default_rng(seed)
    v = _axis_angles(g, b)
    for fn in (so3.rodrigues, so3.clip_axis_angle_norm):
        _assert_rows(fn(v), [fn(row) for row in v])
        # a second leading axis, as the per-key tables use
        np.testing.assert_array_equal(fn(v[None])[0], fn(v))
    keys = so3.clip_axis_angle_norm(v)
    _assert_rows(dct.pose_matrices(keys, dct.AXIS_ANGLE),
                 [dct.pose_matrices(k, dct.AXIS_ANGLE) for k in keys])


@settings(max_examples=200, deadline=None)
@given(SEEDS, ROWS)
def test_matrix_maps_equal_one_row_calls(seed, b):
    g = np.random.default_rng(seed)
    m = _rotations(g, b)
    for fn in (so3._matrix_to_quat, so3.near_pi):
        _assert_rows(fn(m), [fn(row) for row in m])
    angles, locked = so3.matrix_to_euler(m)
    for i, row in enumerate(m):
        a, lock = so3.matrix_to_euler(row)
        np.testing.assert_array_equal(angles[i], a)
        assert locked[i] == lock
    _assert_rows(so3.euler_to_matrix(angles), [so3.euler_to_matrix(a) for a in angles])
    ok = ~so3.near_pi(m)
    _assert_rows(so3.log_rotation(m[ok]), [so3.log_rotation(row) for row in m[ok]])
    if not ok.all():
        with pytest.raises(so3.NearPiRotation):
            so3.log_rotation(m)


@settings(max_examples=200, deadline=None)
@given(SEEDS, ROWS)
def test_geodesic_distance_rows_and_tables_equal_one_pair_calls(seed, b):
    g = np.random.default_rng(seed)
    m1, m2 = _rotations(g, b), _rotations(g, b)
    m2[g.random(b) < 0.3] = m1[0]  # identical pairs measure exactly zero
    pairs = so3.geodesic_distance_matrices(m1, m2)
    _assert_rows(pairs, [so3.geodesic_distance_matrices(x, y) for x, y in zip(m1, m2)])
    table = so3.geodesic_distance_matrices(m1[:, None], m2)
    for i in range(b):
        _assert_rows(table[i], [so3.geodesic_distance_matrices(m1[i], y) for y in m2])
    assert so3.geodesic_distance_matrices(m1, m1).tolist() == [0.0] * b


@settings(max_examples=200, deadline=None)
@given(SEEDS, ROWS)
def test_quaternion_maps_equal_one_row_calls(seed, b):
    g = np.random.default_rng(seed)
    q = _quaternions(g, b)
    for fn in (so3.canonical_quaternion, so3.normalize_quaternion):
        _assert_rows(fn(q), [fn(row) for row in q])
    unit = so3.normalize_quaternion(q)
    _assert_rows(so3.normalize_quaternion(unit), [so3.UnitQuaternion(row).wxyz for row in unit])
    _assert_rows(so3._quat_to_matrix(unit), [so3._quat_to_matrix(row) for row in unit])
    _assert_rows(dct.pose_matrices(unit, dct.QUATERNION),
                 [dct.pose_matrices(k, dct.QUATERNION) for k in unit])


def test_matrix_to_quaternion_rows_take_every_shepperd_branch():
    m = np.stack([so3.rodrigues(v) for v in
                  ([0.1, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 3.0])])
    q = so3._matrix_to_quat(m)
    np.testing.assert_allclose(so3._quat_to_matrix(q), m, atol=1e-12)
    assert np.argmax(np.abs(q), axis=1).tolist() == [0, 1, 2, 3]


def test_row_maps_keep_their_errors():
    near_pi = so3.rodrigues([math.pi - 1e-5, 0.0, 0.0])
    with pytest.raises(so3.NearPiRotation):
        so3.log_rotation(np.stack([np.eye(3), near_pi]))
    with pytest.raises(ValueError, match="zero quaternion"):
        so3.canonical_quaternion(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
    locked = so3.euler_to_matrix([[0.3, 0.0, 0.2], [0.3, 1.0, 0.2]])
    assert so3.matrix_to_euler(locked)[1].tolist() == [True, False]
    with pytest.raises(so3.GimbalLock):
        so3.rotation_to_euler(so3.Rotation(locked[0]))


def _rotation_oracle(m):
    """so3.Rotation's checks on one matrix, written out with
    np.linalg.norm and one SVD: the reference that the stacked
    check_rotations must equal row by row, errors included."""
    m = np.array(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix must be finite")
    err = np.linalg.norm(m.T @ m - np.eye(3))
    if err > 1e-6:
        raise ValueError(f"matrix is not orthonormal (|R^T R - I|_F = {err:.3g})")
    if np.linalg.det(m) < 0.0:
        raise ValueError("matrix has negative determinant (improper rotation)")
    if err > so3.EPS_ORTHO:
        u, _, vt = np.linalg.svd(m)
        m = u @ vt
    return m


_BAD_ROWS = {
    "scaled": lambda r: r * (1.0 + 1e-3),
    "improper": lambda r: -r,
    "nan": lambda r: np.where(np.eye(3, dtype=bool), np.nan, r),
    "inf": lambda r: np.where(np.eye(3, dtype=bool), -np.inf, r),
}


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=12), st.sampled_from(["none", *_BAD_ROWS]))
def test_check_rotations_equals_one_matrix_checks(seed, b, bad):
    g = np.random.default_rng(seed)
    # drift from 1e-13 to 3e-8 per entry: errors below EPS_ORTHO (the row
    # passes unchanged) and in the re-projection band (1e-9, 1e-6]
    m = _rotations(g, b) + 10.0 ** g.uniform(-13.0, -7.5, (b, 1, 1)) * g.standard_normal((b, 3, 3))
    if bad != "none":
        i = int(g.integers(b))
        m[i] = _BAD_ROWS[bad](m[i])
        with pytest.raises(ValueError) as want:
            _rotation_oracle(m[i])
        for call in (so3.check_rotations, so3.Rotation):
            with pytest.raises(ValueError) as got:
                call(m if call is so3.check_rotations else m[i])
            assert str(got.value) == str(want.value)
        return
    want = [_rotation_oracle(row) for row in m]
    got = so3.check_rotations(m)
    assert not got.flags.writeable
    np.testing.assert_array_equal(_as_bits(got), _as_bits(want))
    for row, w in zip(m, want):
        np.testing.assert_array_equal(_as_bits(so3.Rotation(row).matrix), _as_bits(w))


# ---------------------------------------------------------------------------
# fit_kmeans against its per-cluster loop implementation


def _fit_kmeans_loop(targets, k, seed, representation):
    """fit_kmeans as written with two Python passes over the K clusters per
    Lloyd iteration: the reference the vectorized step must equal exactly.
    The centroid renormalization is the library's own row map."""
    targets = np.array([np.asarray(t, dtype=float) for t in targets])
    n = targets.shape[0]
    rng = np.random.default_rng(seed)
    centers = dct._plus_plus_seeds(targets, k, rng)
    for _ in range(dct.KMEANS_MAX_ITER):
        d2 = np.sum((targets[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        repaired = np.zeros(n, dtype=bool)
        for j in range(k):
            if not np.any(labels == j):
                assigned = d2[np.arange(n), labels].copy()
                assigned[repaired] = -np.inf
                far = int(np.argmax(assigned))
                labels[far] = j
                repaired[far] = True
        new_centers = np.empty_like(centers)
        for j in range(k):
            new_centers[j] = targets[labels == j].mean(axis=0)
        new_centers = dct._renormalize_centroids(new_centers, representation)
        shift = np.max(np.abs(new_centers - centers))
        centers = new_centers
        if shift < dct.KMEANS_SHIFT_TOL:
            break
    return dct.PoseDictionary(centers, representation)


def _outcome(fit, *args):
    """Keys, or the exception type for inputs where the fit fails (a repair
    can empty an earlier cluster, whose mean is then NaN)."""
    try:
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return fit(*args).keys
    except ValueError as exc:
        return type(exc)


def _kmeans_targets(g, n, representation, distinct):
    d = 4 if representation == dct.QUATERNION else 3
    pts = g.standard_normal((distinct, d))
    if representation == dct.QUATERNION:
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts[g.integers(0, distinct, size=n)]


@settings(max_examples=150, deadline=None)
@given(
    SEEDS,
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(dct.REPRESENTATIONS),
    st.booleans(),
)
def test_fit_kmeans_equals_loop_implementation(seed, n, k_frac, representation, repeated):
    g = np.random.default_rng(seed)
    k = 1 + int(k_frac * (n - 1))  # K = 1 up to K = n
    # few distinct points make coincident seeds and empty clusters
    distinct = int(g.integers(1, 4)) if repeated else n
    targets = _kmeans_targets(g, n, representation, distinct)
    got = _outcome(dct.fit_kmeans, targets, k, seed, representation)
    want = _outcome(_fit_kmeans_loop, targets, k, seed, representation)
    if isinstance(want, type):
        assert got is want
    else:
        np.testing.assert_array_equal(got, want)


def test_fit_kmeans_repairs_forced_empty_cluster():
    targets = np.repeat(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 5, axis=0)
    # two distinct points for three clusters: two seeds coincide, and the
    # first Lloyd step leaves the later of them empty
    seeds = dct._plus_plus_seeds(targets, 3, np.random.default_rng(0))
    assert len(np.unique(seeds, axis=0)) == 2
    got = dct.fit_kmeans(targets, 3, 0)
    # the repaired cluster holds a target instead of the mean of nothing
    np.testing.assert_array_equal(got.keys, _fit_kmeans_loop(targets, 3, 0, dct.AXIS_ANGLE).keys)


# ---------------------------------------------------------------------------
# iou and match_detections against the per-pair implementation


def _iou_scalar(box_a, box_b):
    """IoU of one pair of boxes in Python floats: the reference the row-wise
    iou must equal bit for bit."""
    ax1, ay1, ax2, ay2 = box_a
    bx1, by1, bx2, by2 = box_b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def _match_loop(detections, ground_truths):
    """match_detections as a double loop over every (detection, ground
    truth) pair: the reference for the one-IoU-row-per-detection matcher."""
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    taken = [False] * len(ground_truths)
    pairs = []
    for i in order:
        det = detections[i]
        best_j, best_iou = None, metrics.IOU_THRESHOLD
        for j, gt in enumerate(ground_truths):
            if taken[j] or gt.category != det.category:
                continue
            ov = _iou_scalar(det.box, gt.box)
            if ov > best_iou:
                best_j, best_iou = j, ov
        if best_j is not None:
            taken[best_j] = True
        pairs.append((i, best_j))
    return pairs


def _grid_boxes(g, n):
    """n boxes on a small integer grid, so that equal, overlapping, touching
    and disjoint pairs are all common; a few have half-unit corners."""
    corner = g.integers(0, 6, size=(n, 2)).astype(float)
    size = g.integers(1, 5, size=(n, 2)).astype(float)
    corner[g.random(n) < 0.2] += 0.5
    return np.concatenate([corner, corner + size], axis=1)


def _as_bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
def test_iou_table_equals_scalar_calls(seed, d, n_gt):
    g = np.random.default_rng(seed)
    a, b = _grid_boxes(g, d), _grid_boxes(g, n_gt)
    b[0] = [a[0, 2], a[0, 1], a[0, 2] + 1.0, a[0, 3]]  # touches a[0] along x = a[0, 2]
    table = metrics.iou(a[:, None], b)
    want = [[_iou_scalar(x, y) for y in b] for x in a]
    np.testing.assert_array_equal(_as_bits(table), _as_bits(want))
    np.testing.assert_array_equal(
        _as_bits(table), _as_bits([[metrics.iou(x, y) for y in b] for x in a])
    )
    assert _as_bits(table[0, 0]) == _as_bits(0.0)  # touching boxes score +0 exactly


def _detection_sets(g, d, n_gt, n_cats):
    """Ground truths on the grid, some duplicated so IoUs tie; detections
    mostly near a ground truth (of its category or another), scores from
    three levels so they tie."""
    cats = ["a", "b", "c"][:n_cats]
    ident = so3.Rotation.identity()
    gt_boxes = _grid_boxes(g, n_gt)
    for j in np.flatnonzero(g.random(n_gt) < 0.3):
        gt_boxes[j] = gt_boxes[g.integers(0, n_gt)]
    gts = [metrics.GroundTruth(str(g.choice(cats)), tuple(box), ident) for box in gt_boxes]
    dets = []
    for box in _grid_boxes(g, d):
        cat = str(g.choice(cats))
        if gts and g.random() < 0.7:
            near = gts[g.integers(0, n_gt)]
            box = np.array(near.box) + np.repeat(g.integers(-1, 2, size=2), 2)[[0, 2, 1, 3]]
            cat = near.category if g.random() < 0.8 else cat
        dets.append(metrics.Detection(cat, tuple(box), float(g.choice([0.2, 0.5, 0.9])), ident))
    return dets, gts


@settings(max_examples=300, deadline=None)
@given(
    SEEDS,
    st.integers(min_value=0, max_value=14),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=1, max_value=3),
)
@example(seed=0, d=0, n_gt=5, n_cats=2)
@example(seed=0, d=6, n_gt=0, n_cats=2)
def test_match_detections_equals_double_loop(seed, d, n_gt, n_cats):
    g = np.random.default_rng(seed)
    dets, gts = _detection_sets(g, d, n_gt, n_cats)
    assert metrics.match_detections(dets, gts) == _match_loop(dets, gts)


# ---------------------------------------------------------------------------
# stacked azimuth bins against the one-pose Euler path

_QUARTER_TURN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
BIN_COUNTS = (1, 4, 7, 8, 16, 24)


def _azimuth_bin_oracle(m, k):
    """The bin of one pose through rotation_to_euler and math.degrees, or
    None in gimbal lock: the reference for the stacked bins."""
    try:
        az = math.degrees(so3.rotation_to_euler(so3.Rotation(m)).azimuth)
    except so3.GimbalLock:
        return None
    return int((az % 360.0) / (360.0 / k))


def _azimuth_rows(g, b):
    """b rotations: exact quarter-turn azimuths, azimuths on the bin edges
    of every k in BIN_COUNTS (to the last ulp), next to +-180 degrees, in or
    at the edge of gimbal lock, and random ones."""
    out = []
    for kind in g.integers(0, 5, size=b):
        el, ct = g.uniform(0.01, math.pi - 0.01), g.uniform(-math.pi, math.pi)
        if kind == 0:
            turn = np.linalg.matrix_power(_QUARTER_TURN, int(g.integers(4)))
            out.append(so3.rot_z(ct) @ so3.rot_x(el) @ turn)
        elif kind == 1:
            k = int(g.choice(BIN_COUNTS))
            edge = 2.0 * math.pi * int(g.integers(k)) / k
            if g.random() < 0.5:  # one ulp below or above
                edge = np.nextafter(edge, g.choice([-9.0, 9.0]))
            out.append(so3.euler_to_matrix([edge, el, ct]))
        elif kind == 2:
            az = g.choice([-math.pi, math.pi]) + g.choice([0.0, 1e-15, -1e-15, 1e-12, -1e-12])
            out.append(so3.euler_to_matrix([az, el, ct]))
        elif kind == 3:
            el = g.choice([0.0, math.pi, so3.EPS_GIMBAL * g.uniform(0.5, 2.0)])
            out.append(so3.euler_to_matrix([g.uniform(-math.pi, math.pi), el, ct]))
        else:
            out.append(so3.random_rotation(g).matrix)
    return so3.check_rotations(np.stack(out))


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=16))
def test_azimuth_bins_equal_one_pose_euler_path(seed, b):
    m = _azimuth_rows(np.random.default_rng(seed), b)
    azimuth, locked = metrics._azimuths_deg(m)
    for k in BIN_COUNTS:
        bins = metrics._azimuth_bins(azimuth, k)
        for i in range(b):
            want = _azimuth_bin_oracle(m[i], k)
            assert bool(locked[i]) == (want is None)
            if want is None:
                with pytest.raises(so3.GimbalLock):
                    metrics.azimuth_bin(so3.Rotation(m[i]), k)
            else:
                assert bins[i] == want
                assert metrics.azimuth_bin(so3.Rotation(m[i]), k) == want


class _PerArrayAdam:
    """The per-array Adam step the flat-buffer one replaced, kept as the
    oracle: `entries` is a boolean mask over the stack axes or slice(None),
    and grads hold (dW, db) of just the selected entries."""

    def __init__(self, net, opt):
        self.opt = opt
        self.t = np.zeros(net.layers[0].weight.shape[:-2], dtype=int)
        self.m = [np.zeros_like(p) for l in net.layers for p in (l.weight, l.bias)]
        self.v = [np.zeros_like(m) for m in self.m]

    def step(self, net, grads, lr, entries):
        o = self.opt
        self.t[entries] += 1
        c1 = 1.0 - o.beta1 ** self.t[entries]
        c2 = 1.0 - o.beta2 ** self.t[entries]
        params = [p for l in net.layers for p in (l.weight, l.bias)]
        flat_grads = [d for dw_db in grads for d in dw_db]
        for param, g, m_all, v_all in zip(params, flat_grads, self.m, self.v):
            tail = (...,) + (None,) * (g.ndim - 1)
            m = m_all[entries] = m_all[entries] * o.beta1 + (1.0 - o.beta1) * g
            v = v_all[entries] = v_all[entries] * o.beta2 + (1.0 - o.beta2) * g * g
            param[entries] -= lr * (m / c1[tail]) / (np.sqrt(v / c2[tail]) + o.eps)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.sampled_from([(3,), (1,), (2, 3), (3, 1)]), st.integers(min_value=1, max_value=6))
def test_flat_adam_step_equals_per_array_steps(seed, lead, steps):
    g = np.random.default_rng(seed)
    sizes = [int(d) for d in g.integers(1, 5, size=g.integers(2, 4))]

    def build():
        nets = [models.init_pose_network(sizes, seed=i) for i in range(int(np.prod(lead)))]
        if len(lead) == 2:
            return models.stack([models.stack(nets[i::lead[0]]) for i in range(lead[0])])
        return models.stack(nets)

    old_net, new_net = build(), build()
    opt = harness.OptimizerConfig(beta1=float(g.choice([0.9, 0.5])),
                                  eps=float(g.choice([1e-8, 1e-3])))
    old, new = _PerArrayAdam(old_net, opt), harness._Adam(new_net, opt)
    never = tuple(int(g.integers(0, n)) for n in lead)  # an entry no mask selects
    stepped_all = False
    for _ in range(steps):
        lr = float(g.choice([1e-4, 1e-3, 0.1, 2.0]))
        grad = g.standard_normal(new_net.params.shape) * g.choice([0.0, 1e-6, 1.0, 1e3])
        grad[g.random(grad.shape) < 0.2] = 0.0
        if g.random() < 0.25:  # every entry, as the category stacks step
            stepped_all = True
            # the oracle broadcast slice(None) over one stack axis only
            entries = slice(None) if len(lead) == 1 else np.ones(lead, dtype=bool)
            rows_grad = grad if len(lead) == 1 else grad.reshape(-1, grad.shape[-1])
            pairs = [(l.weight, l.bias) for l in models.on_buffer(rows_grad, new_net).layers]
            old.step(old_net, pairs, lr, entries)
            new.step(new_net.params, grad.copy(), lr)
            continue
        mask = g.random(lead) < 0.5
        mask[never] = False
        if len(lead) == 2 and g.random() < 0.5:
            mask[g.integers(0, lead[0])] = False  # an all-false row
        sel = np.nonzero(mask)
        rows_grad = grad[sel]
        pairs = [(l.weight, l.bias) for l in models.on_buffer(rows_grad, new_net).layers]
        old.step(old_net, pairs, lr, mask)
        rows = new_net.params[sel]
        new.step(rows, rows_grad.copy(), lr, sel)
        new_net.params[sel] = rows
    assert stepped_all or new.t[never] == 0
    np.testing.assert_array_equal(new.t, old.t)
    as_flat = lambda arrays: models.flatten(zip(arrays[::2], arrays[1::2]))
    np.testing.assert_array_equal(new_net.params, models.flatten(
        (l.weight, l.bias) for l in old_net.layers))
    np.testing.assert_array_equal(new.m, as_flat(old.m))
    np.testing.assert_array_equal(new.v, as_flat(old.v))
