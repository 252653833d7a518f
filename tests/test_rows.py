"""Row-wise maps against their one-row calls: every so3 map, the Lloyd
step of fit_kmeans, the IoU rows of the detection matcher, the
whole-buffer Adam step against the per-array one, the flat-buffer
backward against the per-layer one it replaced, the key-stack dictionary
helpers, objective_batch with per-row keys, and the stacked gradcheck
sampler against the one-candidate loop."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orientgeo import dictionary as dct
from orientgeo import gradcheck, harness, losses, metrics, models, so3

from so3_helpers import azimuth_bin, random_axis_angle, rot_x, rot_z

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


def test_wrap_angles_equals_one_angle_calls():
    rng = np.random.default_rng(7)
    a = np.concatenate([rng.uniform(-20.0, 20.0, 100_000),
                        np.arange(-4, 5) * math.pi, [0.0, -0.0, math.pi - 1e-15, -math.pi]])
    want = np.array([so3.wrap_angle(v) for v in a.tolist()])
    assert np.array_equal(so3.wrap_angles(a).view(np.int64), want.view(np.int64))  # bit for bit


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


def _fit_kmeans_loop(targets, k, seed, representation, events=None):
    """fit_kmeans as written with the full (n, K) distance matrix and two
    Python passes over the K clusters per Lloyd iteration: the reference the
    blocked, bounded step must equal exactly.  The centroid renormalization
    is the library's own row map.  events, when given, collects
    (iteration, "tie") for each iteration where some point has two nearest
    centres and (iteration, "repair") for each empty-cluster repair."""
    targets = np.array([np.asarray(t, dtype=float) for t in targets])
    n = targets.shape[0]
    rng = np.random.default_rng(seed)
    centers = dct._plus_plus_seeds(targets, k, rng)
    for it in range(dct.KMEANS_MAX_ITER):
        d2 = np.sum((targets[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        if events is not None and k > 1:
            nearest = np.sort(d2, axis=1)
            if np.any(nearest[:, 0] == nearest[:, 1]):
                events.append((it, "tie"))
        repaired = np.zeros(n, dtype=bool)
        for j in range(k):
            if not np.any(labels == j):
                if events is not None:
                    events.append((it, "repair"))
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
    st.integers(min_value=1, max_value=7),
)
def test_fit_kmeans_equals_loop_implementation(seed, n, k_frac, representation, repeated, block):
    g = np.random.default_rng(seed)
    k = 1 + int(k_frac * (n - 1))  # K = 1 up to K = n
    # few distinct points make coincident seeds and empty clusters
    distinct = int(g.integers(1, 4)) if repeated else n
    targets = _kmeans_targets(g, n, representation, distinct)
    with mock.patch.object(dct, "_BLOCK_ROWS", block):  # blocks of 1-7 rows cross edges
        got = _outcome(dct.fit_kmeans, targets, k, seed, representation)
    want = _outcome(_fit_kmeans_loop, targets, k, seed, representation)
    if isinstance(want, type):
        assert got is want
    else:
        np.testing.assert_array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(SEEDS, st.sampled_from(dct.REPRESENTATIONS))
@example(32, dct.AXIS_ANGLE)  # a lower bound shrunk too little would keep a stale label
@example(34, dct.QUATERNION)
def test_fit_kmeans_equals_loop_on_clustered_targets(seed, representation):
    # a few hundred points around a few modes and tens of keys: many rows keep
    # their label on the bounds alone, and the keys that move the most are
    # often a point's second nearest
    g = np.random.default_rng(seed)
    n, k, m = int(g.integers(100, 400)), int(g.integers(5, 30)), int(g.integers(2, 12))
    modes = g.standard_normal((m, 4 if representation == dct.QUATERNION else 3))
    targets = modes[g.integers(0, m, n)] + g.standard_normal((n, modes.shape[1])) * g.choice(
        [0.1, 0.3, 0.6])
    if representation == dct.QUATERNION:
        targets /= np.linalg.norm(targets, axis=1, keepdims=True)
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


def test_fit_kmeans_repairs_a_cluster_emptied_after_the_first_iteration():
    # seven points in a plane: every cluster keeps a point in the first
    # Lloyd step, and one loses all of them in the second, when the bounds
    # of the rows that stayed put are already in use
    targets = np.zeros((7, 3))
    targets[:, :2] = [[0.25, -1.0], [-0.25, -1.0], [-1.0, 0.25], [0.5, 1.0], [-1.0, -0.25],
                      [0.0, -0.75], [-0.75, 0.25]]
    events = []
    want = _fit_kmeans_loop(targets, 4, 0, dct.AXIS_ANGLE, events)
    assert [e for e in events if e[1] == "repair"] == [(1, "repair")]
    np.testing.assert_array_equal(dct.fit_kmeans(targets, 4, 0).keys, want.keys)


def test_fit_kmeans_equals_loop_with_points_equidistant_from_two_centres():
    # a half-integer grid: squared distances are exact, so some point lies
    # exactly between two centres after the first iteration as well
    grid = np.array([[a, b, c] for a in range(3) for b in range(3) for c in range(2)]) / 2.0
    events = []
    want = _fit_kmeans_loop(grid, 4, 3, dct.AXIS_ANGLE, events)
    assert (1, "tie") in events
    for block in (1, 5, 512):
        with mock.patch.object(dct, "_BLOCK_ROWS", block):
            np.testing.assert_array_equal(dct.fit_kmeans(grid, 4, 3).keys, want.keys)


def test_fit_kmeans_equals_loop_on_quaternion_targets():
    g = np.random.default_rng(17)
    q = g.standard_normal((1500, 4))
    targets = so3.canonical_quaternion(q / np.linalg.norm(q, axis=1, keepdims=True))
    with mock.patch.object(dct, "_BLOCK_ROWS", 97):
        got = dct.fit_kmeans(targets, 40, 5, dct.QUATERNION)
    np.testing.assert_array_equal(got.keys, _fit_kmeans_loop(targets, 40, 5, dct.QUATERNION).keys)


def test_fit_kmeans_equals_loop_at_regress_size():
    # the perfbench regress fit: 4 x 1000 pooled axis-angle train targets, K = 100
    cfg = harness.ExperimentConfig(
        objective=losses.ObjectiveSpec("R_G"), dictionary_size=100,
        data=harness.DataConfig(categories=4, train_samples=1000, val_samples=1, test_samples=1),
    )
    dataset = harness.generate_synthetic(cfg, 202)
    targets = harness.pooled_train_targets(cfg, dataset)
    assert targets.shape == (4000, 3)
    want = _fit_kmeans_loop(targets, 100, 0, dct.AXIS_ANGLE)
    rows, iterations = [], []
    sq_distances, renormalize = dct._sq_distances, dct._renormalize_centroids

    def counted_sq_distances(y, keys):
        rows.append(len(y))
        return sq_distances(y, keys)

    def counted_renormalize(centroids, representation):
        iterations.append(1)
        return renormalize(centroids, representation)

    with mock.patch.object(dct, "_sq_distances", counted_sq_distances), \
            mock.patch.object(dct, "_renormalize_centroids", counted_renormalize):
        got = harness.fit_shared_dictionary(cfg, dataset)
    np.testing.assert_array_equal(got.keys, want.keys)
    # the bounds spare most rows: 46,133 of the 27 x 4,000 an unpruned fit computes
    assert sum(rows) < 0.5 * len(iterations) * len(targets)


def _training_rows_per_category(spec, dictionary, dataset, gamma):
    """harness._training_rows as per-category concatenations, then np.stack."""
    feats, parts = [], []
    for name in dataset.categories:
        split = dataset.train[name]
        mats, f = split.targets, split.features
        if split.aug_targets is not None:
            mats = np.concatenate([mats, split.aug_targets])
            f = np.concatenate([f, split.aug_features])
        feats.append(f)
        parts.append(harness._make_targets(spec, dictionary, mats, gamma))
    fields = zip(*((t.y, t.label, t.soft, t.ref) for t in parts))
    targets = losses.TargetBatch(*(None if f[0] is None else np.concatenate(f) for f in fields))
    return np.stack(feats), targets


@pytest.mark.parametrize("family,augmentation", [
    ("R_G", "jittered"), ("M_X", "none"), ("M_Gp", "jittered+extra"), ("C", "jittered"),
])
def test_training_rows_equal_stacked_per_category_rows(family, augmentation):
    cfg = harness.ExperimentConfig(
        objective=losses.ObjectiveSpec(family), dictionary_size=8,
        data=harness.DataConfig(categories=3, train_samples=40, val_samples=1, test_samples=1,
                                feature_dim=16, augmentation=augmentation),
    )
    dataset = harness.generate_synthetic(cfg, 5)
    dictionary = harness.fit_shared_dictionary(cfg, dataset)
    gamma = losses.resolve_gamma(cfg.objective, dictionary) if family == "M_X" else None
    feats, targets = harness._training_rows(cfg.objective, dictionary, dataset, gamma)
    want_feats, want = _training_rows_per_category(cfg.objective, dictionary, dataset, gamma)
    assert feats.shape == want_feats.shape
    np.testing.assert_array_equal(_as_bits(feats), _as_bits(want_feats))
    for field in ("y", "label", "soft", "ref"):
        got, expected = getattr(targets, field), getattr(want, field)
        if expected is None:
            assert got is None
        else:
            np.testing.assert_array_equal(_as_bits(got), _as_bits(expected))


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


def _azimuth_rows(g, b):
    """b rotations: exact quarter-turn azimuths, azimuths on the bin edges
    of every k in BIN_COUNTS (to the last ulp), next to +-180 degrees, in or
    at the edge of gimbal lock, and random ones."""
    out = []
    for kind in g.integers(0, 5, size=b):
        el, ct = g.uniform(0.01, math.pi - 0.01), g.uniform(-math.pi, math.pi)
        if kind == 0:
            turn = np.linalg.matrix_power(_QUARTER_TURN, int(g.integers(4)))
            out.append(rot_z(ct) @ rot_x(el) @ turn)
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
            want = azimuth_bin(m[i], k)
            assert bool(locked[i]) == (want is None)
            if want is not None:
                assert bins[i] == want


class _PerArrayAdam:
    """The per-array Adam step the flat-buffer one replaced, kept as the
    oracle in the same efficient form (moments m / (1 - b1) and v / (1 - b2),
    step size rate, eps_v): `entries` is a boolean mask over the stack axes
    or slice(None), and grads hold (dW, db) of just the selected entries."""

    def __init__(self, net, opt):
        self.opt = opt
        self.t = np.zeros(net.layers[0].weight.shape[:-2], dtype=int)
        self.m = [np.zeros_like(p) for l in net.layers for p in (l.weight, l.bias)]
        self.v = [np.zeros_like(m) for m in self.m]

    def step(self, net, grads, lr, entries):
        o = self.opt
        self.t[entries] += 1
        root_c2 = np.sqrt((1.0 - o.beta2 ** self.t[entries]) / (1.0 - o.beta2))
        rate = lr * (1.0 - o.beta1) * root_c2 / (1.0 - o.beta1 ** self.t[entries])
        eps_v = o.eps * root_c2
        params = [p for l in net.layers for p in (l.weight, l.bias)]
        flat_grads = [d for dw_db in grads for d in dw_db]
        for param, g, m_all, v_all in zip(params, flat_grads, self.m, self.v):
            tail = (...,) + (None,) * (g.ndim - 1)
            m = m_all[entries] = m_all[entries] * o.beta1 + g
            v = v_all[entries] = v_all[entries] * o.beta2 + g * g
            param[entries] -= rate[tail] * (m / (np.sqrt(v) + eps_v[tail]))


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


# ---------------------------------------------------------------------------
# the flat-buffer backward against the per-layer one


def _per_layer_backward(net, cache, grad_out):
    """The backward pass that returned fresh (dW, db) arrays per layer,
    kept as the oracle for the one that fills one flat gradient buffer."""
    grads = [None] * len(net.layers)
    g = np.asarray(grad_out, dtype=float)
    for i in reversed(range(len(net.layers))):
        tag, h = cache[i + 1]
        gz = models._activation_backward(tag, h, g)
        h_prev = cache[i][1]
        grads[i] = (np.swapaxes(gz, -1, -2) @ h_prev, gz.sum(axis=-2))
        g = gz @ net.layers[i].weight
    return grads


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=9))
def test_backward_buffer_equals_flattened_per_layer_grads(seed, cats, keys, n):
    # the category stack on feats (G, n, in), the per-bin (G, K) stack on
    # feats[:, None], and its gathered heads (S, P), as the training step
    # runs them
    g = np.random.default_rng(seed)
    sizes = [int(d) for d in g.integers(1, 9, size=g.integers(2, 5))]
    acts = [str(a) for a in g.choice(models.ACTIVATIONS, size=len(sizes) - 1)]
    heads = [[models.init_pose_network(sizes, seed=int(g.integers(1000)), activations=acts)
              for _ in range(keys)] for _ in range(cats)]
    feats = g.standard_normal((cats, n, sizes[0]))
    per_bin = models.stack([models.stack(row) for row in heads])
    cases = [(models.stack([row[0] for row in heads]), feats), (per_bin, feats[:, None])]
    _, cache = models.forward_cached(per_bin, feats[:, None])
    sel = np.nonzero(g.random((cats, keys)) < 0.5)
    gathered = models.on_buffer(per_bin.params[sel], per_bin)
    gathered_cache = [("input", feats[sel[0]])] + [(tag, h[sel]) for tag, h in cache[1:]]
    for net, x in cases + [(gathered, None)]:
        cache = gathered_cache if x is None else models.forward_cached(net, x)[1]
        grad_out = g.standard_normal(cache[-1][1].shape) * g.choice([1e-3, 1.0, 1e3])
        got = models.backward(net, cache, grad_out)
        assert got.shape == net.params.shape
        want = models.flatten(_per_layer_backward(net, cache, grad_out))
        np.testing.assert_array_equal(_as_bits(got), _as_bits(want))


# ---------------------------------------------------------------------------
# key-stack dictionary helpers against their one-dictionary loops


def _sq_distances_one(y, keys):
    """|y - z_k|^2 of each row of y to the keys of one dictionary (K, d)."""
    return sum((y[..., None, j] - keys[:, j]) ** 2 for j in range(keys.shape[1]))


def _min_pairwise_loop(keys):
    """min_{i < j} |z_i - z_j|^2 of one dictionary, one key at a time."""
    best = math.inf
    for i in range(keys.shape[0]):
        d2 = np.sum((keys[i + 1 :] - keys[i]) ** 2, axis=1)
        if d2.size:
            best = min(best, float(d2.min()))
    return best


def _key_stack(g, lead, k, d):
    keys = g.standard_normal(lead + (k, d)) * g.choice([1e-3, 1.0, 30.0])
    if k > 1 and g.random() < 0.3:  # coincident keys
        keys[..., -1, :] = keys[..., 0, :]
    return keys


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.sampled_from([(), (1,), (4,), (2, 3)]), st.integers(min_value=1, max_value=9),
       st.sampled_from([3, 4]))
def test_key_stack_helpers_equal_one_dictionary_loops(seed, lead, k, d):
    g = np.random.default_rng(seed)
    keys = _key_stack(g, lead, k, d)
    y = g.standard_normal(lead + (d,))
    got_d2 = dct._sq_distances(y, keys)
    got_min = dct.min_pairwise_sq_distance(keys)
    assert np.shape(got_min) == lead
    for idx in np.ndindex(*lead):
        want_d2 = _sq_distances_one(y[idx], keys[idx])
        np.testing.assert_array_equal(_as_bits(got_d2[idx]), _as_bits(want_d2))
        want = _min_pairwise_loop(keys[idx])
        assert _as_bits(np.asarray(got_min)[idx]) == _as_bits(np.float64(want))
    if lead == ():
        assert type(got_min) is float
        # one dictionary's rows against its shared keys
        ys = g.standard_normal((5, d))
        np.testing.assert_array_equal(dct._sq_distances(ys, keys), _sq_distances_one(ys, keys))


@pytest.mark.parametrize("representation", dct.REPRESENTATIONS)
def test_default_gamma_of_a_training_sized_dictionary_equals_loop(representation):
    g = np.random.default_rng(5)
    d = 3 if representation == dct.AXIS_ANGLE else 4
    keys = g.standard_normal((100, d))
    if representation == dct.QUATERNION:
        keys = so3.normalize_quaternion(keys)
    gamma = dct.default_gamma(dct.PoseDictionary(keys, representation))
    assert type(gamma) is float and gamma == 0.5 / _min_pairwise_loop(keys)
    stacked = dct.default_gamma(np.stack([keys, keys[::-1]]))
    assert stacked.tolist() == [gamma, gamma]


# ---------------------------------------------------------------------------
# objective_batch with per-row keys against one-dictionary calls


def _per_row_case(spec, b, k, g):
    """B rows, each with its own K keys.  Rows are plain, have tied top
    logits, compose onto norm exactly pi (axis-angle) or select a key at
    angle pi - 1e-8 from an identity target (the M_LE near-pi log band)."""
    d = spec.pose_dim
    keys = g.standard_normal((b, k, d))
    y = g.standard_normal((b, d))
    if spec.representation == dct.QUATERNION:
        keys, y = so3.normalize_quaternion(keys), so3.normalize_quaternion(y)
    logits = g.standard_normal((b, k))
    deltas = 0.4 * g.standard_normal((b, k, d) if spec.per_bin else (b, d))
    for i, kind in enumerate(g.integers(0, 4, size=b)):
        if kind == 1:
            logits[i] = g.integers(0, 2, size=k).astype(float)  # ties
        elif kind >= 2 and spec.representation == dct.AXIS_ANGLE:
            logits[i, 0] = 10.0
            if kind == 2:
                keys[i, 0] = [math.pi / 2, 0.0, 0.0]
                reach = math.pi if spec.combination == models.RIEMANNIAN else math.pi / 2
                # key + delta is [pi, 0, 0] exactly; riemannian deltas sit on pi
                (deltas[i, 0] if spec.per_bin else deltas[i])[:] = [reach, 0.0, 0.0]
            else:
                keys[i, 0] = [math.pi - 1e-8, 0.0, 0.0]
                y[i] = 0.0
    label = g.integers(0, k, size=b)
    soft = g.dirichlet(np.ones(k), size=b)
    prediction = logits if spec.family == "C" else (logits, deltas)
    if spec.family in ("R_G", "R_E"):
        prediction = g.standard_normal((b, d))
    return prediction, losses.TargetBatch(y=y, label=label, soft=soft), keys


def _row(prediction, i):
    if isinstance(prediction, tuple):
        return tuple(p[i : i + 1] for p in prediction)
    return prediction[i : i + 1]


def _assert_same_batch(got, want):
    np.testing.assert_array_equal(_as_bits(got.values), _as_bits(want.values))
    assert set(got.grads) == set(want.grads)
    for name, g in want.grads.items():
        np.testing.assert_array_equal(_as_bits(got.grads[name]), _as_bits(g))
    np.testing.assert_array_equal(got.non_smooth, want.non_smooth)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(gradcheck.default_specs()) - 1), SEEDS, ROWS,
       st.integers(min_value=2, max_value=6))
def test_per_row_keys_equal_one_dictionary_calls(spec_index, seed, b, k):
    spec = gradcheck.default_specs()[spec_index]
    g = np.random.default_rng(seed)
    prediction, targets, keys = _per_row_case(spec, b, k, g)
    keyed = spec.family in losses.BIN_DELTA_FAMILIES
    got = losses.objective_batch(spec, prediction, targets, keys if keyed else None)
    for i in range(b):
        own = dct.PoseDictionary(keys[i], spec.representation) if keyed else None
        one = losses.objective_batch(spec, _row(prediction, i), targets.rows(slice(i, i + 1)), own)
        got_row = losses.BatchLoss(got.values[i : i + 1],
                                   {name: g[i : i + 1] for name, g in got.grads.items()},
                                   got.non_smooth[i : i + 1])
        _assert_same_batch(got_row, one)
    if keyed:
        shared = dct.PoseDictionary(keys[0], spec.representation)
        broadcast = np.broadcast_to(shared.keys, keys.shape)
        _assert_same_batch(losses.objective_batch(spec, prediction, targets, broadcast),
                           losses.objective_batch(spec, prediction, targets, shared))


def test_per_row_keys_are_validated():
    spec = losses.ObjectiveSpec("M_G")
    targets = losses.TargetBatch(y=np.zeros((2, 3)), label=np.array([0, 1]))
    prediction = (np.zeros((2, 2)), np.zeros((2, 3)))
    for keys in (np.zeros((3, 2, 3)), np.zeros((2, 2, 4)), np.zeros((2, 3, 3)), np.zeros((2, 3))):
        with pytest.raises(losses.FamilyMismatch):
            losses.objective_batch(spec, prediction, targets, keys)
    quaternion = losses.ObjectiveSpec("M_G", representation=dct.QUATERNION)
    with pytest.raises(losses.FamilyMismatch):
        losses.objective_batch(quaternion, (np.zeros((2, 2)), np.zeros((2, 4))), targets,
                               np.zeros((2, 2, 3)))


# ---------------------------------------------------------------------------
# the stacked gradcheck sampler against the one-candidate loop


def _oracle_pose(representation, rng):
    if representation == dct.AXIS_ANGLE:
        return random_axis_angle(rng, max_angle=math.pi - 0.1)
    q = rng.standard_normal(4)
    return so3.canonical_quaternion(q / np.linalg.norm(q))


def _oracle_logits(k, rng):
    for _ in range(gradcheck.MAX_RESAMPLE):
        logits = rng.standard_normal(k)
        top = np.sort(logits)[-2:]
        if top[1] - top[0] >= gradcheck.LOGIT_MARGIN:
            return logits
    raise gradcheck.InstanceSamplingFailed("could not separate the top two logits")


def _oracle_pose_distance(spec, y_a, y_b):
    if spec.representation == dct.AXIS_ANGLE:
        mats = so3.rodrigues(so3.clip_axis_angle_norm(np.concatenate([y_a, [y_b]])))
        return so3.geodesic_distance_matrices(mats[:-1], mats[-1])
    c = np.abs(y_a @ y_b) / (np.linalg.norm(y_a, axis=-1) * np.linalg.norm(y_b))
    return 2.0 * np.arccos(np.minimum(1.0, c))


def _oracle_distances(spec, prediction, y, dictionary):
    fam = spec.family
    if fam in ("R_E", "C"):
        return np.empty(0)
    if fam == "R_G":
        return _oracle_pose_distance(spec, np.asarray(prediction)[None], y)
    logits, deltas = prediction
    if fam in ("M_P", "M_Pp", "M_XP", "M_XPp"):
        idx = np.arange(dictionary.size)
    else:
        idx = np.array([int(np.argmax(logits))])
    keys = dictionary.keys[idx]
    d = deltas[idx] if spec.per_bin else np.broadcast_to(deltas, keys.shape)
    if spec.combination == models.RIEMANNIAN:
        mats = so3.rodrigues(so3.clip_axis_angle_norm(np.concatenate([keys, d, [y]])))
        rel = np.swapaxes(mats[: len(idx)], -1, -2) @ mats[-1]
        out = so3.geodesic_distance_matrices(mats[len(idx) : -1], rel)
        if fam in ("M_LE", "M_LEp"):
            out = np.append(out, so3.geodesic_distance_matrices(np.eye(3), rel[-1]))
        return out
    s = keys + d
    if spec.representation == dct.QUATERNION:
        s = s / np.linalg.norm(s, axis=-1, keepdims=True)
    return _oracle_pose_distance(spec, s, y)


def _oracle_norms_ok(spec, prediction, dictionary):
    margin = gradcheck.NORM_MARGIN
    if spec.family in ("R_G", "R_E", "C"):
        if spec.family == "R_G" and spec.representation == dct.AXIS_ANGLE:
            return abs(np.linalg.norm(prediction) - math.pi) > margin
        return True
    _, deltas = prediction
    rows = deltas if spec.per_bin else np.broadcast_to(deltas, (dictionary.size, spec.pose_dim))
    if spec.combination == models.RIEMANNIAN:
        return bool(np.all(np.abs(np.linalg.norm(rows, axis=1) - math.pi) > margin))
    norms = np.linalg.norm(dictionary.keys + rows, axis=1)
    if spec.representation == dct.QUATERNION:
        return bool(np.all(norms > 0.3))
    return bool(np.all(np.abs(norms - math.pi) > margin))


def _oracle_instance(spec, rng, k):
    """The stacked sampler as the one-candidate loop: every pose drawn on
    its own, every smoothness test on its own.  Returns the instance's
    _Stack fields in order, None where the family has no such field."""
    fam = spec.family
    for _ in range(gradcheck.MAX_RESAMPLE):
        y_true = _oracle_pose(spec.representation, rng)
        dictionary = None
        if fam in ("R_G", "R_E"):
            prediction = _oracle_pose(spec.representation, rng)
            fields = (prediction, None, None, y_true, None, None, None)
        elif fam == "C":
            prediction = _oracle_logits(k, rng)
            fields = (None, prediction, None, None, int(rng.integers(k)), None, None)
        else:
            keys = np.stack([_oracle_pose(spec.representation, rng) for _ in range(k)])
            dictionary = dct.PoseDictionary(keys, spec.representation)
            soft = None
            if fam in losses.SOFT_TARGET_FAMILIES:
                soft = dct.soft_assign_probs(y_true, keys, losses.resolve_gamma(spec, dictionary))
            logits = _oracle_logits(k, rng)
            shape = (k, spec.pose_dim) if spec.per_bin else (spec.pose_dim,)
            deltas = 0.4 * rng.standard_normal(shape)
            prediction = (logits, deltas)
            label = dct.hard_label(y_true, dictionary)
            fields = (None, logits, deltas, y_true, label, soft, keys)
        if _oracle_norms_ok(spec, prediction, dictionary):
            d = _oracle_distances(spec, prediction, y_true, dictionary)
            margin = gradcheck.EXCLUSION_MARGIN
            if np.all((d >= margin) & (d <= math.pi - margin)):
                return fields
    raise gradcheck.InstanceSamplingFailed(f"no smooth instance for {fam}")


def _assert_same_instances(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for x, y in zip(a, b, strict=True):
            if x is None or y is None:
                assert x is None and y is None
            elif isinstance(y, int):
                assert np.issubdtype(np.asarray(x).dtype, np.integer) and x == y
            else:
                np.testing.assert_array_equal(_as_bits(np.asarray(x)), _as_bits(np.asarray(y)))


def _stacked_instances(spec, rng, k, n):
    """The stacked sampler's n instances, each as its _Stack row's fields."""
    stack = gradcheck._sample(spec, rng, k, n)
    return [stack.rows(i).fields() for i in range(n)]


# EXCLUSION_MARGIN 0.9 leaves a band of width pi - 1.8 around pi/2, so most
# candidates are rejected and batches mix accepted and rejected rows
@settings(max_examples=120, deadline=None)
@given(st.integers(0, len(gradcheck.default_specs()) - 1), SEEDS,
       st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=12),
       st.sampled_from([gradcheck.EXCLUSION_MARGIN, 0.9]))
def test_stacked_sampler_equals_one_candidate_loop(spec_index, seed, k, n, margin):
    spec = gradcheck.default_specs()[spec_index]
    old = gradcheck.EXCLUSION_MARGIN
    gradcheck.EXCLUSION_MARGIN = margin
    try:
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _outcome_of(lambda: [_oracle_instance(spec, ra, k) for _ in range(n)])
        got = _outcome_of(lambda: _stacked_instances(spec, rb, k, n))
    finally:
        gradcheck.EXCLUSION_MARGIN = old
    if isinstance(want, type):
        assert got is want
    else:
        _assert_same_instances(got, want)
    assert rb.bit_generator.state == ra.bit_generator.state


def _outcome_of(draw):
    try:
        return draw()
    except gradcheck.InstanceSamplingFailed:
        return gradcheck.InstanceSamplingFailed


@pytest.mark.parametrize("family", ["R_G", "M_G", "M_Pp"])
def test_stacked_sampler_fails_where_the_loop_fails(monkeypatch, family):
    spec = losses.ObjectiveSpec(family)
    # a band of width pi - 4 < 0: every candidate is rejected
    monkeypatch.setattr(gradcheck, "EXCLUSION_MARGIN", 2.0)
    ra, rb = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(gradcheck.InstanceSamplingFailed):
        _oracle_instance(spec, ra, 4)
    with pytest.raises(gradcheck.InstanceSamplingFailed):
        gradcheck._sample(spec, rb, 4, 7)
    assert rb.bit_generator.state == ra.bit_generator.state
