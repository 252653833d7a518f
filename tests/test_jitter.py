"""Projection, DLT homography, and pose-jitter grid expansion against
synthetic-transform and inverse-projection oracles."""

import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientgeo import jitter, so3

import record_golden_jitter

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_jitter.json")


def _euler(az_deg, el_deg, ct_deg):
    return so3.EulerZXZ(math.radians(az_deg), math.radians(el_deg), math.radians(ct_deg))


# ---------------------------------------------------------------------------
# camera + projection


def test_camera_validation():
    good = np.array([[500.0, 0.0, 100.0], [0.0, 500.0, 80.0], [0.0, 0.0, 1.0]])
    jitter.Camera(intrinsics=good)
    with pytest.raises(ValueError):
        jitter.Camera(intrinsics=np.eye(3) * -1.0)
    bad = good.copy()
    bad[1, 0] = 3.0
    with pytest.raises(ValueError):
        jitter.Camera(intrinsics=bad)


def test_project_known_points():
    cam = jitter.Camera(
        intrinsics=np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    )
    out = jitter.project(cam, [[0.0, 0.0, 1.0], [1.0, 0.0, 2.0]])
    assert np.allclose(out[0], [0.0, 0.0])
    assert np.allclose(out[1], [1.0, 0.0])


def test_project_rejects_points_behind_camera():
    cam = jitter.default_camera()
    with pytest.raises(jitter.BehindCamera):
        jitter.project(cam, [[0.0, 0.0, -5.0]])


def test_project_unproject_roundtrip():
    rng = np.random.default_rng(0)
    cam = jitter.default_camera(depth=0.0)
    pts = rng.uniform(-1.0, 1.0, size=(100, 3))
    pts[:, 2] = rng.uniform(2.0, 6.0, size=100)
    img = jitter.project(cam, pts)
    # invert: pixel -> ray -> scale by known depth
    k_inv = np.linalg.inv(cam.intrinsics)
    ones = np.ones((100, 1))
    rays = np.hstack([img, ones]) @ k_inv.T
    recovered = rays * pts[:, 2:3]
    assert np.max(np.abs(recovered - pts)) <= 1e-9


# ---------------------------------------------------------------------------
# DLT homography


def test_dlt_identity_from_exact_points():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.0, 100.0, size=(8, 2))
    h = jitter.dlt_homography(pts, pts)
    assert np.max(np.abs(h.apply(pts) - pts)) <= 1e-6
    ident = np.eye(3) / math.sqrt(3.0)
    assert np.allclose(h.h, ident, atol=1e-9)


def test_dlt_recovers_in_plane_rotation():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.0, 200.0, size=(12, 2))
    center = np.array([100.0, 100.0])
    ang = math.radians(10.0)
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    dst = (pts - center) @ rot.T + center
    h = jitter.dlt_homography(pts, dst)
    assert np.max(np.abs(h.apply(pts) - dst)) <= 1e-6


def test_dlt_recovers_random_projective_maps():
    rng = np.random.default_rng(3)
    for _ in range(25):
        true_h = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        if abs(np.linalg.det(true_h)) < 0.1:
            continue
        pts = rng.uniform(-50.0, 50.0, size=(9, 2))
        dst = jitter.apply_homography(true_h, pts)
        if np.max(np.abs(dst)) > 1e4:  # skip near-horizon configurations
            continue
        h = jitter.dlt_homography(pts, dst)
        assert np.max(np.abs(h.apply(pts) - dst)) <= 1e-6


def test_dlt_recovers_projective_maps_from_exactly_four_points():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(25):
        true_h = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        if abs(np.linalg.det(true_h)) < 0.1:
            continue
        pts = rng.uniform(-50.0, 50.0, size=(4, 2))
        dst = jitter.apply_homography(true_h, pts)
        if np.max(np.abs(dst)) > 1e4:  # skip near-horizon configurations
            continue
        h = jitter.dlt_homography(pts, dst)
        assert np.max(np.abs(h.apply(pts) - dst)) <= 1e-6
        assert np.allclose(h.h, jitter.Homography(true_h).h, atol=1e-6)
        checked += 1
    assert checked >= 10


def test_dlt_rejects_collinear_and_too_few():
    line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(jitter.DegenerateConfiguration):
        jitter.dlt_homography(line, line + 1.0)
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(jitter.DegenerateConfiguration):
        jitter.dlt_homography(tri, tri)


def test_homography_normalization_is_deterministic():
    h_raw = np.array([[0.0, -3.0, 10.0], [3.0, 0.0, -4.0], [0.0, 0.0, -2.0]])
    h = jitter.Homography(h_raw)
    assert abs(np.linalg.norm(h.h) - 1.0) <= 1e-12
    assert h.h[2, 2] >= 0.0
    again = jitter.Homography(5.0 * h_raw)
    assert np.array_equal(h.h, again.h)


def test_homography_rejects_singular():
    with pytest.raises(jitter.DegenerateConfiguration):
        jitter.Homography(np.outer([1.0, 2.0, 3.0], [0.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# jitter grid


def _sample(points=None, pose=None):
    pts = jitter.cuboid_points() if points is None else points
    cam = jitter.default_camera()
    euler = _euler(20.0, 60.0, 5.0) if pose is None else pose
    return pts, cam, euler


def test_default_grid_size_and_order():
    spec = jitter.JitterSpec(flip=False)
    assert spec.grid_size == 45
    out = jitter.jitter_sample(_sample(), spec)
    assert len(out) == 45
    # d_az outer, d_el middle, d_ct inner
    assert (out[0].d_az, out[0].d_el, out[0].d_ct) == (-1.0, -1.0, -4.0)
    assert (out[1].d_az, out[1].d_el, out[1].d_ct) == (-1.0, -1.0, -2.0)
    assert (out[5].d_az, out[5].d_el, out[5].d_ct) == (-1.0, 0.0, -4.0)
    assert (out[-1].d_az, out[-1].d_el, out[-1].d_ct) == (1.0, 1.0, 4.0)


def test_flip_doubles_grid_and_interleaves():
    spec = jitter.JitterSpec(d_az=(0.0,), d_el=(0.0,), d_ct=(0.0, 2.0), flip=True)
    out = jitter.jitter_sample(_sample(), spec)
    assert len(out) == 4
    assert [s.flipped for s in out] == [False, True, False, True]


def test_pure_tilt_is_exact_in_plane_rotation():
    pts, cam, euler = _sample()
    spec = jitter.JitterSpec(d_az=(0.0,), d_el=(0.0,), d_ct=(4.0,), flip=False)
    (item,) = jitter.jitter_sample((pts, cam, euler), spec)
    assert abs(math.degrees(item.euler.tilt - euler.tilt) - 4.0) <= 1e-12

    expected = jitter.Homography(
        cam.intrinsics @ so3.rot_z(math.radians(4.0)) @ np.linalg.inv(cam.intrinsics)
    )
    assert np.allclose(item.homography.h, expected.h, atol=1e-12)

    # warp agrees with reprojection under the new pose for every point
    pose = so3.euler_to_rotation(euler)
    new_pose = so3.euler_to_rotation(item.euler)
    src = jitter.project(cam, pts @ pose.matrix.T)
    dst = jitter.project(cam, pts @ new_pose.matrix.T)
    assert np.max(np.abs(item.homography.apply(src) - dst)) <= 1e-6


def test_flip_rule_on_angles():
    pts, cam, _ = _sample()
    spec = jitter.JitterSpec(d_az=(0.0,), d_el=(0.0,), d_ct=(0.0,), flip=True)
    out = jitter.jitter_sample((pts, cam, _euler(30.0, 10.0, 5.0)), spec)
    plain, mirrored = out
    assert abs(math.degrees(mirrored.euler.azimuth) + 30.0) <= 1e-9
    assert abs(math.degrees(mirrored.euler.elevation) - 10.0) <= 1e-9
    assert abs(math.degrees(mirrored.euler.tilt) + 5.0) <= 1e-9
    # mirrored warp = mirror about x = cx composed with the cell warp
    cx = cam.principal_point[0]
    expected = jitter.Homography(jitter.flip_homography(cx) @ plain.homography.h)
    assert np.allclose(mirrored.homography.h, expected.h, atol=1e-12)


def test_azimuth_jitter_homography_on_near_planar_subset():
    # thin slab: the closest 20% of points all lie on the front face, so the
    # estimated homography reprojects to well under a millipixel
    pts = jitter.cuboid_points(half_extents=(0.5, 0.4, 0.05), per_edge=7)
    cam = jitter.default_camera()
    euler = _euler(5.0, 88.0, 2.0)
    spec = jitter.JitterSpec(d_az=(2.0,), d_el=(0.0,), d_ct=(0.0,), flip=False)
    (item,) = jitter.jitter_sample((pts, cam, euler), spec)

    pose = so3.euler_to_rotation(euler)
    new_pose = so3.euler_to_rotation(item.euler)
    world = pts @ pose.matrix.T
    depths = world[:, 2] + cam.translation[2]
    count = max(4, int(round(0.2 * pts.shape[0])))
    near = np.argsort(depths, kind="stable")[:count]
    src = jitter.project(cam, world[near])
    dst = jitter.project(cam, pts[near] @ new_pose.matrix.T)
    err = np.max(np.abs(item.homography.apply(src) - dst))
    assert err <= 1e-3


def test_four_point_near_subset_warps_are_exact():
    # 8 corners: the near subset is max(4, round(0.2 * 8)) = 4 points, so every
    # fitted warp interpolates them exactly
    pts = jitter.cuboid_points(per_edge=2)
    assert pts.shape == (8, 3)
    cam = jitter.default_camera()
    euler = _euler(20.0, 60.0, 5.0)
    pose = so3.euler_to_rotation(euler)
    world = pts @ pose.matrix.T
    near = np.argsort(world[:, 2] + cam.translation[2], kind="stable")[:4]
    src = jitter.project(cam, world[near])
    out = jitter.jitter_sample((pts, cam, euler), jitter.JitterSpec(flip=False))
    assert len(out) == 45
    for item in out:
        dst = jitter.project(cam, pts[near] @ so3.euler_to_rotation(item.euler).matrix.T)
        assert np.max(np.abs(item.homography.apply(src) - dst)) <= 1e-6


def test_jittered_targets_stay_within_offset_composition():
    pts, cam, euler = _sample()
    spec = jitter.JitterSpec(flip=False)
    base = so3.euler_to_rotation(euler)
    for item in jitter.jitter_sample((pts, cam, euler), spec):
        moved = so3.euler_to_rotation(item.euler)
        d = so3.geodesic_distance_matrices(base.matrix, moved.matrix)
        bound = math.radians(abs(item.d_az) + abs(item.d_el) + abs(item.d_ct)) + 1e-9
        assert d <= bound


def test_jitter_results_deterministic():
    spec = jitter.JitterSpec()
    a = jitter.jitter_sample(_sample(), spec)
    b = jitter.jitter_sample(_sample(), spec)
    for x, y in zip(a, b):
        assert np.array_equal(x.homography.h, y.homography.h)
        assert x.euler == y.euler


@settings(max_examples=20, deadline=None)
@given(
    st.floats(-170.0, 170.0),
    st.floats(20.0, 160.0),
    st.floats(-170.0, 170.0),
)
def test_tilt_shortcut_matches_dlt_estimate(az, el, ct):
    # same cell estimated both ways: exact in-plane warp vs DLT on points
    pts = jitter.cuboid_points(per_edge=4)
    cam = jitter.default_camera()
    euler = _euler(az, el, ct)
    pose = so3.euler_to_rotation(euler)
    jit = so3.EulerZXZ(euler.azimuth, euler.elevation, euler.tilt + math.radians(3.0))
    new_pose = so3.euler_to_rotation(jit)
    src = jitter.project(cam, pts @ pose.matrix.T)
    dst = jitter.project(cam, pts @ new_pose.matrix.T)
    estimated = jitter.dlt_homography(src, dst)
    exact = jitter.Homography(
        cam.intrinsics @ so3.rot_z(math.radians(3.0)) @ np.linalg.inv(cam.intrinsics)
    )
    assert np.max(np.abs(estimated.h - exact.h)) <= 1e-6


# ---------------------------------------------------------------------------
# synthetic clouds + manifest


def test_cuboid_points_on_surface():
    pts = jitter.cuboid_points(half_extents=(0.5, 0.4, 0.3), per_edge=5)
    hx, hy, hz = 0.5, 0.4, 0.3
    on_face = (
        np.isclose(np.abs(pts[:, 0]), hx)
        | np.isclose(np.abs(pts[:, 1]), hy)
        | np.isclose(np.abs(pts[:, 2]), hz)
    )
    assert np.all(on_face)
    assert np.unique(pts, axis=0).shape[0] == pts.shape[0]


def test_sphere_points_on_surface_and_deterministic():
    pts = jitter.sphere_points(n=128, radius=0.7)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 0.7)) <= 1e-12
    assert np.array_equal(pts, jitter.sphere_points(n=128, radius=0.7))


def test_manifest_roundtrip(tmp_path):
    spec = jitter.JitterSpec(d_az=(0.0, 1.0), d_el=(0.0,), d_ct=(-2.0, 0.0), flip=True)
    items = jitter.jitter_sample(_sample(), spec)
    entries = [(f"sample_{i:03d}", item) for i, item in enumerate(items)]
    path = tmp_path / "manifest.txt"
    jitter.write_manifest(path, entries)
    back = jitter.read_manifest(path)
    assert len(back) == len(entries)
    for (sid, item), (sid2, item2) in zip(entries, back):
        assert sid == sid2
        assert np.array_equal(item.homography.h, item2.homography.h)
        assert abs(item.euler.azimuth - item2.euler.azimuth) <= 1e-12
        assert abs(item.euler.elevation - item2.euler.elevation) <= 1e-12
        assert abs(item.euler.tilt - item2.euler.tilt) <= 1e-12
        assert item.flipped == item2.flipped


def _manifest_with_column(tmp_path, col, value):
    """A one-cell manifest whose column col (0-based) is replaced by value."""
    spec = jitter.JitterSpec(d_az=(1.0,), d_el=(0.0,), d_ct=(0.0,), flip=False)
    path = tmp_path / "manifest.txt"
    jitter.write_manifest(path, [("s0", jitter.jitter_sample(_sample(), spec)[0])])
    header, line = path.read_text().splitlines()
    cols = line.split(", ")
    cols[col] = value
    path.write_text(header + "\n" + ", ".join(cols) + "\n")
    return path


@pytest.mark.parametrize("flag", ["yes", "true", "2", ""])
def test_manifest_rejects_a_flag_other_than_0_or_1(tmp_path, flag):
    with pytest.raises(ValueError, match="flipped column must be 0 or 1"):
        jitter.read_manifest(_manifest_with_column(tmp_path, 4, flag))


# offsets d_az and d_ct, warp entries h00 and h22, angles az and ct
@pytest.mark.parametrize("col", [1, 3, 5, 13, 14, 16])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_manifest_rejects_non_finite_numbers(tmp_path, col, value):
    with pytest.raises(ValueError, match="non-finite"):
        jitter.read_manifest(_manifest_with_column(tmp_path, col, value))


def test_manifest_write_is_byte_stable(tmp_path):
    spec = jitter.JitterSpec(d_az=(1.0,), d_el=(0.0,), d_ct=(0.0,), flip=False)
    items = jitter.jitter_sample(_sample(), spec)
    entries = [("s0", items[0])]
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    jitter.write_manifest(p1, entries)
    jitter.write_manifest(p2, entries)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("case", sorted(record_golden_jitter.CASES))
def test_cli_manifest_matches_golden(case, tmp_path):
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        want = json.load(fh)[case]
    data, cells = record_golden_jitter.manifest_bytes(*record_golden_jitter.CASES[case], tmp_path)
    assert cells == want["cells"]
    assert hashlib.sha256(data).hexdigest() == want["sha256"]
