"""Projection, DLT homography, and pose-jitter grid expansion against
synthetic-transform and inverse-projection oracles."""

import dataclasses
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
from so3_helpers import rot_z

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
    assert np.max(np.abs(jitter.apply_homography(h, pts) - pts)) <= 1e-6
    ident = np.eye(3) / math.sqrt(3.0)
    assert np.allclose(h, ident, atol=1e-9)


def test_dlt_recovers_in_plane_rotation():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.0, 200.0, size=(12, 2))
    center = np.array([100.0, 100.0])
    ang = math.radians(10.0)
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    dst = (pts - center) @ rot.T + center
    h = jitter.dlt_homography(pts, dst)
    assert np.max(np.abs(jitter.apply_homography(h, pts) - dst)) <= 1e-6


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
        assert np.max(np.abs(jitter.apply_homography(h, pts) - dst)) <= 1e-6


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
        assert np.max(np.abs(jitter.apply_homography(h, pts) - dst)) <= 1e-6
        assert np.allclose(h, jitter.normalize_homographies(true_h), atol=1e-6)
        checked += 1
    assert checked >= 10


def test_dlt_rejects_collinear_and_too_few():
    line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(jitter.DegenerateConfiguration):
        jitter.dlt_homography(line, line + 1.0)
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(jitter.DegenerateConfiguration):
        jitter.dlt_homography(tri, tri)


def test_dlt_fits_a_stack_of_correspondence_sets_as_each_set_alone():
    rng = np.random.default_rng(5)
    src = rng.uniform(-50.0, 50.0, size=(6, 2))
    dst = jitter.apply_homography(np.eye(3) + 0.05 * rng.standard_normal((4, 3, 3)), src)
    stacked = jitter.dlt_homography(src, dst)
    assert stacked.shape == (4, 3, 3)
    for warp, d in zip(stacked, dst):
        assert np.array_equal(warp, jitter.dlt_homography(src, d))


def _normalized_oracle(h):
    """One warp normalized by the per-warp rule: unit Frobenius norm unless
    already within 1e-9 of it, then the sign of h22, or of the first nonzero
    entry when h22 is 0; zero, non-finite and singular warps raise."""
    n = np.linalg.norm(h)
    if not np.isfinite(n) or n < 1e-12:
        raise jitter.DegenerateConfiguration("homography is numerically zero")
    if abs(n - 1.0) > 1e-9:
        h = h / n
    sign = 1.0
    for v in [h[2, 2], *h.reshape(-1)]:
        if v != 0.0:
            sign = 1.0 if v > 0.0 else -1.0
            break
    if sign != 1.0:
        h = h * sign
    if abs(np.linalg.det(h)) < 1e-12:
        raise jitter.DegenerateConfiguration("homography is singular")
    return h


def test_stacked_normalization_equals_the_per_warp_rule():
    rng = np.random.default_rng(6)
    one = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    unit = _normalized_oracle(one)
    h22_zero = rng.standard_normal((2, 3, 3))
    h22_zero[:, 2, 2] = 0.0
    h22_zero[:, 0, 0] = [-2.0, 3.0]  # first nonzero entry negative, then positive
    h22_zero[0, 1, 1] = 0.0  # a zero entry after the first nonzero one
    stack = np.concatenate([
        rng.standard_normal((40, 3, 3)),  # h22 of either sign
        -np.abs(rng.standard_normal((3, 3, 3))),  # h22 < 0
        h22_zero,
        [unit, unit * (1.0 + 5e-10), -unit],  # already unit within 1e-9
        [one * c for c in (5.0, 0.01, -3.0, 1e6)],  # scaled copies of one warp
    ])
    assert np.any(stack[:, 2, 2] > 0.0) and np.any(stack[:, 2, 2] < 0.0)
    want = np.array([_normalized_oracle(h) for h in stack])
    assert np.array_equal(jitter.normalize_homographies(stack), want)
    assert np.array_equal(jitter.normalize_homographies(want), want)
    # scaled copies normalize to one warp
    assert np.allclose(want[-4:], unit, rtol=0.0, atol=1e-15)


def test_homography_normalization_is_deterministic():
    h_raw = np.array([[0.0, -3.0, 10.0], [3.0, 0.0, -4.0], [0.0, 0.0, -2.0]])
    h = jitter.normalize_homographies(h_raw)
    assert abs(np.linalg.norm(h) - 1.0) <= 1e-12
    assert h[2, 2] >= 0.0
    again = jitter.normalize_homographies(5.0 * h_raw)
    assert np.array_equal(h, again)


@pytest.mark.parametrize("bad", [
    np.outer([1.0, 2.0, 3.0], [0.0, 1.0, 1.0]),
    np.zeros((3, 3)),
    np.full((3, 3), 1e-13),
    np.diag([1.0, np.inf, 1.0]),
    np.diag([1.0, np.nan, 1.0]),
], ids=["singular", "zero", "numerically_zero", "inf", "nan"])
def test_homography_rejects_zero_non_finite_and_singular(bad):
    with pytest.raises(jitter.DegenerateConfiguration):
        _normalized_oracle(bad)
    # one bad warp among good ones fails the stack
    with pytest.raises(jitter.DegenerateConfiguration):
        jitter.normalize_homographies(np.stack([np.eye(3), bad, np.eye(3)]))


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
    grid = jitter.jitter_sample(_sample(), spec, 0)
    assert len(grid) == 45
    # d_az outer, d_el middle, d_ct inner
    assert grid.offsets[0].tolist() == [-1.0, -1.0, -4.0]
    assert grid.offsets[1].tolist() == [-1.0, -1.0, -2.0]
    assert grid.offsets[5].tolist() == [-1.0, 0.0, -4.0]
    assert grid.offsets[-1].tolist() == [1.0, 1.0, 4.0]
    assert grid.sample_ids.tolist() == ["0"] * 45
    assert grid.warps.shape == (45, 3, 3) and grid.angles.shape == (45, 3)


def test_flip_doubles_grid_and_interleaves():
    spec = jitter.JitterSpec(d_az=(0.0,), d_el=(0.0,), d_ct=(0.0, 2.0), flip=True)
    grid = jitter.jitter_sample(_sample(), spec, 0)
    assert len(grid) == 4
    assert grid.flipped.tolist() == [False, True, False, True]
    assert grid.offsets[:, 2].tolist() == [0.0, 0.0, 2.0, 2.0]


def test_pure_tilt_is_exact_in_plane_rotation():
    pts, cam, euler = _sample()
    spec = jitter.JitterSpec(d_az=(0.0,), d_el=(0.0,), d_ct=(4.0,), flip=False)
    grid = jitter.jitter_sample((pts, cam, euler), spec, 0)
    assert len(grid) == 1
    assert abs(math.degrees(grid.angles[0, 2] - euler.tilt) - 4.0) <= 1e-12

    expected = jitter.normalize_homographies(
        cam.intrinsics @ rot_z(math.radians(4.0)) @ np.linalg.inv(cam.intrinsics)
    )
    assert np.allclose(grid.warps[0], expected, atol=1e-12)

    # warp agrees with reprojection under the new pose for every point
    pose = so3.euler_to_rotation(euler)
    new_pose = so3.euler_to_matrix(grid.angles[0])
    src = jitter.project(cam, pts @ pose.matrix.T)
    dst = jitter.project(cam, pts @ new_pose.T)
    assert np.max(np.abs(jitter.apply_homography(grid.warps[0], src) - dst)) <= 1e-6


def test_flip_rule_on_angles():
    pts, cam, _ = _sample()
    spec = jitter.JitterSpec(d_az=(0.0,), d_el=(0.0,), d_ct=(0.0,), flip=True)
    grid = jitter.jitter_sample((pts, cam, _euler(30.0, 10.0, 5.0)), spec, 0)
    mirrored = grid.angles[1]
    assert abs(math.degrees(mirrored[0]) + 30.0) <= 1e-9
    assert abs(math.degrees(mirrored[1]) - 10.0) <= 1e-9
    assert abs(math.degrees(mirrored[2]) + 5.0) <= 1e-9
    # mirrored warp = mirror about x = cx composed with the cell warp
    cx = cam.principal_point[0]
    expected = jitter.normalize_homographies(jitter.flip_homography(cx) @ grid.warps[0])
    assert np.allclose(grid.warps[1], expected, atol=1e-12)


def test_grid_angles_wrap_as_euler_values_do():
    # az + d_az and ct + d_ct cross +-180 degrees, and so do their mirrors
    pts, cam, _ = _sample()
    euler = _euler(-179.5, 60.0, 179.0)
    spec = jitter.JitterSpec(d_az=(-1.0, 0.5), d_el=(0.0,), d_ct=(0.0, 2.0), flip=True)
    grid = jitter.jitter_sample((pts, cam, euler), spec, 0)
    want = []
    for d_az, _, d_ct in grid.offsets[::2].tolist():
        e = so3.EulerZXZ(euler.azimuth + math.radians(d_az), euler.elevation,
                         euler.tilt + math.radians(d_ct))
        mirrored = so3.EulerZXZ(-e.azimuth, e.elevation, -e.tilt)
        want += [dataclasses.astuple(e), dataclasses.astuple(mirrored)]
    assert [tuple(row) for row in grid.angles.tolist()] == want


def test_azimuth_jitter_homography_on_near_planar_subset():
    # thin slab: the closest 20% of points all lie on the front face, so the
    # estimated homography reprojects to well under a millipixel
    pts = jitter.cuboid_points(half_extents=(0.5, 0.4, 0.05), per_edge=7)
    cam = jitter.default_camera()
    euler = _euler(5.0, 88.0, 2.0)
    spec = jitter.JitterSpec(d_az=(2.0,), d_el=(0.0,), d_ct=(0.0,), flip=False)
    grid = jitter.jitter_sample((pts, cam, euler), spec, 0)
    assert len(grid) == 1

    pose = so3.euler_to_rotation(euler)
    new_pose = so3.euler_to_matrix(grid.angles[0])
    world = pts @ pose.matrix.T
    depths = world[:, 2] + cam.translation[2]
    count = max(4, int(round(0.2 * pts.shape[0])))
    near = np.argsort(depths, kind="stable")[:count]
    src = jitter.project(cam, world[near])
    dst = jitter.project(cam, pts[near] @ new_pose.T)
    err = np.max(np.abs(jitter.apply_homography(grid.warps[0], src) - dst))
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
    grid = jitter.jitter_sample((pts, cam, euler), jitter.JitterSpec(flip=False), 0)
    assert len(grid) == 45
    # (45, 4, 2): each cell's warp of src against the projection under its pose
    dst = jitter.project(cam, pts[near] @ np.swapaxes(so3.euler_to_matrix(grid.angles), -1, -2))
    assert np.max(np.abs(jitter.apply_homography(grid.warps, src) - dst)) <= 1e-6


def test_jittered_targets_stay_within_offset_composition():
    pts, cam, euler = _sample()
    spec = jitter.JitterSpec(flip=False)
    base = so3.euler_to_rotation(euler)
    grid = jitter.jitter_sample((pts, cam, euler), spec, 0)
    d = so3.geodesic_distance_matrices(base.matrix, so3.euler_to_matrix(grid.angles))
    bound = np.radians(np.abs(grid.offsets).sum(axis=1)) + 1e-9
    assert np.all(d <= bound)


def test_jitter_results_deterministic():
    spec = jitter.JitterSpec()
    a = jitter.jitter_sample(_sample(), spec, 0)
    b = jitter.jitter_sample(_sample(), spec, 0)
    assert np.array_equal(a.warps, b.warps)
    assert np.array_equal(a.angles, b.angles)


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
    exact = jitter.normalize_homographies(
        cam.intrinsics @ rot_z(math.radians(3.0)) @ np.linalg.inv(cam.intrinsics)
    )
    assert np.max(np.abs(estimated - exact)) <= 1e-6


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
    grid = jitter.jitter_sample(_sample(), spec, 0)
    grid = dataclasses.replace(grid, sample_ids=np.array([f"sample_{i:03d}" for i in range(len(grid))]))
    path = tmp_path / "manifest.txt"
    jitter.write_manifest(path, grid)
    back = jitter.read_manifest(path)
    assert len(back) == len(grid) == 8
    assert back.sample_ids.tolist() == grid.sample_ids.tolist()
    assert np.array_equal(back.offsets, grid.offsets)
    assert np.array_equal(back.flipped, grid.flipped)
    assert np.array_equal(back.warps, grid.warps)
    assert np.max(np.abs(back.angles - grid.angles)) <= 1e-12


def _manifest_with(tmp_path, values):
    """A one-cell manifest whose column i (0-based) is replaced by values[i]."""
    spec = jitter.JitterSpec(d_az=(1.0,), d_el=(0.0,), d_ct=(0.0,), flip=False)
    path = tmp_path / "manifest.txt"
    jitter.write_manifest(path, jitter.jitter_sample(_sample(), spec, "s0"))
    header, line = path.read_text().splitlines()
    cols = line.split(", ")
    for col, value in values.items():
        cols[col] = value
    path.write_text(header + "\n" + ", ".join(cols) + "\n")
    return path


@pytest.mark.parametrize("flag", ["yes", "true", "2", ""])
def test_manifest_rejects_a_flag_other_than_0_or_1(tmp_path, flag):
    with pytest.raises(ValueError, match="flipped column must be 0 or 1"):
        jitter.read_manifest(_manifest_with(tmp_path, {4: flag}))


# offsets d_az and d_ct, warp entries h00 and h22, angles az and ct
@pytest.mark.parametrize("col", [1, 3, 5, 13, 14, 16])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_manifest_rejects_non_finite_numbers(tmp_path, col, value):
    with pytest.raises(ValueError, match="non-finite"):
        jitter.read_manifest(_manifest_with(tmp_path, {col: value}))


# warp columns h00..h22 are 5..13: all zeros, then all ones (rank one)
@pytest.mark.parametrize("entry", ["0.0", "1.0"])
def test_manifest_rejects_a_zero_or_singular_warp(tmp_path, entry):
    path = _manifest_with(tmp_path, dict.fromkeys(range(5, 14), entry))
    with pytest.raises(ValueError, match="numerically zero|singular"):
        jitter.read_manifest(path)


def test_manifest_write_is_byte_stable(tmp_path):
    spec = jitter.JitterSpec(d_az=(1.0,), d_el=(0.0,), d_ct=(0.0,), flip=False)
    grid = jitter.jitter_sample(_sample(), spec, "s0")
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    jitter.write_manifest(p1, grid)
    jitter.write_manifest(p2, grid)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("case", sorted(record_golden_jitter.CASES))
def test_cli_manifest_matches_golden(case, tmp_path):
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        want = json.load(fh)[case]
    data, cells = record_golden_jitter.manifest_bytes(*record_golden_jitter.CASES[case], tmp_path)
    assert cells == want["cells"]
    assert hashlib.sha256(data).hexdigest() == want["sha256"]
