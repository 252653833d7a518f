"""3D pose jittering: known small shifts in azimuth/elevation/tilt realized
as image warps, plus the horizontal flip rule.

Geometry convention: a sample's Euler angles orient the object directly in
the camera frame, X_cam = R_cam (R(az, el, ct) X_obj) + t_cam, with the
object model centered at its own origin.  Tilt is the leftmost factor, so a
pure tilt shift rotates the camera frame about its optical axis; when the
camera extrinsics fix that axis (identity rotation, translation along z)
the induced warp is the exact in-plane homography K Rz(d_ct) K^-1.  Azimuth
and elevation shifts move points out of plane, so their warps are estimated
with the DLT algorithm on the points closest to the camera, mirroring the
projection pipeline this models.

Angles inside EulerZXZ are radians; jitter offsets and manifest angle
columns are degrees.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from . import so3

EPS_DEPTH = 1e-9
# second-smallest singular value below this (relative) means the DLT system
# lost more rank than its expected one-dimensional null space
DLT_RANK_TOL = 1e-9
# share of a cloud's points, nearest the camera first, that fits each DLT warp
NEAR_FRACTION = 0.2


class BehindCamera(ValueError):
    """A point's camera-frame depth is not positive."""


class DegenerateConfiguration(ValueError):
    """Point correspondences cannot determine a homography."""


@dataclasses.dataclass(frozen=True, eq=False)
class Camera:
    """Pinhole camera: pixel = K (R x + t) / depth."""

    intrinsics: np.ndarray
    rotation: so3.Rotation = dataclasses.field(default_factory=so3.Rotation.identity)
    translation: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        k = np.asarray(self.intrinsics, dtype=float)
        if k.shape != (3, 3):
            raise ValueError("intrinsics must be 3x3")
        if k[1, 0] != 0.0 or k[2, 0] != 0.0 or k[2, 1] != 0.0:
            raise ValueError("intrinsics must be upper-triangular")
        if k[0, 0] <= 0.0 or k[1, 1] <= 0.0 or k[2, 2] <= 0.0:
            raise ValueError("focal entries must be positive")
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,):
            raise ValueError("translation must be a 3-vector")
        k.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "intrinsics", k)
        object.__setattr__(self, "translation", t)

    @property
    def principal_point(self) -> np.ndarray:
        return np.array([self.intrinsics[0, 2], self.intrinsics[1, 2]])


@dataclasses.dataclass(frozen=True)
class JitterSpec:
    """Degree offsets per axis and whether to emit mirrored twins."""

    d_az: tuple = (-1.0, 0.0, 1.0)
    d_el: tuple = (-1.0, 0.0, 1.0)
    d_ct: tuple = (-4.0, -2.0, 0.0, 2.0, 4.0)
    flip: bool = True

    def __post_init__(self):
        for name in ("d_az", "d_el", "d_ct"):
            vals = tuple(float(v) for v in getattr(self, name))
            if not vals:
                raise ValueError(f"{name} must list at least one offset")
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"{name} offsets must be finite")
            object.__setattr__(self, name, vals)

    @property
    def grid_size(self) -> int:
        n = len(self.d_az) * len(self.d_el) * len(self.d_ct)
        return 2 * n if self.flip else n


@dataclasses.dataclass(frozen=True, eq=False)
class Homography:
    """3x3 projective warp, normalized to |h|_F = 1 with h[2,2] >= 0."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.shape != (3, 3):
            raise ValueError("homography must be 3x3")
        n = np.linalg.norm(h)
        if not np.isfinite(n) or n < 1e-12:
            raise DegenerateConfiguration("homography is numerically zero")
        if abs(n - 1.0) > 1e-9:  # idempotent: reloading normalized data is exact
            h = h / n
        s = _sign_convention(h)
        if s != 1.0:
            h = h * s
        if abs(np.linalg.det(h)) < 1e-12:
            raise DegenerateConfiguration("homography is singular")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return apply_homography(self.h, points)


def _sign_convention(h: np.ndarray) -> float:
    if h[2, 2] != 0.0:
        return 1.0 if h[2, 2] > 0.0 else -1.0
    for v in h.reshape(-1):
        if v != 0.0:
            return 1.0 if v > 0.0 else -1.0
    return 1.0


def apply_homography(h: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Each point set (..., n, 2) mapped by its homography (..., 3, 3)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ones = np.ones(pts.shape[:-1] + (1,))
    mapped = np.concatenate([pts, ones], axis=-1) @ np.swapaxes(np.asarray(h, dtype=float), -1, -2)
    return mapped[..., :2] / mapped[..., 2:3]


def project(cam: Camera, points) -> np.ndarray:
    """Pinhole projection of each world point (..., 3); rejects
    non-positive depths."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cam_pts = pts @ cam.rotation.matrix.T + cam.translation
    depths = cam_pts[..., 2]
    if np.any(depths <= EPS_DEPTH):
        raise BehindCamera(f"minimum depth {depths.min():.3e} <= {EPS_DEPTH:g}")
    img = cam_pts @ cam.intrinsics.T
    return img[..., :2] / img[..., 2:3]


def _hartley_normalization(pts: np.ndarray) -> np.ndarray:
    """Similarity T (..., 3, 3) moving the centroid of each point set
    (..., n, 2) to 0 and its mean distance to sqrt(2)."""
    centroid = pts.mean(axis=-2)
    mean_dist = np.mean(np.linalg.norm(pts - centroid[..., None, :], axis=-1), axis=-1)
    if np.any(mean_dist < 1e-12):
        raise DegenerateConfiguration("all points coincide")
    s = math.sqrt(2.0) / mean_dist
    t = np.zeros(s.shape + (3, 3))
    t[..., 0, 0] = t[..., 1, 1] = s
    t[..., :2, 2] = -s[..., None] * centroid
    t[..., 2, 2] = 1.0
    return t


def _dlt(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Unnormalized homography (..., 3, 3) of each correspondence set
    src (n, 2) -> dst (..., n, 2), by the Hartley-normalized DLT with one
    stacked SVD."""
    t_src, t_dst = _hartley_normalization(src), _hartley_normalization(dst)
    ns, nd = apply_homography(t_src, src), apply_homography(t_dst, dst)
    xy1 = np.concatenate([ns, np.ones(ns.shape[:-1] + (1,))], axis=-1)
    # point i gives equation rows 2i (for u) and 2i + 1 (for v)
    a = np.zeros(nd.shape[:-1] + (2, 9))
    a[..., 0, 0:3] = a[..., 1, 3:6] = -xy1
    a[..., 6:] = nd[..., None] * xy1[..., None, :]
    a = a.reshape(nd.shape[:-2] + (2 * nd.shape[-2], 9))
    # four points give 8 rows: only the full V^T holds the null vector
    _, sv, vt = np.linalg.svd(a, full_matrices=a.shape[-2] < 9)
    if np.any(sv[..., 7] < DLT_RANK_TOL * np.maximum(sv[..., 0], 1.0)):
        raise DegenerateConfiguration("correspondences are rank-deficient (collinear points?)")
    h_norm = vt[..., -1, :].reshape(vt.shape[:-2] + (3, 3))
    return np.linalg.inv(t_dst) @ h_norm @ t_src


def dlt_homography(src, dst) -> Homography:
    """Hartley-normalized direct linear transform from >= 4 correspondences."""
    src = np.atleast_2d(np.asarray(src, dtype=float))
    dst = np.atleast_2d(np.asarray(dst, dtype=float))
    if src.shape != dst.shape or src.shape[0] < 4 or src.shape[1] != 2:
        raise DegenerateConfiguration("need >= 4 matched 2D correspondences")
    return Homography(_dlt(src, dst))


def flip_homography(cx: float) -> np.ndarray:
    """Mirror about the vertical line x = cx (unnormalized)."""
    return np.array([[-1.0, 0.0, 2.0 * cx], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


@dataclasses.dataclass(frozen=True, eq=False)
class JitteredSample:
    homography: Homography
    euler: so3.EulerZXZ
    d_az: float
    d_el: float
    d_ct: float
    flipped: bool


def _tilt_is_in_plane(cam: Camera) -> bool:
    z = np.array([0.0, 0.0, 1.0])
    axis_fixed = np.allclose(cam.rotation.matrix @ z, z, atol=1e-12)
    on_axis = abs(cam.translation[0]) < 1e-12 and abs(cam.translation[1]) < 1e-12
    return axis_fixed and on_axis


def _near_subset(cam: Camera, points_world: np.ndarray) -> np.ndarray:
    depths = points_world @ cam.rotation.matrix.T[:, 2] + cam.translation[2]
    count = max(4, int(round(NEAR_FRACTION * points_world.shape[0])))
    order = np.argsort(depths, kind="stable")
    return order[:count]


def jitter_sample(sample, spec: JitterSpec) -> list:
    """Expand one (points, camera, euler) sample over the jitter grid.

    Grid order: d_az outer, d_el middle, d_ct inner; when spec.flip each
    cell emits its mirrored twin immediately after the original.  The
    mirrored target follows the stated rule (az, el, ct) -> (-az, el, -ct)
    applied to the jittered angles, and its warp composes the mirror onto
    the cell's warp.
    """
    points, cam, euler = sample
    points = np.atleast_2d(np.asarray(points, dtype=float))

    cells = list(itertools.product(spec.d_az, spec.d_el, spec.d_ct))
    eulers = [so3.EulerZXZ(euler.azimuth + math.radians(d_az), euler.elevation + math.radians(d_el),
                           euler.tilt + math.radians(d_ct)) for d_az, d_el, d_ct in cells]
    # row 0 is the sample's own pose; one call builds every cell's pose
    poses = so3.euler_to_matrix([(e.azimuth, e.elevation, e.tilt) for e in [euler, *eulers]])
    subset = points[_near_subset(cam, points @ poses[0].T)]
    src = project(cam, subset @ poses[0].T)
    k, k_inv = cam.intrinsics, np.linalg.inv(cam.intrinsics)
    # only a pure tilt about a fixed optical axis has an exact in-plane warp
    tilt_in_plane = _tilt_is_in_plane(cam)
    exact = [d_az == 0.0 and d_el == 0.0 and tilt_in_plane for d_az, d_el, _ in cells]
    fitted = poses[1:][np.logical_not(exact)]
    dst = project(cam, subset @ np.swapaxes(fitted, -1, -2))
    warps = iter(_dlt(src, dst))
    cx = float(cam.principal_point[0])

    out = []
    for (d_az, d_el, d_ct), jittered, in_plane in zip(cells, eulers, exact):
        h = k @ so3.rot_z(math.radians(d_ct)) @ k_inv if in_plane else next(warps)
        warp = Homography(h)
        out.append(JitteredSample(warp, jittered, d_az, d_el, d_ct, False))
        if spec.flip:
            mirrored = so3.EulerZXZ(-jittered.azimuth, jittered.elevation, -jittered.tilt)
            flipped = Homography(flip_homography(cx) @ warp.h)
            out.append(JitteredSample(flipped, mirrored, d_az, d_el, d_ct, True))
    return out


# ---------------------------------------------------------------------------
# synthetic point clouds (desk-scale stand-ins for CAD models)


def cuboid_points(half_extents=(0.5, 0.4, 0.3), per_edge: int = 6) -> np.ndarray:
    """Deterministic grid over the surface of an axis-aligned cuboid."""
    hx, hy, hz = (float(v) for v in half_extents)
    if min(hx, hy, hz) <= 0.0 or per_edge < 2:
        raise ValueError("half extents must be positive and per_edge >= 2")
    lin = np.linspace(-1.0, 1.0, per_edge)
    seen = set()
    pts = []
    for u in lin:
        for v in lin:
            for p in (
                (hx * u, hy * v, hz),
                (hx * u, hy * v, -hz),
                (hx * u, hy, hz * v),
                (hx * u, -hy, hz * v),
                (hx, hy * u, hz * v),
                (-hx, hy * u, hz * v),
            ):
                key = (round(p[0], 12), round(p[1], 12), round(p[2], 12))
                if key not in seen:
                    seen.add(key)
                    pts.append(p)
    return np.array(pts)


def sphere_points(n: int = 200, radius: float = 0.5) -> np.ndarray:
    """Deterministic Fibonacci-lattice sampling of a sphere surface."""
    if n < 4 or radius <= 0.0:
        raise ValueError("need n >= 4 points and positive radius")
    i = np.arange(n, dtype=float)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = 2.0 * math.pi * i / golden
    return radius * np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def default_camera(focal: float = 800.0, center=(320.0, 240.0), depth: float = 4.0) -> Camera:
    intr = np.array([[focal, 0.0, center[0]], [0.0, focal, center[1]], [0.0, 0.0, 1.0]])
    return Camera(intrinsics=intr, translation=np.array([0.0, 0.0, depth]))


# ---------------------------------------------------------------------------
# manifest IO

MANIFEST_HEADER = "# sample_id, daz, del, dct, flipped, h00, h01, h02, h10, h11, h12, h20, h21, h22, az, el, ct"


def write_manifest(path, entries) -> None:
    """Line-oriented manifest; angle columns in degrees, floats via repr."""
    lines = [MANIFEST_HEADER]
    for sample_id, item in entries:
        h = item.homography.h.reshape(-1)
        cols = [str(sample_id)]
        cols += [repr(float(v)) for v in (item.d_az, item.d_el, item.d_ct)]
        cols.append("1" if item.flipped else "0")
        cols += [repr(float(v)) for v in h]
        cols += [
            repr(math.degrees(item.euler.azimuth)),
            repr(math.degrees(item.euler.elevation)),
            repr(math.degrees(item.euler.tilt)),
        ]
        lines.append(", ".join(cols))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(path) -> list:
    """Inverse of write_manifest: list of (sample_id, JitteredSample).
    ValueError on a line without 17 columns, a flipped flag other than 0
    or 1, or a number that is not finite."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cols = [c.strip() for c in line.split(",")]
            if len(cols) != 17:
                raise ValueError(f"malformed manifest line: {line!r}")
            if cols[4] not in ("0", "1"):
                raise ValueError(f"flipped column must be 0 or 1: {line!r}")
            nums = [float(c) for c in cols[1:4] + cols[5:]]
            if not all(math.isfinite(v) for v in nums):
                raise ValueError(f"non-finite offset, warp or angle: {line!r}")
            h = np.array(nums[3:12]).reshape(3, 3)
            az, el, ct = (math.radians(v) for v in nums[12:])
            item = JitteredSample(
                Homography(h), so3.EulerZXZ(az, el, ct), *nums[:3], cols[4] == "1"
            )
            out.append((cols[0], item))
    return out
