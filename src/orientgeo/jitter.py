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

A grid is a JitterGrid: one row per cell.  Its angles are radians; jitter
offsets and manifest angle columns are degrees.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

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
        # a truthy string such as "false" would emit mirrored twins
        if not isinstance(self.flip, bool):
            raise ValueError(f"flip must be true or false, got {self.flip!r}")
        for name in ("d_az", "d_el", "d_ct"):
            vals = getattr(self, name)
            # float() would read a string digit by digit and a bool as 0 or 1
            if not isinstance(vals, (list, tuple)) or not all(
                isinstance(v, numbers.Real) and not isinstance(v, bool) for v in vals
            ):
                raise ValueError(f"{name} offsets must be real numbers, got {vals!r}")
            vals = tuple(float(v) for v in vals)
            if not vals:
                raise ValueError(f"{name} must list at least one offset")
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"{name} offsets must be finite")
            object.__setattr__(self, name, vals)


@dataclasses.dataclass(frozen=True, eq=False)
class JitterGrid:
    """A jittered sample as columns, one row per grid cell: sample_ids (n,),
    offsets (n, 3) in degrees (d_az, d_el, d_ct), flipped (n,), warps
    (n, 3, 3) as normalize_homographies leaves them, and the ZXZ angles
    (n, 3) in radians with az and ct wrapped into [-pi, pi)."""

    sample_ids: np.ndarray
    offsets: np.ndarray
    flipped: np.ndarray
    warps: np.ndarray
    angles: np.ndarray

    def __len__(self) -> int:
        return len(self.flipped)


# h22 first, then row-major: a warp's sign makes the first nonzero of these
# entries positive
_SIGN_ORDER = [8, 0, 1, 2, 3, 4, 5, 6, 7]


def normalize_homographies(h) -> np.ndarray:
    """Each warp of a stack (..., 3, 3) scaled to unit Frobenius norm, then
    signed so that h22, or the first nonzero entry when h22 is 0, is
    positive.  A warp within 1e-9 of unit norm is not rescaled, so
    normalizing a normalized warp (say, one read back from a manifest)
    leaves it exact.  DegenerateConfiguration on a zero, non-finite or
    singular warp."""
    h = np.asarray(h, dtype=float)
    flat = h.reshape(h.shape[:-2] + (9,))
    # summed as np.linalg.norm sums one warp
    n = so3._norm(flat)[..., None, None]
    if not (np.all(np.isfinite(n)) and np.all(n >= 1e-12)):
        raise DegenerateConfiguration("homography is numerically zero or not finite")
    h = np.where(np.abs(n - 1.0) > 1e-9, h / n, h)
    h = h * so3._first_sign(h.reshape(flat.shape)[..., _SIGN_ORDER])[..., None, None]
    if np.any(np.abs(np.linalg.det(h)) < 1e-12):
        raise DegenerateConfiguration("homography is singular")
    return h


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


def dlt_homography(src, dst) -> np.ndarray:
    """Normalized warps (..., 3, 3) mapping each correspondence set
    src (..., n, 2) onto dst (..., n, 2), n >= 4, the leading axes
    broadcasting: the Hartley-normalized direct linear transform with one
    stacked SVD."""
    src = np.atleast_2d(np.asarray(src, dtype=float))
    dst = np.atleast_2d(np.asarray(dst, dtype=float))
    if src.shape[-2:] != dst.shape[-2:] or src.shape[-2] < 4 or src.shape[-1] != 2:
        raise DegenerateConfiguration("need >= 4 matched 2D correspondences")
    t_src, t_dst = _hartley_normalization(src), _hartley_normalization(dst)
    ns, nd = apply_homography(t_src, src), apply_homography(t_dst, dst)
    xy1 = np.concatenate([ns, np.ones(ns.shape[:-1] + (1,))], axis=-1)
    # point i gives equation rows 2i (for u) and 2i + 1 (for v)
    a = np.zeros(np.broadcast_shapes(ns.shape, nd.shape)[:-1] + (2, 9))
    a[..., 0, 0:3] = a[..., 1, 3:6] = -xy1
    a[..., 6:] = nd[..., None] * xy1[..., None, :]
    a = a.reshape(a.shape[:-3] + (2 * a.shape[-3], 9))
    # four points give 8 rows: only the full V^T holds the null vector
    _, sv, vt = np.linalg.svd(a, full_matrices=a.shape[-2] < 9)
    if np.any(sv[..., 7] < DLT_RANK_TOL * np.maximum(sv[..., 0], 1.0)):
        raise DegenerateConfiguration("correspondences are rank-deficient (collinear points?)")
    h_norm = vt[..., -1, :].reshape(vt.shape[:-2] + (3, 3))
    return normalize_homographies(np.linalg.inv(t_dst) @ h_norm @ t_src)


def flip_homography(cx: float) -> np.ndarray:
    """Mirror about the vertical line x = cx (unnormalized)."""
    return np.array([[-1.0, 0.0, 2.0 * cx], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


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


def _wrapped(angles: np.ndarray) -> np.ndarray:
    """ZXZ rows (..., 3) as EulerZXZ keeps them: az and ct wrapped into
    [-pi, pi)."""
    return np.where([True, False, True], so3.wrap_angles(angles), angles)


def jitter_sample(sample, spec: JitterSpec, sample_id) -> JitterGrid:
    """Expand one (points, camera, euler) sample over the jitter grid; every
    row's sample id is str(sample_id).

    Grid order: d_az outer, d_el middle, d_ct inner; when spec.flip each
    cell emits its mirrored twin immediately after the original.  The
    mirrored target follows the stated rule (az, el, ct) -> (-az, el, -ct)
    applied to the jittered angles, and its warp composes the mirror onto
    the cell's warp.
    """
    points, cam, euler = sample
    points = np.atleast_2d(np.asarray(points, dtype=float))

    offsets = np.stack(np.meshgrid(spec.d_az, spec.d_el, spec.d_ct, indexing="ij"), axis=-1).reshape(-1, 3)
    own = np.array([euler.azimuth, euler.elevation, euler.tilt])
    angles = _wrapped(own + np.radians(offsets))
    # row 0 is the sample's own pose; one call builds every cell's pose
    poses = so3.euler_to_matrix(np.vstack([own, angles]))
    subset = points[_near_subset(cam, points @ poses[0].T)]
    src = project(cam, subset @ poses[0].T)
    # only a pure tilt about a fixed optical axis has an exact in-plane warp
    exact = (offsets[:, 0] == 0.0) & (offsets[:, 1] == 0.0) & _tilt_is_in_plane(cam)
    warps = np.empty((len(offsets), 3, 3))
    # a pure tilt's pose change is the ZXZ row (0, 0, d_ct): Rz(d_ct)
    tilts = so3.euler_to_matrix(np.where([False, False, True], np.radians(offsets[exact]), 0.0))
    warps[exact] = normalize_homographies(cam.intrinsics @ tilts @ np.linalg.inv(cam.intrinsics))
    warps[~exact] = dlt_homography(src, project(cam, subset @ np.swapaxes(poses[1:][~exact], -1, -2)))
    flipped = np.zeros(len(offsets), dtype=bool)

    if spec.flip:
        mirror = flip_homography(float(cam.principal_point[0]))
        twins = (offsets, ~flipped, normalize_homographies(mirror @ warps),
                 _wrapped(angles * [-1.0, 1.0, -1.0]))
        # each cell's twin is the row after it
        offsets, flipped, warps, angles = (np.stack([a, b], axis=1).reshape((-1,) + a.shape[1:])
                                           for a, b in zip((offsets, flipped, warps, angles), twins))
    return JitterGrid(np.full(len(flipped), str(sample_id)), offsets, flipped, warps, angles)


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


def write_manifest(path, grid: JitterGrid) -> None:
    """One line per grid row; angle columns in degrees, floats via repr.
    ValueError, before the file opens, on an id read_manifest would not read
    back: empty, with a comma, line break or surrounding whitespace, or "#..."."""
    for sample_id in set(grid.sample_ids.tolist()):
        if (sample_id.strip() != sample_id or sample_id.splitlines() != [sample_id]
                or "," in sample_id or sample_id[0] == "#"):
            raise ValueError(f"sample id {sample_id!r} would not read back from a manifest")
    nums = np.concatenate([grid.offsets, grid.warps.reshape(-1, 9), np.degrees(grid.angles)], axis=1)
    lines = [MANIFEST_HEADER]
    for sample_id, flipped, row in zip(grid.sample_ids.tolist(), grid.flipped.tolist(), nums.tolist()):
        cols = [repr(v) for v in row]
        lines.append(", ".join([sample_id, *cols[:3], "1" if flipped else "0", *cols[3:]]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(path) -> JitterGrid:
    """Inverse of write_manifest.  ValueError on a line without 17 columns or
    with a field that is not a number, a flipped flag other than 0 or 1, or
    a non-finite number; DegenerateConfiguration (a ValueError) on a zero or singular warp."""
    sample_ids, flipped, nums = [], [], []
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
            try:
                row = [float(c) for c in cols[1:4] + cols[5:]]
            except ValueError as exc:
                raise ValueError(f"malformed manifest line: {line!r}") from exc
            if not all(math.isfinite(v) for v in row):
                raise ValueError(f"non-finite offset, warp or angle: {line!r}")
            sample_ids.append(cols[0])
            flipped.append(cols[4] == "1")
            nums.append(row)
    nums = np.array(nums, dtype=float).reshape(-1, 15)
    return JitterGrid(np.array(sample_ids, dtype=str), nums[:, :3], np.array(flipped, dtype=bool),
                      normalize_homographies(nums[:, 3:12].reshape(-1, 3, 3)),
                      _wrapped(np.radians(nums[:, 12:])))
