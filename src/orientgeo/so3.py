"""Rotation representations and the geometry used throughout the package.

Conventions:

* Rotation matrices are 3x3, right-handed, acting on column vectors.
* Axis-angle vectors v = theta * v_hat live in the open ball ``|v| < pi``;
  the zero vector is the identity.
* Quaternions are stored (c, s1, s2, s3) with the scalar part first and are
  canonicalized to c >= 0 (ties broken by the first nonzero component).
* Euler angles follow the ZXZ product R(az, el, ct) = Rz(ct) Rx(el) Rz(az),
  i.e. azimuth is applied first.  Annotation-style triples keep
  az, ct in [-pi, pi); extraction returns el in [0, pi].
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import _checks

# Small-angle switch for exp/log Taylor branches.
EPS_THETA = 1e-8
# Reject matrix log when tr(R) <= -1 + EPS_PI (angle within ~1e-3 of pi).
EPS_PI = 1e-6
# Gimbal-lock threshold on |sin(el)| for ZXZ extraction.
EPS_GIMBAL = 1e-8
# Orthonormality / unit-norm construction tolerance.
EPS_ORTHO = 1e-9
# Axis-angle vectors at or above norm pi are rescaled to this norm.
MAX_AXIS_ANGLE_NORM = math.pi - 1e-6


class NearPiRotation(ValueError):
    """Matrix log requested for a rotation too close to angle pi."""


@dataclasses.dataclass(frozen=True, eq=False, slots=True)
class Rotation:
    """A 3x3 rotation matrix, validated on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"matrix must have shape (3, 3), got {m.shape}")
        object.__setattr__(self, "matrix", check_rotations(m))

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.eye(3))


@dataclasses.dataclass(frozen=True, eq=False, slots=True)
class UnitQuaternion:
    """Unit quaternion (c, s1, s2, s3), canonicalized to c >= 0."""

    wxyz: np.ndarray

    def __post_init__(self):
        q = np.array(self.wxyz, dtype=float)
        if q.shape != (4,):
            raise ValueError(f"wxyz must have shape (4,), got {q.shape}")
        n = _norm(q)
        if not abs(n - 1.0) <= 1e-6:  # also rejects non-finite norms
            raise ValueError(f"quaternion norm {n:.6g} is not 1")
        q = _unit(q, n)
        q.setflags(write=False)
        object.__setattr__(self, "wxyz", q)


@dataclasses.dataclass(frozen=True, slots=True)
class EulerZXZ:
    """ZXZ Euler triple (azimuth, elevation, camera-tilt), radians.

    az and ct are wrapped into [-pi, pi) on construction.  Annotation data
    keeps el in [-pi/2, pi/2]; ``matrix_to_euler`` returns el in [0, pi]
    (the two conventions describe the same rotation, see module docstring).
    """

    azimuth: float
    elevation: float
    tilt: float

    def __post_init__(self):
        for name in ("azimuth", "elevation", "tilt"):
            if not _checks.real(getattr(self, name)):
                raise ValueError(f"{name} must be finite and real, got {getattr(self, name)!r}")
        object.__setattr__(self, "azimuth", wrap_angle(self.azimuth))
        object.__setattr__(self, "tilt", wrap_angle(self.tilt))


def wrap_angle(a: float) -> float:
    """Wrap one angle into [-pi, pi): wrap_angles for the one-row EulerZXZ,
    which would pay more for a numpy call than for the wrap."""
    out = math.fmod(a + math.pi, 2.0 * math.pi)
    if out < 0.0:
        out += 2.0 * math.pi
    return out - math.pi


# ---------------------------------------------------------------------------
# Row-wise maps.  Each takes a stack of rows (..., 3), (..., 4) or
# (..., 3, 3) and treats every row on its own; a stacked call's row equals
# the same row's one-row call exactly, because every sum over a row goes
# through matmul or np.trace, which sum each row as they sum it alone.


def wrap_angles(a) -> np.ndarray:
    """Each angle of a (...) wrapped into [-pi, pi), equal to wrap_angle's
    result for it."""
    out = np.fmod(np.asarray(a, dtype=float) + math.pi, 2.0 * math.pi)
    return np.where(out < 0.0, out + 2.0 * math.pi, out) - math.pi


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u, v> of each pair of rows (...,), summed as np.dot sums two vectors."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _norm(v: np.ndarray) -> np.ndarray:
    """|v| of each row (...,), summed as np.linalg.norm sums one vector."""
    return np.sqrt(_dot(v, v))


# sign(row) @ _FIRST_NONZERO[-w:] has the sign of the first nonzero entry of
# a row of width w <= 9 (a quaternion or a flattened warp): each weight
# exceeds the sum of the weights after it, and every sum is exact
_FIRST_NONZERO = 2.0 ** np.arange(8, -1, -1)


def _first_sign(rows: np.ndarray) -> np.ndarray:
    """+-1 per row (...,) of rows (..., w), w <= 9: the sign of its first
    nonzero entry.  ValueError on a zero row, which only a quaternion can
    be: normalize_homographies refuses a zero warp before signing it."""
    first = np.sign(rows) @ _FIRST_NONZERO[-rows.shape[-1]:]
    if np.count_nonzero(first) < np.size(first):
        raise ValueError("zero quaternion has no canonical form")
    return np.sign(first)


def canonical_quaternion(q: np.ndarray) -> np.ndarray:
    """Flip the sign of each row (..., 4) so that its first nonzero
    component is positive."""
    q = np.asarray(q, dtype=float)
    return q * _first_sign(q)[..., None]


def normalize_quaternion(q: np.ndarray) -> np.ndarray:
    """Each row (..., 4) scaled to unit norm and canonicalized: the wxyz
    that UnitQuaternion stores for it."""
    q = np.asarray(q, dtype=float)
    return _unit(q, _norm(q))


def _unit(q: np.ndarray, n: np.ndarray) -> np.ndarray:
    """normalize_quaternion given the norms n (...,)."""
    return q / (n * _first_sign(q))[..., None]


def check_rotations(m: np.ndarray) -> np.ndarray:
    """Each matrix of a stack (..., 3, 3) as Rotation stores it, read-only.

    Every row must be finite, orthonormal within 1e-6 (|R^T R - I|_F) and
    have a non-negative determinant; a ValueError names the first of these
    checks that some row fails.  Rows whose error exceeds EPS_ORTHO are
    re-projected onto SO(3) by SVD, so downstream checks can rely on 1e-9.
    """
    m = np.array(m, dtype=float)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"matrices must have shape (..., 3, 3), got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix must be finite")
    err = _norm((np.swapaxes(m, -1, -2) @ m - _EYE3).reshape(m.shape[:-2] + (9,)))
    worst = err.max(initial=0.0)
    if worst > 1e-6:
        raise ValueError(f"matrix is not orthonormal (|R^T R - I|_F = {worst:.3g})")
    if np.linalg.det(m).min(initial=0.0) < 0.0:
        raise ValueError("matrix has negative determinant (improper rotation)")
    if worst > EPS_ORTHO:
        drift = err > EPS_ORTHO
        u, _, vt = np.linalg.svd(m[drift])
        m[drift] = u @ vt
    m.setflags(write=False)
    return m


# (row, column) of the entries of hat(v) that hold +v
_SKEW_ROWS, _SKEW_COLS = np.array([2, 0, 1]), np.array([1, 2, 0])
_EYE3, _EYE4, _FOUR = np.eye(3), np.eye(4), np.arange(4)


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of v, with hat(v) @ u = cross(v, u); a stack
    of vectors (..., 3) gives a stack of matrices (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., _SKEW_ROWS, _SKEW_COLS] = v
    out[..., _SKEW_COLS, _SKEW_ROWS] = -v
    return out


def skew_vee(m: np.ndarray) -> np.ndarray:
    """The vector v (..., 3) with hat(v) = m - m^T, of matrices (..., 3, 3):
    each entry is the one subtraction m[r, c] - m[c, r], so no full
    difference m - m^T is built."""
    return m[..., _SKEW_ROWS, _SKEW_COLS] - m[..., _SKEW_COLS, _SKEW_ROWS]


def rodrigues(v: np.ndarray) -> np.ndarray:
    """Rotation matrix (..., 3, 3) of each axis-angle row (..., 3), any
    finite norm.

    R = I + (sin t / t) [v]x + ((1 - cos t) / t^2) [v]x^2.  Below EPS_THETA
    sin t / t -> 1 and the quadratic term is below double precision, so the
    Taylor branch keeps I + [v]x and the map is smooth through zero.
    """
    v = np.asarray(v, dtype=float)
    t = _norm(v)[..., None, None]
    small = t < EPS_THETA
    ts = np.where(small, 1.0, t)
    a = np.where(small, 1.0, np.sin(t) / ts)
    b = np.where(small, 0.0, (1.0 - np.cos(t)) / (ts * ts))
    k = hat(v)
    kk = k @ k
    kk *= b
    k *= a
    k += _EYE3
    k += kk  # I + a [v]x + b [v]x^2 as the expression sums it, in place
    return k


def near_pi(m: np.ndarray) -> np.ndarray:
    """Mask (...,) of the matrices (..., 3, 3) with tr(R) <= -1 + EPS_PI
    (angle within ~1e-3 of pi), where the skew part of R no longer
    determines the axis and log_rotation refuses."""
    return np.trace(m, axis1=-2, axis2=-1) <= -1.0 + EPS_PI


def log_rotation(m: np.ndarray) -> np.ndarray:
    """Axis-angle row (..., 3) of each rotation matrix (..., 3, 3).

    Uses v = theta / (2 sin theta) * skew_vee(R) with the Taylor branch
    1/2 + theta^2/12 near zero.  Raises NearPiRotation when any row is
    near_pi.
    """
    m = np.asarray(m, dtype=float)
    tr = np.trace(m, axis1=-2, axis2=-1)
    if near_pi(m).any():
        raise NearPiRotation(f"trace {np.min(tr):.9f} too close to -1 for a stable log")
    theta = np.arccos(np.minimum(np.maximum((tr - 1.0) / 2.0, -1.0), 1.0))
    small = theta < EPS_THETA
    scale = np.where(
        small, 0.5 + theta * theta / 12.0, theta / (2.0 * np.sin(np.where(small, 1.0, theta)))
    )
    return scale[..., None] * skew_vee(m)


def clip_axis_angle_norm(v: np.ndarray) -> np.ndarray:
    """Rescale each row (..., 3) with |v| >= pi onto norm
    MAX_AXIS_ANGLE_NORM; other rows pass unchanged.

    Network heads bound components, not the norm, so raw or composed
    axis-angle outputs can leave the |v| < pi ball; this projection keeps
    the exp/log pair bijective on everything we convert.
    """
    v = np.asarray(v, dtype=float)
    n = _norm(v)[..., None]
    return np.where(n >= math.pi, v * (MAX_AXIS_ANGLE_NORM / np.maximum(n, math.pi)), v)


def geodesic_distance_matrices(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Angle acos((tr(R1^T R2) - 1) / 2) in [0, pi] of each pair of
    matrices (..., 3, 3), leading axes broadcast.

    Identical pairs measure exactly zero: tr(R^T R) rounds to 3 - O(eps)
    and acos amplifies that to ~1e-8.
    """
    m1, m2 = np.asarray(m1, dtype=float), np.asarray(m2, dtype=float)
    tr = _dot(m1.reshape(m1.shape[:-2] + (9,)), m2.reshape(m2.shape[:-2] + (9,)))
    angle = np.arccos(np.minimum(np.maximum((tr - 1.0) / 2.0, -1.0), 1.0))
    return np.where(np.all(m1 == m2, axis=(-2, -1)), 0.0, angle)[()]


# Linear maps between a rotation R and the Gram matrix G = q q^T of its
# quaternion q = (c, v), both flattened row-major:
#   R - I = G @ _R_OF_G, from R = I + 2 (v v^T - |v|^2 I) + 2 c [v]x;
#   K - I = R @ _K_OF_R for K = 4 G: K_00 = 1 + tr R, K_0i = K_i0 =
#   skew_vee(R)_i, K_ij = R_ij + R_ji + [i = j] (1 - tr R), i, j = 1..3.
_I3I3 = np.einsum("ij,kl->ijkl", _EYE3, _EYE3)
_R_OF_G = np.zeros((4, 4, 3, 3))
_R_OF_G[1:, 1:] = 2.0 * (_I3I3.transpose(0, 2, 1, 3) - _I3I3)
_R_OF_G[0, 1:] = 2.0 * hat(_EYE3)
_R_OF_G = _R_OF_G.reshape(16, 9)
_K_OF_R = np.zeros((3, 3, 4, 4))
_K_OF_R[:, :, 0, 0] = _EYE3
_K_OF_R[:, :, 0, 1:] = _K_OF_R[:, :, 1:, 0] = hat(_EYE3).transpose(1, 2, 0)
_K_OF_R[:, :, 1:, 1:] = _I3I3.transpose(0, 2, 1, 3) + _I3I3.transpose(0, 2, 3, 1) - _I3I3
_K_OF_R = _K_OF_R.reshape(9, 16)


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (..., 3, 3) of each unit quaternion row (..., 4)."""
    q = np.asarray(q, dtype=float)
    lead = q.shape[:-1]
    gram = (q[..., :, None] * q[..., None, :]).reshape(lead + (1, 16))
    return (gram @ _R_OF_G).reshape(lead + (3, 3)) + _EYE3


def matrix_to_quaternion(m: np.ndarray) -> np.ndarray:
    """Canonical unit quaternion (..., 4) of each rotation matrix (..., 3, 3):
    the wxyz that rotation_to_quaternion stores."""
    return normalize_quaternion(_matrix_to_quat(m))


def _matrix_to_quat(m: np.ndarray) -> np.ndarray:
    """Unit quaternion (..., 4) of each rotation matrix (..., 3, 3), of
    either sign.

    Row b of K = 4 q q^T is s q with s = 2 sqrt(K_bb), up to the sign of
    q_b.  Shepperd's method takes the row of the largest K_bb >= 1, so the
    division by s stays well away from zero.
    """
    m = np.asarray(m, dtype=float)
    lead = m.shape[:-2]
    k = (m.reshape(lead + (1, 9)) @ _K_OF_R).reshape(lead + (4, 4)) + _EYE4
    diag = k.diagonal(0, -2, -1)
    row = ((diag.argmax(-1)[..., None] == _FOUR)[..., None, :] @ k)[..., 0, :]
    q = row / (2.0 * np.sqrt(diag.max(-1)))[..., None]
    return q / _norm(q)[..., None]


# Rz(t) = cos t Z_c + sin t Z_s + Z_1 and Rx(t) = cos t X_c + sin t X_s + X_1,
# so R(az, el, ct) is trilinear in the (cos, sin, 1) triples of ct, el, az
_Z = np.array([np.diag([1.0, 1.0, 0.0]), [[0, -1, 0], [1, 0, 0], [0, 0, 0]], np.diag([0, 0, 1.0])])
_X = np.array([np.diag([0.0, 1.0, 1.0]), [[0, 0, 0], [0, 0, -1], [0, 1, 0]], np.diag([1.0, 0, 0])])
_R_OF_EULER = np.einsum("aip,bpq,cqj->abcij", _Z, _X, _Z).reshape(27, 9)
# (cos, sin, 1) of ct, el, az in (cos az, cos el, cos ct, sin az, sin el, sin ct, 1)
_TRIG = np.array([[2, 5, 6], [1, 4, 6], [0, 3, 6]])


def euler_to_matrix(angles: np.ndarray) -> np.ndarray:
    """R(az, el, ct) = Rz(ct) Rx(el) Rz(az) (..., 3, 3) of each ZXZ row
    (az, el, ct) (..., 3): azimuth applied first."""
    a = np.asarray(angles, dtype=float)
    lead = a.shape[:-1]
    t = np.concatenate([np.cos(a), np.sin(a), np.ones(lead + (1,))], axis=-1)[..., _TRIG]
    u = t[..., 0, :, None, None] * t[..., 1, None, :, None] * t[..., 2, None, None, :]
    return (u.reshape(lead + (1, 27)) @ _R_OF_EULER).reshape(lead + (3, 3))


def matrix_to_euler(m: np.ndarray):
    """ZXZ rows (az, el, ct) (..., 3) of the matrices (..., 3, 3), and the
    mask (...,) of rows in gimbal lock (|sin el| < EPS_GIMBAL), whose az and
    ct are not separable.  (az, el, ct) and (az + pi, -el, ct + pi) give the
    same matrix; extraction pins the representative with el in [0, pi]."""
    m = np.asarray(m, dtype=float)
    se = np.hypot(m[..., 2, 0], m[..., 2, 1])
    angles = np.empty(m.shape[:-1])
    angles[..., 0] = np.arctan2(m[..., 2, 0], m[..., 2, 1])
    angles[..., 1] = np.arctan2(se, m[..., 2, 2])
    angles[..., 2] = np.arctan2(m[..., 0, 2], -m[..., 1, 2])
    return angles, se < EPS_GIMBAL


# ---------------------------------------------------------------------------
# typed values: one validated row each, for poses that arrive one at a time
# (the CLI's jitter spec, the benchmark's record builder), so a malformed
# pose fails where it is made; records, manifests, metrics and every bulk
# computation hold poses as stacks and go through the row-wise maps above.


def quaternion_to_rotation(q: UnitQuaternion) -> Rotation:
    return Rotation(_quat_to_matrix(q.wxyz))


def rotation_to_quaternion(r: Rotation) -> UnitQuaternion:
    return UnitQuaternion(_matrix_to_quat(r.matrix))


def euler_to_rotation(e: EulerZXZ) -> Rotation:
    """R(az, el, ct) = Rz(ct) Rx(el) Rz(az): azimuth applied first."""
    return Rotation(euler_to_matrix([e.azimuth, e.elevation, e.tilt]))
