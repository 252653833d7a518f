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


class GimbalLock(ValueError):
    """ZXZ extraction requested at a degenerate elevation."""


def _as_readonly(a, shape, name):
    out = np.array(a, dtype=float)
    if out.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    out.setflags(write=False)
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class Rotation:
    """A 3x3 rotation matrix, validated on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_readonly(self.matrix, (3, 3), "matrix")
        err = np.linalg.norm(m.T @ m - np.eye(3))
        if err > 1e-6:
            raise ValueError(f"matrix is not orthonormal (|R^T R - I|_F = {err:.3g})")
        if np.linalg.det(m) < 0.0:
            raise ValueError("matrix has negative determinant (improper rotation)")
        # Small drift is re-projected so downstream checks can rely on 1e-9.
        if err > EPS_ORTHO:
            u, _, vt = np.linalg.svd(m)
            m = _as_readonly(u @ vt, (3, 3), "matrix")
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.eye(3))


@dataclasses.dataclass(frozen=True, eq=False)
class AxisAngle:
    """Axis-angle vector with norm in [0, pi); the zero vector is identity."""

    vector: np.ndarray

    def __post_init__(self):
        v = _as_readonly(self.vector, (3,), "vector")
        if np.linalg.norm(v) >= math.pi:
            raise ValueError("axis-angle norm must be < pi")
        object.__setattr__(self, "vector", v)


@dataclasses.dataclass(frozen=True, eq=False)
class UnitQuaternion:
    """Unit quaternion (c, s1, s2, s3), canonicalized to c >= 0."""

    wxyz: np.ndarray

    def __post_init__(self):
        q = np.array(self.wxyz, dtype=float)
        if q.shape != (4,):
            raise ValueError(f"wxyz must have shape (4,), got {q.shape}")
        n = np.linalg.norm(q)
        if not np.isfinite(n) or abs(n - 1.0) > 1e-6:
            raise ValueError(f"quaternion norm {n:.6g} is not 1")
        q = canonical_quaternion(q / n)
        q.setflags(write=False)
        object.__setattr__(self, "wxyz", q)


@dataclasses.dataclass(frozen=True)
class EulerZXZ:
    """ZXZ Euler triple (azimuth, elevation, camera-tilt), radians.

    az and ct are wrapped into [-pi, pi) on construction.  Annotation data
    keeps el in [-pi/2, pi/2]; ``rotation_to_euler`` returns el in [0, pi]
    (the two conventions describe the same rotation, see module docstring).
    """

    azimuth: float
    elevation: float
    tilt: float

    def __post_init__(self):
        for name in ("azimuth", "elevation", "tilt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "azimuth", wrap_angle(self.azimuth))
        object.__setattr__(self, "tilt", wrap_angle(self.tilt))


def wrap_angle(a: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    out = math.fmod(a + math.pi, 2.0 * math.pi)
    if out < 0.0:
        out += 2.0 * math.pi
    return out - math.pi


def canonical_quaternion(q: np.ndarray) -> np.ndarray:
    """Flip sign so the scalar part is positive (first nonzero decides ties)."""
    for x in q:
        if x > 0.0:
            return q.copy()
        if x < 0.0:
            return -q
    raise ValueError("zero quaternion has no canonical form")


# (row, column) of the entries of hat(v) that hold +v
_SKEW_ROWS, _SKEW_COLS = np.array([2, 0, 1]), np.array([1, 2, 0])


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of v, with hat(v) @ u = cross(v, u); a stack
    of vectors (..., 3) gives a stack of matrices (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., _SKEW_ROWS, _SKEW_COLS] = v
    out[..., _SKEW_COLS, _SKEW_ROWS] = -v
    return out


def vee(m: np.ndarray) -> np.ndarray:
    """Inverse of hat on skew-symmetric matrices (..., 3, 3)."""
    return m[..., _SKEW_ROWS, _SKEW_COLS]


def rodrigues(v: np.ndarray) -> np.ndarray:
    """Rotation matrix of an axis-angle 3-vector (any finite norm).

    R = I + (sin t / t) [v]x + ((1 - cos t) / t^2) [v]x^2, with first-order
    Taylor branches below EPS_THETA so the map is smooth through zero.
    """
    v = np.asarray(v, dtype=float)
    t = np.linalg.norm(v)
    k = hat(v)
    if t < EPS_THETA:
        # sin t / t -> 1, (1 - cos t)/t^2 -> 1/2; the quadratic term is
        # below double precision here, keep I + [v]x.
        return np.eye(3) + k
    a = math.sin(t) / t
    b = (1.0 - math.cos(t)) / (t * t)
    return np.eye(3) + a * k + b * (k @ k)


def log_rotation(m: np.ndarray) -> np.ndarray:
    """Axis-angle 3-vector of a rotation matrix.

    Uses v = theta / (2 sin theta) * vee(R - R^T) with the Taylor branch
    1/2 + theta^2/12 near zero.  Raises NearPiRotation when
    tr(R) <= -1 + EPS_PI where the skew part no longer determines the axis.
    """
    tr = float(np.trace(m))
    if tr <= -1.0 + EPS_PI:
        raise NearPiRotation(f"trace {tr:.9f} too close to -1 for a stable log")
    c = min(1.0, max(-1.0, (tr - 1.0) / 2.0))
    theta = math.acos(c)
    if theta < EPS_THETA:
        scale = 0.5 + theta * theta / 12.0
    else:
        scale = theta / (2.0 * math.sin(theta))
    return scale * vee(m - m.T)


def clip_axis_angle_norm(v: np.ndarray, max_norm: float = MAX_AXIS_ANGLE_NORM) -> np.ndarray:
    """Rescale v onto norm max_norm when |v| >= pi, else return it unchanged.

    Network heads bound components, not the norm, so raw or composed
    axis-angle outputs can leave the |v| < pi ball; this projection keeps
    the exp/log pair bijective on everything we convert.
    """
    n = np.linalg.norm(v)
    if n >= math.pi:
        return v * (max_norm / n)
    return np.asarray(v, dtype=float)


def exp_map(v: AxisAngle) -> Rotation:
    """Rodrigues exponential of an axis-angle element."""
    return Rotation(rodrigues(v.vector))


def log_map(r: Rotation) -> AxisAngle:
    """Inverse of exp_map; rejects rotations within ~1e-3 rad of angle pi."""
    return AxisAngle(log_rotation(r.matrix))


def geodesic_distance(r1: Rotation, r2: Rotation) -> float:
    """Angle of the relative rotation, acos((tr(R1^T R2) - 1) / 2), in [0, pi]."""
    return geodesic_distance_matrices(r1.matrix, r2.matrix)


def geodesic_distance_matrices(m1: np.ndarray, m2: np.ndarray) -> float:
    if m1 is m2 or np.array_equal(m1, m2):
        # tr(R^T R) rounds to 3 - O(eps) and acos amplifies that to ~1e-8;
        # identical inputs must measure exactly zero.
        return 0.0
    c = (float(np.einsum("ij,ij->", m1, m2)) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, c)))


def quaternion_distance(q1: UnitQuaternion, q2: UnitQuaternion) -> float:
    """2 acos(|<q1, q2>|): geodesic angle, immune to the double cover."""
    d = abs(float(np.dot(q1.wxyz, q2.wxyz)))
    return 2.0 * math.acos(min(1.0, d))


def axis_angle_to_quaternion(v: AxisAngle) -> UnitQuaternion:
    return UnitQuaternion(_axis_angle_to_quat(v.vector))


def _axis_angle_to_quat(v: np.ndarray) -> np.ndarray:
    t = np.linalg.norm(v)
    if t < EPS_THETA:
        # sin(t/2)/t -> 1/2 - t^2/48
        s = 0.5 - t * t / 48.0
        return np.concatenate(([math.cos(t / 2.0)], s * v))
    return np.concatenate(([math.cos(t / 2.0)], math.sin(t / 2.0) / t * v))


def quaternion_to_axis_angle(q: UnitQuaternion) -> AxisAngle:
    """Axis-angle of a canonical quaternion; angle 2 acos(c) in [0, pi).

    Raises NearPiRotation for angles within 1e-6 of pi, which the axis-angle
    type cannot represent.
    """
    c = q.wxyz[0]
    theta = 2.0 * math.acos(min(1.0, c))
    if theta >= math.pi - 1e-6:
        raise NearPiRotation(f"angle {theta:.9f} not representable below pi")
    s = np.linalg.norm(q.wxyz[1:])
    if s < EPS_THETA:
        # theta/s -> 2/c for small s; c ~ 1 so the vector is ~ 2 * q_vec.
        return AxisAngle(2.0 / c * q.wxyz[1:])
    return AxisAngle(theta / s * q.wxyz[1:])


def quaternion_to_rotation(q: UnitQuaternion) -> Rotation:
    return Rotation(_quat_to_matrix(q.wxyz))


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    c, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - c * z), 2 * (x * z + c * y)],
            [2 * (x * y + c * z), 1 - 2 * (x * x + z * z), 2 * (y * z - c * x)],
            [2 * (x * z - c * y), 2 * (y * z + c * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_to_quaternion(r: Rotation) -> UnitQuaternion:
    return UnitQuaternion(_matrix_to_quat(r.matrix))


def _matrix_to_quat(m: np.ndarray) -> np.ndarray:
    # Shepperd's branch selection: pick the largest of (1 +- diagonal
    # combinations) so the divisor is well away from zero.
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [
                0.25 * s,
                (m[2, 1] - m[1, 2]) / s,
                (m[0, 2] - m[2, 0]) / s,
                (m[1, 0] - m[0, 1]) / s,
            ]
        )
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [
                (m[2, 1] - m[1, 2]) / s,
                0.25 * s,
                (m[0, 1] + m[1, 0]) / s,
                (m[0, 2] + m[2, 0]) / s,
            ]
        )
    elif m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [
                (m[0, 2] - m[2, 0]) / s,
                (m[0, 1] + m[1, 0]) / s,
                0.25 * s,
                (m[1, 2] + m[2, 1]) / s,
            ]
        )
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [
                (m[1, 0] - m[0, 1]) / s,
                (m[0, 2] + m[2, 0]) / s,
                (m[1, 2] + m[2, 1]) / s,
                0.25 * s,
            ]
        )
    return canonical_quaternion(q / np.linalg.norm(q))


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def euler_to_rotation(e: EulerZXZ) -> Rotation:
    """R(az, el, ct) = Rz(ct) Rx(el) Rz(az): azimuth applied first."""
    return Rotation(rot_z(e.tilt) @ rot_x(e.elevation) @ rot_z(e.azimuth))


def rotation_to_euler(r: Rotation) -> EulerZXZ:
    """ZXZ extraction with el in [0, pi].

    The ZXZ chart double-covers each rotation: (az, el, ct) and
    (az + pi, -el, ct + pi) compose to the same matrix.  Extraction pins the
    el >= 0 representative.  Raises GimbalLock when |sin el| < EPS_GIMBAL,
    where az and ct are no longer separable.
    """
    m = r.matrix
    se = math.hypot(m[2, 0], m[2, 1])
    if se < EPS_GIMBAL:
        raise GimbalLock(f"|sin(el)| = {se:.3g} below {EPS_GIMBAL}")
    el = math.atan2(se, m[2, 2])
    az = math.atan2(m[2, 0], m[2, 1])
    ct = math.atan2(m[0, 2], -m[1, 2])
    return EulerZXZ(az, el, ct)


def compose(r1: Rotation, r2: Rotation) -> Rotation:
    """Rotation applying r2 first, then r1."""
    return Rotation(r1.matrix @ r2.matrix)


def inverse(r: Rotation) -> Rotation:
    return Rotation(r.matrix.T)


def random_rotation(rng: np.random.Generator) -> Rotation:
    """Uniform (Haar) random rotation via a normalized Gaussian quaternion."""
    q = rng.standard_normal(4)
    n = np.linalg.norm(q)
    while n < 1e-12:
        q = rng.standard_normal(4)
        n = np.linalg.norm(q)
    return Rotation(_quat_to_matrix(canonical_quaternion(q / n)))


def random_axis_angle(rng: np.random.Generator, max_angle: float = math.pi - 1e-3) -> AxisAngle:
    """Axis uniform on the sphere, angle uniform on [0, max_angle]."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return AxisAngle(rng.uniform(0.0, max_angle) * axis)
