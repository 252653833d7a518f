"""One-pose oracles and seeded draws that the tests share, written over the
so3 row-wise maps."""

import math

import numpy as np

from orientgeo import so3


def random_axis_angle(rng, max_angle=math.pi - 1e-3):
    """Axis-angle vector (3,): axis uniform on the sphere (three normals
    drawn first), angle uniform on [0, max_angle] (one uniform drawn
    after)."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return rng.uniform(0.0, max_angle) * axis


def rot_x(a):
    """Rotation matrix by a about the x axis."""
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_z(a):
    """Rotation matrix by a about the z axis."""
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def angle_deg(r_true, r_pred):
    """Geodesic angle in degrees between two so3.Rotation values."""
    return math.degrees(float(so3.geodesic_distance_matrices(r_true.matrix, r_pred.matrix)))


def quaternion_angle(q1, q2):
    """2 acos |<q1, q2>| of two unit quaternions (4,): the geodesic angle,
    immune to the double cover."""
    return 2.0 * math.acos(min(1.0, abs(float(np.dot(q1, q2)))))


def euler_of(m):
    """so3.EulerZXZ of one rotation matrix, with el in [0, pi], or None in
    gimbal lock, where azimuth and tilt are not separable."""
    angles, locked = so3.matrix_to_euler(m)
    return None if locked else so3.EulerZXZ(*angles.tolist())


def azimuth_bin(m, k):
    """Bin of k over [0, 360) of one rotation matrix's azimuth, through
    euler_of and math.degrees, or None in gimbal lock; an azimuth a hair
    below 0, which % 360 takes to 360.0, is in bin 0."""
    e = euler_of(m)
    return None if e is None else int((math.degrees(e.azimuth) % 360.0) / (360.0 / k)) % k


def random_rotation(rng):
    """Haar-uniform so3.Rotation of a normalized Gaussian quaternion: four
    normals, drawn again while their norm is below 1e-12."""
    q = rng.standard_normal(4)
    while np.linalg.norm(q) < 1e-12:
        q = rng.standard_normal(4)
    return so3.Rotation(so3._quat_to_matrix(so3.normalize_quaternion(q)))
