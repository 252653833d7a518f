import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientgeo import so3

from so3_helpers import (euler_of, quaternion_angle, random_axis_angle, random_rotation, rot_x,
                         rot_z)


# ---------------------------------------------------------------------------
# Oracles.  These recompute expected values by routes independent of the
# implementation under test.


def matrix_log_distance_oracle(m1, m2):
    """|| logm(R1 R2^T) ||_F / sqrt(2) via complex eigendecomposition."""
    rel = m1 @ m2.T
    w, v = np.linalg.eig(rel)
    lg = v @ np.diag(np.log(w)) @ np.linalg.inv(v)
    return np.linalg.norm(lg.real) / math.sqrt(2.0)


def rotation_product_oracle(*matrices):
    out = np.eye(3)
    for m in matrices:
        out = out @ m
    return out


def rng(seed=0):
    return np.random.default_rng(seed)


def distance(m1, m2):
    return float(so3.geodesic_distance_matrices(m1, m2))


# ---------------------------------------------------------------------------
# Types


def test_rotation_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        so3.Rotation(np.eye(3) * 2.0)


def test_rotation_rejects_reflection():
    with pytest.raises(ValueError):
        so3.Rotation(np.diag([1.0, 1.0, -1.0]))


def test_quaternion_canonicalized_on_construction():
    q = so3.UnitQuaternion(np.array([-0.5, 0.5, 0.5, 0.5]))
    assert q.wxyz[0] == 0.5
    # c = 0 tie: first nonzero component made positive
    q0 = so3.UnitQuaternion(np.array([0.0, -1.0, 0.0, 0.0]))
    assert q0.wxyz[1] == 1.0


def test_euler_wraps_az_ct():
    e = so3.EulerZXZ(3.0 * math.pi / 2.0, 0.3, -3.0 * math.pi / 2.0)
    assert e.azimuth == pytest.approx(-math.pi / 2.0, abs=1e-12)
    assert e.tilt == pytest.approx(math.pi / 2.0, abs=1e-12)


@pytest.mark.parametrize("value", [so3.Rotation.identity(), so3.UnitQuaternion([1.0, 0.0, 0.0, 0.0]),
                                   so3.EulerZXZ(0.1, 0.2, 0.3)], ids=lambda v: type(v).__name__)
def test_one_row_values_are_slotted(value):
    # no per-instance dict: a new attribute is refused even past the frozen
    # __setattr__
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(value, "extra", 1.0)


def test_one_row_values_keep_their_equality_and_hashing():
    # EulerZXZ compares and hashes its fields; the array holders are equal
    # only to themselves
    a = so3.EulerZXZ(0.1, 0.2, 0.3)
    assert a == so3.EulerZXZ(0.1, 0.2, 0.3) and hash(a) == hash(so3.EulerZXZ(0.1, 0.2, 0.3))
    assert a != so3.EulerZXZ(0.1, 0.2, 0.4)
    for cls, arg in ((so3.Rotation, np.eye(3)), (so3.UnitQuaternion, [1.0, 0.0, 0.0, 0.0])):
        value = cls(arg)
        assert value == value and value != cls(arg) and cls.__hash__ is object.__hash__


# ---------------------------------------------------------------------------
# exp / log


def test_exp_identity():
    np.testing.assert_allclose(so3.rodrigues(np.zeros(3)), np.eye(3), atol=1e-15)


@pytest.mark.parametrize("scale", [0.0, 1e-9, 1e-4, 1.0, 3.0, 10.0])
def test_exp_equals_its_closed_form_bit_for_bit(scale):
    # I + (sin t / t) K + ((1 - cos t) / t^2) K^2 as one expression, the
    # form rodrigues had before it summed in place
    v = np.random.default_rng(3).standard_normal((4, 5, 3)) * scale
    t = so3._norm(v)[..., None, None]
    small = t < so3.EPS_THETA
    ts = np.where(small, 1.0, t)
    a = np.where(small, 1.0, np.sin(t) / ts)
    b = np.where(small, 0.0, (1.0 - np.cos(t)) / (ts * ts))
    k = so3.hat(v)
    np.testing.assert_array_equal(so3.rodrigues(v), np.eye(3) + a * k + b * (k @ k))


@pytest.mark.parametrize("width", [1, 2, 3, 4, 9])
def test_first_sign_is_the_sign_of_the_first_nonzero_entry(width):
    # quaternions (4) and reordered warp entries (9) share this rule; rows
    # mix zeros with the smallest and largest doubles
    g = np.random.default_rng(width)
    values = np.array([0.0, 0.0, 5e-324, -5e-324, 1e-300, -1.0, 2.0, -1e300, 1.7e308])
    rows = g.choice(values, size=(6, 50, width))
    rows[np.all(rows == 0.0, axis=-1), -1] = -3.0
    expected = [[math.copysign(1.0, next(x for x in row if x != 0.0)) for row in block]
                for block in rows]
    np.testing.assert_array_equal(so3._first_sign(rows), expected)
    rows[2, 7] = 0.0
    with pytest.raises(ValueError):
        so3._first_sign(rows)


def test_exp_canonical_z_quarter_turn():
    r = so3.rodrigues(np.array([0.0, 0.0, math.pi / 2.0]))
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(r, expected, atol=1e-15)


def test_log_identity():
    v = so3.log_rotation(np.eye(3))
    np.testing.assert_allclose(v, np.zeros(3), atol=1e-15)


def test_log_canonical_z_quarter_turn():
    m = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    v = so3.log_rotation(m)
    np.testing.assert_allclose(v, [0.0, 0.0, math.pi / 2.0], atol=1e-12)


def test_log_rejects_half_turn():
    m = np.diag([1.0, -1.0, -1.0])  # trace -1, angle pi about x
    with pytest.raises(so3.NearPiRotation):
        so3.log_rotation(m)


def test_roundtrip_bulk():
    g = rng(1)
    worst = 0.0
    for _ in range(2000):
        v = random_axis_angle(g)
        w = so3.log_rotation(so3.rodrigues(v))
        worst = max(worst, np.max(np.abs(w - v)))
    assert worst <= 1e-9


def test_roundtrip_small_angles():
    g = rng(2)
    for scale in (1e-12, 1e-9, 1e-7, 1e-4):
        for _ in range(50):
            axis = g.standard_normal(3)
            axis /= np.linalg.norm(axis)
            v = scale * axis
            w = so3.log_rotation(so3.rodrigues(v))
            assert np.max(np.abs(w - v)) <= 1e-12


def test_clip_axis_angle_norm():
    v = np.array([3.0, 0.0, 3.0])
    out = so3.clip_axis_angle_norm(v)
    assert np.linalg.norm(out) == pytest.approx(math.pi - 1e-6, abs=1e-12)
    small = np.array([0.1, 0.2, -0.3])
    np.testing.assert_array_equal(so3.clip_axis_angle_norm(small), small)


# ---------------------------------------------------------------------------
# distances


def test_geodesic_distance_identity_pair():
    g = rng(3)
    r = random_rotation(g)
    assert distance(r.matrix, r.matrix) == 0.0


def test_geodesic_distance_quarter_turn():
    r = so3.Rotation(rot_z(math.pi / 2.0))
    assert distance(np.eye(3), r.matrix) == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_geodesic_distance_z_vs_x_quarter_turns():
    rz = so3.Rotation(rot_z(math.pi / 2.0))
    rx = so3.Rotation(rot_x(math.pi / 2.0))
    d = distance(rz.matrix, rx.matrix)
    assert d == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)
    assert d == pytest.approx(matrix_log_distance_oracle(rz.matrix, rx.matrix), abs=1e-9)


def test_trace_form_matches_matrix_log_oracle():
    g = rng(4)
    for _ in range(500):
        r1, r2 = random_rotation(g), random_rotation(g)
        d_trace = distance(r1.matrix, r2.matrix)
        d_logm = matrix_log_distance_oracle(r1.matrix, r2.matrix)
        assert abs(d_trace - d_logm) <= 1e-7


def test_metric_properties_on_random_triples():
    g = rng(5)
    for _ in range(300):
        a, b, c = (random_rotation(g).matrix for _ in range(3))
        dab = distance(a, b)
        # exact symmetry: the trace form is elementwise symmetric
        assert dab == distance(b, a)
        assert distance(a, a) == 0.0
        assert dab <= distance(a, c) + distance(c, b) + 1e-9


def test_coaxial_distance_is_angle_difference():
    g = rng(6)
    for _ in range(100):
        axis = g.standard_normal(3)
        axis /= np.linalg.norm(axis)
        t1, t2 = g.uniform(0.0, math.pi - 1e-3, size=2)
        r1 = so3.rodrigues(t1 * axis)
        r2 = so3.rodrigues(t2 * axis)
        assert distance(r1, r2) == pytest.approx(abs(t1 - t2), abs=1e-9)


def test_quaternion_distance_basics():
    e = so3.UnitQuaternion(np.array([1.0, 0.0, 0.0, 0.0]))
    h = so3.UnitQuaternion(np.array([math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5)]))
    assert quaternion_angle(e.wxyz, e.wxyz) == 0.0
    assert quaternion_angle(e.wxyz, h.wxyz) == pytest.approx(math.pi / 2.0, abs=1e-12)
    m_e, m_h = so3.quaternion_to_rotation(e).matrix, so3.quaternion_to_rotation(h).matrix
    assert distance(m_e, m_e) == 0.0
    assert distance(m_e, m_h) == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_quaternion_distance_antipodal_is_zero():
    g = rng(7)
    q = g.standard_normal(4)
    q /= np.linalg.norm(q)
    q1 = so3.UnitQuaternion(q)
    q2 = so3.UnitQuaternion(-q)
    assert quaternion_angle(q1.wxyz, q2.wxyz) == pytest.approx(0.0, abs=1e-7)
    m1, m2 = so3.quaternion_to_rotation(q1).matrix, so3.quaternion_to_rotation(q2).matrix
    assert distance(m1, m2) == pytest.approx(0.0, abs=1e-7)


def test_quaternion_distance_matches_rotation_distance():
    g = rng(8)
    for _ in range(500):
        a = g.standard_normal(4)
        b = g.standard_normal(4)
        q1 = so3.UnitQuaternion(a / np.linalg.norm(a))
        q2 = so3.UnitQuaternion(b / np.linalg.norm(b))
        dq = quaternion_angle(q1.wxyz, q2.wxyz)
        dr = distance(so3.quaternion_to_rotation(q1).matrix, so3.quaternion_to_rotation(q2).matrix)
        assert abs(dq - dr) <= 1e-7


# ---------------------------------------------------------------------------
# conversions


def test_axis_angle_to_quaternion_half_turn_z():
    q = so3.matrix_to_quaternion(so3.rodrigues(np.array([0.0, 0.0, math.pi / 2.0])))
    np.testing.assert_allclose(
        q, [math.cos(math.pi / 4.0), 0.0, 0.0, math.sin(math.pi / 4.0)], atol=1e-15
    )


def test_identity_quaternion_to_axis_angle():
    q = so3.UnitQuaternion(np.array([1.0, 0.0, 0.0, 0.0]))
    v = so3.log_rotation(so3.quaternion_to_rotation(q).matrix)
    np.testing.assert_allclose(v, np.zeros(3), atol=1e-15)


def test_conversion_triangles_commute():
    g = rng(9)
    for _ in range(500):
        v = random_axis_angle(g)
        direct = so3.rodrigues(v)
        # the half-angle quaternion of v, c >= 0 since |v| < pi
        t = np.linalg.norm(v)
        q_v = np.concatenate(([math.cos(t / 2.0)], math.sin(t / 2.0) / t * v))
        via_quat = so3.quaternion_to_rotation(so3.UnitQuaternion(q_v)).matrix
        assert np.max(np.abs(direct - via_quat)) <= 1e-9
        # and back through the quaternion extracted from the matrix
        q = so3.rotation_to_quaternion(so3.Rotation(direct))
        assert np.max(np.abs(q.wxyz - q_v)) <= 1e-9
        w = so3.log_rotation(so3.quaternion_to_rotation(q).matrix)
        assert np.max(np.abs(w - v)) <= 1e-9


def test_matrix_to_quaternion_covers_all_branches():
    # Four rotations chosen so each Shepperd branch is exercised.
    cases = [
        np.array([0.1, 0.0, 0.0]),
        np.array([3.0, 0.0, 0.0]),
        np.array([0.0, 3.0, 0.0]),
        np.array([0.0, 0.0, 3.0]),
    ]
    for v in cases:
        r = so3.Rotation(so3.rodrigues(v))
        q = so3.rotation_to_quaternion(r)
        np.testing.assert_allclose(
            so3.quaternion_to_rotation(q).matrix, r.matrix, atol=1e-12
        )


def test_quaternion_to_axis_angle_rejects_near_pi():
    q = so3.UnitQuaternion(np.array([1e-9, 1.0, 0.0, 0.0]))
    with pytest.raises(so3.NearPiRotation):
        so3.log_rotation(so3.quaternion_to_rotation(q).matrix)


# ---------------------------------------------------------------------------
# Euler ZXZ


def test_euler_identity():
    r = so3.euler_to_rotation(so3.EulerZXZ(0.0, 0.0, 0.0))
    np.testing.assert_allclose(r.matrix, np.eye(3), atol=1e-15)


def test_euler_pure_azimuth_is_z_rotation():
    r = so3.euler_to_rotation(so3.EulerZXZ(math.pi / 2.0, 0.0, 0.0))
    np.testing.assert_allclose(r.matrix, rot_z(math.pi / 2.0), atol=1e-15)


def test_euler_matches_explicit_product():
    g = rng(10)
    for _ in range(200):
        az, ct = g.uniform(-math.pi, math.pi, size=2)
        el = g.uniform(-math.pi / 2.0, math.pi / 2.0)
        r = so3.euler_to_rotation(so3.EulerZXZ(az, el, ct))
        expected = rotation_product_oracle(rot_z(ct), rot_x(el), rot_z(az))
        np.testing.assert_allclose(r.matrix, expected, atol=1e-12)


def test_euler_roundtrip_positive_elevation():
    g = rng(11)
    for _ in range(300):
        az = g.uniform(-math.pi, math.pi - 1e-6)
        el = g.uniform(1e-4, math.pi - 1e-4)
        ct = g.uniform(-math.pi, math.pi - 1e-6)
        e = so3.EulerZXZ(az, el, ct)
        back = euler_of(so3.euler_to_rotation(e).matrix)
        assert back.azimuth == pytest.approx(az, abs=1e-9)
        assert back.elevation == pytest.approx(el, abs=1e-9)
        assert back.tilt == pytest.approx(ct, abs=1e-9)


def test_euler_negative_elevation_extracts_twin():
    # (az, el, ct) and (az+pi, -el, ct+pi) compose to the same matrix; the
    # extractor pins el >= 0, so negative-elevation inputs come back as the
    # twin and the matrices still agree.
    e = so3.EulerZXZ(0.4, -0.3, -1.1)
    r = so3.euler_to_rotation(e)
    back = euler_of(r.matrix)
    assert back.elevation == pytest.approx(0.3, abs=1e-12)
    assert back.azimuth == pytest.approx(so3.wrap_angle(0.4 + math.pi), abs=1e-12)
    assert back.tilt == pytest.approx(so3.wrap_angle(-1.1 + math.pi), abs=1e-12)
    np.testing.assert_allclose(so3.euler_to_rotation(back).matrix, r.matrix, atol=1e-12)


def test_euler_matrix_roundtrip_everywhere_non_degenerate():
    g = rng(12)
    count = 0
    for _ in range(300):
        r = random_rotation(g)
        e = euler_of(r.matrix)
        if e is None:
            continue
        count += 1
        np.testing.assert_allclose(so3.euler_to_rotation(e).matrix, r.matrix, atol=1e-9)
    assert count > 290  # gimbal lock has measure zero


def test_gimbal_lock_raised_at_zero_elevation():
    r = so3.euler_to_rotation(so3.EulerZXZ(math.pi / 3.0, 0.0, 0.5))
    assert so3.matrix_to_euler(r.matrix)[1]
    assert euler_of(r.matrix) is None


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_property_roundtrip_from_seed(seed):
    g = rng(seed)
    v = random_axis_angle(g)
    w = so3.log_rotation(so3.rodrigues(v))
    assert np.max(np.abs(w - v)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.01, max_value=math.pi - 0.01),
)
def test_property_exp_preserves_angle(x, y, z, angle):
    axis = np.array([x, y, z])
    n = np.linalg.norm(axis)
    if n < 1e-3:
        return
    r = so3.rodrigues(angle * axis / n)
    assert distance(np.eye(3), r) == pytest.approx(angle, abs=1e-9)

