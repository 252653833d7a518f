import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientgeo import dictionary as dct
from orientgeo import so3

from so3_helpers import random_axis_angle


def rng(seed=0):
    return np.random.default_rng(seed)


def brute_force_label(y, keys):
    best, best_d = 0, math.inf
    for i, z in enumerate(keys):
        d = float(np.sum((np.asarray(y) - z) ** 2))
        if d < best_d:
            best, best_d = i, d
    return best


def random_axis_angle_targets(g, n):
    return np.array([random_axis_angle(g) for _ in range(n)])


# ---------------------------------------------------------------------------
# fit_kmeans


def test_kmeans_fixed_point_on_k_distinct_points():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, 2.0]])
    d = dct.fit_kmeans(pts, 4, seed=0)
    # keys are exactly the input points, in some order
    matched = [np.min(np.sum((d.keys - p) ** 2, axis=1)) for p in pts]
    assert max(matched) <= 1e-12 ** 2


def test_kmeans_two_blob_means():
    g = rng(1)
    a = g.normal(0.0, 0.01, size=(200, 3)) + np.array([1.0, 0.0, 0.0])
    b = g.normal(0.0, 0.01, size=(200, 3)) + np.array([-1.0, 0.0, 0.0])
    d = dct.fit_kmeans(np.vstack([a, b]), 2, seed=3)
    means = sorted([a.mean(axis=0), b.mean(axis=0)], key=lambda m: m[0])
    keys = d.keys[np.argsort(d.keys[:, 0])]
    np.testing.assert_allclose(keys, means, atol=1e-6)


def test_kmeans_deterministic():
    g = rng(2)
    pts = random_axis_angle_targets(g, 300)
    d1 = dct.fit_kmeans(pts, 16, seed=7)
    d2 = dct.fit_kmeans(pts, 16, seed=7)
    assert np.array_equal(d1.keys, d2.keys)


def test_kmeans_insufficient_data():
    with pytest.raises(dct.InsufficientData):
        dct.fit_kmeans(np.zeros((3, 3)), 4, seed=0)


@pytest.mark.parametrize("k", [0, -1, 1.5, "2", None])
def test_kmeans_rejects_a_k_that_is_not_a_positive_integer(k):
    with pytest.raises(ValueError, match="^k must be an integer >= 1"):
        dct.fit_kmeans(np.zeros((3, 3)), k, seed=0)


def test_kmeans_accepts_a_numpy_integer_k():
    pts = random_axis_angle_targets(rng(12), 20)
    assert np.array_equal(dct.fit_kmeans(pts, np.int64(4), seed=1).keys,
                          dct.fit_kmeans(pts, 4, seed=1).keys)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kmeans_rejects_non_finite_targets(bad):
    pts = random_axis_angle_targets(rng(12), 20)
    pts[7, 1] = bad
    with pytest.raises(ValueError, match="^targets must be finite"):
        dct.fit_kmeans(pts, 4, seed=0)


def test_kmeans_objective_non_increasing_across_iterations():
    # re-run Lloyd's by hand through the public API at increasing iteration
    # caps and check the clustering objective never goes up
    g = rng(3)
    pts = random_axis_angle_targets(g, 400)
    prev = math.inf
    for iters in (1, 2, 3, 5, 10, 50):
        old = dct.KMEANS_MAX_ITER
        dct.KMEANS_MAX_ITER = iters
        try:
            d = dct.fit_kmeans(pts, 8, seed=11)
        finally:
            dct.KMEANS_MAX_ITER = old
        obj = float(np.sum((pts - d.keys[dct.hard_labels(pts, d)]) ** 2))
        assert obj <= prev + 1e-9
        prev = obj


def test_kmeans_quaternion_keys_unit_canonical():
    g = rng(4)
    qs = []
    for _ in range(200):
        q = g.standard_normal(4)
        qs.append(so3.canonical_quaternion(q / np.linalg.norm(q)))
    d = dct.fit_kmeans(np.array(qs), 8, seed=5, representation=dct.QUATERNION)
    norms = np.linalg.norm(d.keys, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    assert np.all(d.keys[:, 0] >= 0.0)


def test_kmeans_axis_angle_keys_inside_ball():
    g = rng(5)
    pts = random_axis_angle_targets(g, 500)
    d = dct.fit_kmeans(pts, 32, seed=9)
    assert np.all(np.linalg.norm(d.keys, axis=1) < math.pi)


# ---------------------------------------------------------------------------
# labels


def test_hard_label_exact_key():
    keys = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    d = dct.PoseDictionary(keys, dct.AXIS_ANGLE)
    assert dct.hard_labels(keys[2:3], d).tolist() == [2]


def test_hard_label_tie_breaks_low_index():
    keys = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    d = dct.PoseDictionary(keys, dct.AXIS_ANGLE)
    assert dct.hard_labels(np.zeros((1, 3)), d).tolist() == [0]


def test_hard_label_matches_brute_force():
    g = rng(6)
    keys = random_axis_angle_targets(g, 40)
    d = dct.PoseDictionary(keys, dct.AXIS_ANGLE)
    ys = np.array([random_axis_angle(g) for _ in range(1000)])
    assert dct.hard_labels(ys, d).tolist() == [brute_force_label(y, keys) for y in ys]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=40),
       st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=7))
def test_hard_labels_in_row_blocks_equal_one_argmin(seed, n, k, block):
    g = rng(seed)
    keys = np.round(g.standard_normal((k, 3)) * 4.0) / 4.0
    keys[-1] = keys[0]  # coincident keys tie everywhere
    # midpoints of key pairs lie exactly between two keys
    pairs = g.integers(0, k, size=(n, 2))
    ys = np.where(g.random((n, 1)) < 0.5, (keys[pairs[:, 0]] + keys[pairs[:, 1]]) / 2.0,
                  g.standard_normal((n, 3)))
    d = dct.PoseDictionary(keys, dct.AXIS_ANGLE)
    want = np.argmin(dct._sq_distances(ys, keys), axis=-1)
    with mock.patch.object(dct, "_BLOCK_ROWS", block):
        got = dct.hard_labels(ys, d)
    assert got.dtype == want.dtype and got.shape == (n,)
    np.testing.assert_array_equal(got, want)


def _traced(fn, *args):
    """fn(*args) and the peak bytes that numpy and Python allocated in it."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kmeans_and_hard_labels_never_hold_an_n_by_k_matrix():
    n, k = 20_000, 100
    one_matrix = n * k * 8  # bytes of one (n, K) float64 array
    pts = rng(14).standard_normal((n, 3))
    fit, peak = _traced(dct.fit_kmeans, pts, k, 0)
    assert peak < one_matrix
    _, peak = _traced(dct.hard_labels, pts, fit)
    assert peak < one_matrix


# ---------------------------------------------------------------------------
# soft assignment


def test_soft_assign_uniform_at_tiny_gamma():
    g = rng(7)
    keys = random_axis_angle_targets(g, 10)
    d = dct.PoseDictionary(keys, dct.AXIS_ANGLE)
    p = dct.soft_assign_probs(np.zeros(3), d.keys, 1e-12)
    np.testing.assert_allclose(p, 0.1, atol=1e-9)


def test_soft_assign_one_hot_at_huge_gamma():
    keys = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    d = dct.PoseDictionary(keys, dct.AXIS_ANGLE)
    p = dct.soft_assign_probs(keys[1], d.keys, 1e6)
    assert p[1] > 1.0 - 1e-6


def test_soft_assign_two_key_closed_form():
    # distances^2 of 1 and 4, gamma=1 -> p = e^-1 / (e^-1 + e^-4)
    keys = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    d = dct.PoseDictionary(keys, dct.AXIS_ANGLE)
    p = dct.soft_assign_probs(np.zeros(3), d.keys, 1.0)
    expected = math.exp(-1.0) / (math.exp(-1.0) + math.exp(-4.0))
    assert p[0] == pytest.approx(expected, abs=1e-12)
    assert p[0] == pytest.approx(0.95257, abs=5e-6)


def test_soft_assign_sums_to_one_up_to_huge_gamma():
    g = rng(8)
    keys = random_axis_angle_targets(g, 30)
    d = dct.PoseDictionary(keys, dct.AXIS_ANGLE)
    for gamma in (1e-12, 1.0, 1e4, 1e8):
        for _ in range(20):
            p = dct.soft_assign_probs(random_axis_angle(g), d.keys, gamma)
            assert abs(p.sum() - 1.0) <= 1e-12


def test_soft_assign_rejects_non_positive_gamma():
    keys = np.eye(3)
    for gamma in (0.0, -1.0):
        with pytest.raises(ValueError):
            dct.soft_assign_probs(np.zeros(3), keys, gamma)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=-11.0, max_value=7.0),
)
def test_property_argmax_soft_equals_hard_label(seed, log_gamma):
    g = rng(seed)
    keys = random_axis_angle_targets(g, 12)
    d = dct.PoseDictionary(keys, dct.AXIS_ANGLE)
    y = random_axis_angle(g)
    gamma = 10.0 ** log_gamma
    p = dct.soft_assign_probs(y, d.keys, gamma)
    assert [int(np.argmax(p))] == dct.hard_labels(y[None], d).tolist()


# ---------------------------------------------------------------------------
# gamma rule


def test_default_gamma_unit_spacing():
    d = dct.PoseDictionary(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), dct.AXIS_ANGLE)
    assert dct.default_gamma(d) == pytest.approx(0.5, abs=1e-15)


def test_default_gamma_min_spacing_wins():
    d = dct.PoseDictionary(
        np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 0.0]]), dct.AXIS_ANGLE
    )
    assert dct.default_gamma(d) == pytest.approx(0.125, abs=1e-15)


def test_default_gamma_degenerate():
    d = dct.PoseDictionary(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), dct.AXIS_ANGLE)
    with pytest.raises(dct.DegenerateDictionary):
        dct.default_gamma(d)


# ---------------------------------------------------------------------------
# serialization


def test_dictionary_roundtrip_text(tmp_path):
    g = rng(9)
    pts = random_axis_angle_targets(g, 100)
    d = dct.fit_kmeans(pts, 16, seed=13)
    path = tmp_path / "dict.txt"
    dct.save_dictionary(d, path)
    loaded = dct.load_dictionary(path)
    assert loaded.representation == d.representation
    assert np.array_equal(loaded.keys, d.keys)
    header = path.read_text().splitlines()[0]
    assert header == "repr=axis_angle K=16"


def test_dictionary_roundtrip_quaternion(tmp_path):
    g = rng(10)
    qs = []
    for _ in range(60):
        q = g.standard_normal(4)
        qs.append(so3.canonical_quaternion(q / np.linalg.norm(q)))
    d = dct.fit_kmeans(np.array(qs), 8, seed=3, representation=dct.QUATERNION)
    path = tmp_path / "dict_quat.txt"
    dct.save_dictionary(d, path)
    loaded = dct.load_dictionary(path)
    assert loaded.representation == dct.QUATERNION
    assert np.array_equal(loaded.keys, d.keys)


def _dictionary_file(tmp_path, text):
    path = tmp_path / "dict.txt"
    path.write_text(text)
    return path


def test_dictionary_file_with_extra_keys_is_rejected(tmp_path):
    path = _dictionary_file(tmp_path, "repr=axis_angle K=1\n0.1 0.2 0.3\n0.4 0.5 0.6\n")
    with pytest.raises(ValueError, match="K=1 but the file has 2 keys"):
        dct.load_dictionary(path)


@pytest.mark.parametrize("header", [
    "", "K=1", "repr=axis_angle", "repr=axis_angle K=one", "repr=axis_angle K=1 x=2",
    "axis_angle 1",
])
def test_dictionary_file_with_a_bad_header_is_rejected(tmp_path, header):
    path = _dictionary_file(tmp_path, header + "\n0.1 0.2 0.3\n")
    with pytest.raises(ValueError, match="^bad dictionary header"):
        dct.load_dictionary(path)
