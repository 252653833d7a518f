"""Objective values against independent oracles, gradients against central
finite differences, and the family dispatch contracts."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientgeo import dictionary as dct
from orientgeo import gradcheck, losses, models, so3

import record_golden_gradcheck
from so3_helpers import random_axis_angle, random_rotation


def _aa_dictionary(keys):
    return dct.PoseDictionary(keys=np.asarray(keys, dtype=float), representation=dct.AXIS_ANGLE)


def _quat_dictionary(keys):
    keys = np.asarray(keys, dtype=float)
    keys = np.stack([so3.canonical_quaternion(k / np.linalg.norm(k)) for k in keys])
    return dct.PoseDictionary(keys=keys, representation=dct.QUATERNION)


def _spec(family, **kw):
    return losses.ObjectiveSpec(family=family, **kw)


def _row(spec, prediction, dictionary=None, y=None, label=None, soft=None):
    """objective_batch on one sample: the prediction and the target fields
    gain a leading row axis; tests read row 0 of the BatchLoss."""
    if isinstance(prediction, tuple):
        rows = tuple(np.asarray(p, dtype=float)[None] for p in prediction)
    else:
        rows = np.asarray(prediction, dtype=float)[None]
    fields = (None if f is None else np.asarray(f)[None] for f in (y, label, soft))
    return losses.objective_batch(spec, rows, losses.TargetBatch(*fields), dictionary)


def _geodesic(y_pred, y_true, representation=dct.AXIS_ANGLE):
    """The R_G row: geodesic distance of the rotations, gradient in y_pred."""
    return _row(_spec("R_G", representation=representation), y_pred, y=y_true)


def _kl(p, logits):
    """KL(p* || softmax(logits)) and its logit gradient, one row."""
    v, g = losses._kl_rows(np.asarray(p, dtype=float)[None], np.asarray(logits, dtype=float)[None])
    return v[0], g[0]


# ---------------------------------------------------------------------------
# elementary losses: the R_G, R_E and C rows and the KL rows


def test_geodesic_axis_angle_known_values():
    zero = np.zeros(3)
    quarter = np.array([0.0, 0.0, math.pi / 2])
    out = _geodesic(quarter, zero)
    assert abs(out.values[0] - math.pi / 2) <= 1e-12
    assert _geodesic(zero, zero).values[0] == 0.0


def test_geodesic_axis_angle_coaxial_is_angle_difference():
    axis = np.array([1.0, 2.0, -0.5])
    axis /= np.linalg.norm(axis)
    out = _geodesic(1.9 * axis, 0.4 * axis)
    assert abs(out.values[0] - 1.5) <= 1e-12


def test_geodesic_matches_matrix_log_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        y1 = random_axis_angle(rng, max_angle=math.pi - 0.05)
        y2 = random_axis_angle(rng, max_angle=math.pi - 0.05)
        r1, r2 = so3.rodrigues(y1), so3.rodrigues(y2)
        w, v = np.linalg.eig(r1.T @ r2)
        lg = (v @ np.diag(np.log(w)) @ np.linalg.inv(v)).real
        oracle = np.linalg.norm(lg, "fro") / math.sqrt(2.0)
        assert abs(_geodesic(y1, y2).values[0] - oracle) <= 1e-7


def test_geodesic_quaternion_known_value_and_scale_invariance():
    q_id = np.array([1.0, 0.0, 0.0, 0.0])
    q_rot = np.array([math.cos(0.3), math.sin(0.3), 0.0, 0.0])  # angle 0.6 about x
    out = _geodesic(q_rot, q_id, representation=dct.QUATERNION)
    assert abs(out.values[0] - 0.6) <= 1e-12
    # the loss normalizes the raw prediction internally
    scaled = _geodesic(7.5 * q_rot, q_id, representation=dct.QUATERNION)
    assert abs(scaled.values[0] - out.values[0]) <= 1e-12
    assert np.allclose(scaled.grads["pose"][0], out.grads["pose"][0] / 7.5)


def test_geodesic_quaternion_gradient_orthogonal_to_direction():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = rng.standard_normal(4) * 2.0
        q_true = rng.standard_normal(4)
        q_true = so3.canonical_quaternion(q_true / np.linalg.norm(q_true))
        out = _geodesic(s, q_true, representation=dct.QUATERNION)
        # value depends only on s/|s|, so radial derivative must vanish
        assert abs(np.dot(out.grads["pose"][0], s)) <= 1e-9


def test_euclidean_loss_value_and_gradient():
    out = _row(_spec("R_E"), np.array([1.0, 2.0, 3.0]), y=np.array([1.0, 0.0, 1.0]))
    assert out.values[0] == 8.0
    assert np.array_equal(out.grads["pose"][0], np.array([0.0, 4.0, 4.0]))


def test_cross_entropy_uniform_logits_is_log_k():
    out = _row(_spec("C"), np.zeros(4), label=2)
    assert abs(out.values[0] - math.log(4.0)) <= 1e-12
    assert abs(out.grads["logits"][0].sum()) <= 1e-12
    assert np.allclose(out.grads["logits"][0], [0.25, 0.25, -0.75, 0.25])


def test_cross_entropy_shift_invariant():
    logits = np.array([0.3, -1.2, 2.0, 0.0])
    a = _row(_spec("C"), logits, label=1)
    b = _row(_spec("C"), logits + 100.0, label=1)
    assert abs(a.values[0] - b.values[0]) <= 1e-9
    assert np.allclose(a.grads["logits"], b.grads["logits"])


def test_kl_one_hot_target_equals_cross_entropy():
    logits = np.array([0.5, -0.3, 1.1])
    p = np.array([0.0, 1.0, 0.0])
    kd, kd_grad = _kl(p, logits)
    ce = _row(_spec("C"), logits, label=1)
    assert abs(kd - ce.values[0]) <= 1e-12
    assert np.allclose(kd_grad, ce.grads["logits"][0])


def test_kl_zero_when_distributions_match():
    logits = np.array([0.2, 0.9, -1.0, 0.4])
    p = losses.softmax(logits)
    value, grad = _kl(p, logits)
    assert value <= 1e-15
    assert np.allclose(grad, 0.0, atol=1e-15)


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = rng.dirichlet(np.ones(6))
        logits = rng.standard_normal(6)
        assert _kl(p, logits)[0] >= 0.0


# ---------------------------------------------------------------------------
# spec validation


def test_alpha_defaults_shared_one_per_bin_ten():
    assert _spec("M_G").alpha == 1.0
    assert _spec("M_Gp").alpha == 10.0
    assert _spec("M_XP").alpha == 1.0
    assert _spec("M_XPp").alpha == 10.0


def test_combination_rule_defaults():
    assert _spec("M_G").combination == models.ADDITIVE
    assert _spec("M_G", representation=dct.QUATERNION).combination == models.QUATERNION_RENORM
    assert _spec("M_R").combination == models.RIEMANNIAN
    assert _spec("M_LEp").combination == models.RIEMANNIAN


def _resolved_rule(family, representation):
    """The rule ObjectiveSpec once resolved when none was given: the only
    one its check accepted for the pair."""
    if family in ("M_R", "M_Rp", "M_LE", "M_LEp"):
        return models.RIEMANNIAN
    if representation == dct.QUATERNION:
        return models.QUATERNION_RENORM
    return models.ADDITIVE


def test_combination_rule_is_derived_for_every_legal_pair():
    pairs = 0
    for fam in losses.FAMILIES:
        for rep in dct.REPRESENTATIONS:
            try:
                spec = _spec(fam, representation=rep)
            except losses.FamilyMismatch:
                assert fam in losses.RIEMANNIAN_FAMILIES and rep == dct.QUATERNION
                continue
            assert spec.combination == _resolved_rule(fam, rep), (fam, rep)
            pairs += 1
    assert pairs == 2 * len(losses.FAMILIES) - len(losses.RIEMANNIAN_FAMILIES)


def test_combination_rule_is_not_settable():
    with pytest.raises(TypeError):
        _spec("M_G", combination=models.RIEMANNIAN)


def test_riemannian_families_reject_quaternions():
    for fam in ("M_R", "M_Rp", "M_LE", "M_LEp"):
        with pytest.raises(losses.FamilyMismatch):
            _spec(fam, representation=dct.QUATERNION)


def test_rule_mismatches_rejected():
    with pytest.raises(losses.FamilyMismatch):
        _spec("bogus")
    with pytest.raises(losses.FamilyMismatch):
        _spec("M_G", alpha=0.0)


def test_objective_shape_validation():
    dictionary = _aa_dictionary([[0.1, 0, 0], [0, 0.2, 0], [0, 0, 0.3]])
    target = dict(y=np.array([0.1, 0.0, 0.0]), label=0)
    with pytest.raises(losses.FamilyMismatch):
        _row(_spec("M_G"), (np.zeros(3), np.zeros(4)), dictionary, **target)
    # a hard-label per-bin family takes each row's own head (B, d), and only
    # the expectation families take all K heads (B, K, d)
    with pytest.raises(losses.FamilyMismatch):
        _row(_spec("M_Gp"), (np.zeros(3), np.zeros((3, 3))), dictionary, **target)
    with pytest.raises(losses.FamilyMismatch):
        _row(_spec("M_Pp"), (np.zeros(3), np.zeros(3)), dictionary, **target)
    with pytest.raises(losses.FamilyMismatch):
        _row(_spec("M_G"), (np.zeros(3), np.zeros(3)), None, **target)
    with pytest.raises(losses.FamilyMismatch):
        _row(_spec("M_X"), (np.zeros(3), np.zeros(3)), dictionary, **target)


def test_non_finite_loss_rejected():
    # finiteness is checked once per batch, with its own ValueError subclass
    with pytest.raises(losses.NonFiniteObjective):
        _row(_spec("R_E"), np.array([np.nan, 0.0, 0.0]), y=np.zeros(3))
    with pytest.raises(losses.NonFiniteObjective):
        _row(_spec("R_E"), np.array([1e200, 0.0, 0.0]), y=np.zeros(3))
    batch = losses.TargetBatch(y=np.zeros((2, 3)))
    with pytest.raises(losses.NonFiniteObjective, match="row 1"):
        losses.objective_batch(_spec("R_E"), np.array([[0.1, 0.0, 0.0], [np.inf, 0.0, 0.0]]), batch)


# ---------------------------------------------------------------------------
# family semantics against hand-built instances


def _simple_setup():
    keys = np.array([[0.2, 0.0, 0.0], [0.0, 0.9, 0.0], [0.0, 0.0, -0.7], [0.5, 0.5, 0.0]])
    dictionary = _aa_dictionary(keys)
    y_true = np.array([0.25, 0.1, 0.0])
    label = int(dct.hard_labels(y_true[None], dictionary)[0])
    return dictionary, y_true, label


def test_m_g_perfect_delta_leaves_only_cross_entropy():
    dictionary, y_true, label = _simple_setup()
    logits = np.full(4, -3.0)
    logits[label] = 5.0
    delta = y_true - dictionary.keys[label]
    out = _row(_spec("M_G", alpha=2.5), (logits, delta), dictionary, y=y_true, label=label)
    ce = _row(_spec("C"), logits, label=label)
    assert abs(out.values[0] - ce.values[0]) <= 1e-12
    assert np.allclose(out.grads["logits"], ce.grads["logits"])


def test_m_g_uses_predicted_label_not_true_label():
    dictionary, y_true, label = _simple_setup()
    wrong = (label + 1) % 4
    logits = np.full(4, -3.0)
    logits[wrong] = 5.0
    delta = np.array([0.05, -0.02, 0.01])
    out = _row(_spec("M_G", alpha=1.0), (logits, delta), dictionary, y=y_true, label=label)
    reg = _geodesic(dictionary.keys[wrong] + delta, y_true)
    ce = _row(_spec("C"), logits, label=label)
    assert abs(out.values[0] - (reg.values[0] + ce.values[0])) <= 1e-12


@pytest.mark.parametrize("per_bin, shared", [("M_Gp", "M_G"), ("M_Rp", "M_R"), ("M_Xp", "M_X"),
                                              ("M_LEp", "M_LE")])
def test_hard_label_per_bin_objective_is_the_shared_one_on_the_selected_head(per_bin, shared):
    # the step hands each row its own head: the objective is the shared-delta
    # one on that head, with the gradient in the head's (B, d) shape
    dictionary, y_true, label = _simple_setup()
    logits = np.array([0.1, 3.0, -0.2, 0.4])
    head = np.array([0.05, -0.02, 0.04])
    soft = dct.soft_assign_probs(y_true, dictionary.keys, 2.0)
    target = dict(y=y_true, label=label, soft=soft)
    out = _row(_spec(per_bin, alpha=10.0), (logits, head), dictionary, **target)
    want = _row(_spec(shared, alpha=10.0), (logits, head), dictionary, **target)
    assert out.grads["deltas"].shape == (1, 3)
    assert np.any(out.grads["deltas"] != 0.0)
    assert out.values.tobytes() == want.values.tobytes()
    assert out.grads["deltas"].tobytes() == want.grads["delta"].tobytes()
    assert out.grads["logits"].tobytes() == want.grads["logits"].tobytes()


def test_m_r_riemannian_regression_term():
    dictionary, y_true, label = _simple_setup()
    logits = np.full(4, 0.0)
    logits[2] = 4.0
    delta = np.array([0.1, 0.2, -0.05])
    out = _row(_spec("M_R", alpha=3.0), (logits, delta), dictionary, y=y_true, label=label)
    key_rot = so3.rodrigues(dictionary.keys[2])
    composed = key_rot @ so3.rodrigues(delta)
    reg = so3.geodesic_distance_matrices(composed, so3.rodrigues(y_true))
    ce = _row(_spec("C"), logits, label=label)
    assert abs(out.values[0] - (3.0 * reg + ce.values[0])) <= 1e-12


def test_m_p_with_peaked_logits_reduces_to_m_g():
    dictionary, y_true, label = _simple_setup()
    logits = np.full(4, -40.0)
    logits[1] = 40.0
    delta = np.array([0.03, -0.01, 0.02])
    vp = _row(_spec("M_P", alpha=1.5), (logits, delta), dictionary, y=y_true, label=label)
    vg = _row(_spec("M_G", alpha=1.5), (logits, delta), dictionary, y=y_true, label=label)
    assert abs(vp.values[0] - vg.values[0]) <= 1e-9


def test_m_p_value_is_probability_weighted_mixture():
    dictionary, y_true, label = _simple_setup()
    logits = np.array([0.2, -0.4, 0.9, 0.1])
    delta = np.array([0.03, -0.01, 0.02])
    out = _row(_spec("M_P", alpha=2.0), (logits, delta), dictionary, y=y_true, label=label)
    p = losses.softmax(logits)
    mix = sum(p[k] * _geodesic(dictionary.keys[k] + delta, y_true).values[0] for k in range(4))
    ce = _row(_spec("C"), logits, label=label)
    assert abs(out.values[0] - (2.0 * mix + ce.values[0])) <= 1e-12


def test_m_x_uses_kl_against_soft_target():
    dictionary, y_true, label = _simple_setup()
    soft = dct.soft_assign_probs(y_true, dictionary.keys, 2.0)
    logits = np.array([0.3, 1.2, -0.5, 0.0])
    delta = np.array([0.0, 0.05, 0.0])
    out = _row(
        _spec("M_X", alpha=1.0), (logits, delta), dictionary, y=y_true, label=label, soft=soft
    )
    sel = int(np.argmax(logits))
    reg = _geodesic(dictionary.keys[sel] + delta, y_true)
    kd, kd_grad = _kl(soft, logits)
    assert abs(out.values[0] - (reg.values[0] + kd)) <= 1e-12
    assert np.allclose(out.grads["logits"][0], kd_grad)


def test_m_s_alpha_on_regression_m_sp_alpha_on_classification():
    dictionary, y_true, label = _simple_setup()
    logits = np.array([0.4, 0.1, -0.3, 2.0])
    dstar = y_true - dictionary.keys[label]
    delta = np.array([0.07, 0.02, -0.04])
    ce = _row(_spec("C"), logits, label=label)

    out = _row(_spec("M_S", alpha=5.0), (logits, delta), dictionary, y=y_true, label=label)
    want = 5.0 * float((dstar - delta) @ (dstar - delta)) + ce.values[0]
    assert abs(out.values[0] - want) <= 1e-12
    assert np.allclose(out.grads["logits"], ce.grads["logits"])

    deltas = np.tile(delta, (4, 1))
    sel = int(np.argmax(logits))
    outp = _row(_spec("M_Sp", alpha=5.0), (logits, deltas[sel]), dictionary, y=y_true, label=label)
    resid = dstar - deltas[sel]
    assert abs(outp.values[0] - (5.0 * ce.values[0] + float(resid @ resid))) <= 1e-12
    assert np.allclose(outp.grads["logits"], 5.0 * ce.grads["logits"])


def test_m_le_tangent_target_matches_log_oracle():
    dictionary, y_true, label = _simple_setup()
    logits = np.array([2.0, 0.0, 0.1, -0.5])
    delta = np.array([0.01, 0.0, 0.02])
    out = _row(_spec("M_LE", alpha=2.0), (logits, delta), dictionary, y=y_true, label=label)

    sel = int(np.argmax(logits))
    key_rot = so3.rodrigues(dictionary.keys[sel])
    g = so3.log_rotation(key_rot.T @ so3.rodrigues(y_true))
    ce = _row(_spec("C"), logits, label=label)
    expect = ce.values[0] + 2.0 * float((delta - g) @ (delta - g))
    assert abs(out.values[0] - expect) <= 1e-12


def test_m_le_tangent_target_survives_near_pi_keys():
    # key nearly antipodal to the target: log_rotation alone would reject
    keys = np.array([[math.pi - 1e-8, 0.0, 0.0], [0.0, 0.3, 0.0]])
    dictionary = _aa_dictionary(keys)
    y_true = np.array([0.0, 0.0, 0.0])
    logits = np.array([5.0, 0.0])
    out = _row(_spec("M_LE"), (logits, np.zeros(3)), dictionary, y=y_true, label=1)
    assert math.isfinite(out.values[0])
    # with delta = 0 the gradient is -2 alpha g: read the tangent target back
    tangent = -out.grads["delta"][0] / (2.0 * _spec("M_LE").alpha)
    assert np.all(np.isfinite(tangent))
    assert 0.0 < np.linalg.norm(tangent) < math.pi


def test_quaternion_bin_delta_normalizes_composition():
    keys = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5]]
    dictionary = _quat_dictionary(keys)
    y_true = np.array([math.cos(0.2), math.sin(0.2), 0.0, 0.0])
    label = int(dct.hard_labels(y_true[None], dictionary)[0])
    logits = np.array([4.0, 0.0, 0.0])
    delta = np.array([0.1, 0.05, 0.0, 0.0])
    spec = _spec("M_G", representation=dct.QUATERNION)
    out = _row(spec, (logits, delta), dictionary, y=y_true, label=label)
    s = dictionary.keys[0] + delta
    reg = _geodesic(s, y_true, representation=dct.QUATERNION)
    ce = _row(_spec("C"), logits, label=label)
    assert abs(out.values[0] - (reg.values[0] + ce.values[0])) <= 1e-12


def test_non_smooth_flag_set_at_zero_distance():
    dictionary, y_true, label = _simple_setup()
    out = _geodesic(y_true, y_true)
    assert out.non_smooth[0]
    far = _geodesic(y_true + np.array([0.5, 0.0, 0.0]), y_true)
    assert not far.non_smooth[0]


# ---------------------------------------------------------------------------
# finite-difference verification


@pytest.mark.parametrize(
    "spec",
    gradcheck.default_specs(),
    ids=lambda s: f"{s.family}-{s.representation}",
)
def test_analytic_gradients_match_finite_differences(spec):
    report = gradcheck.check_family(spec, instances=12, seed=101, k=6)
    assert report.passed, f"{spec.family}: max rel err {report.max_rel_error:.3e}"


GOLDEN_GRADCHECK = os.path.join(os.path.dirname(__file__), "golden_gradcheck.json")


def test_run_all_reproduces_golden_reports():
    with open(GOLDEN_GRADCHECK, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert golden["seeds"].keys() == {str(s) for s in record_golden_gradcheck.SEEDS}
    for seed, cells in golden["seeds"].items():
        reports = gradcheck.run_all(instances=golden["instances"], seed=int(seed))
        assert record_golden_gradcheck.report_cells(reports) == cells


def _every_head_objective(spec, prediction, targets, keys):
    """objective_batch of a hard-label per-bin family on all K heads
    (B, K, d): the value reads head argmax(logits), and the other heads get
    a zero gradient."""
    logits, deltas = prediction
    rows, label = np.arange(len(logits)), np.argmax(logits, axis=1)
    batch = losses.objective_batch(spec, (logits, deltas[rows, label]), targets, keys)
    grad = np.zeros_like(deltas)
    grad[rows, label] = batch.grads["deltas"]
    return losses.BatchLoss(batch.values, dict(batch.grads, deltas=grad), batch.non_smooth)


def _probe_every_entry(spec, s, h):
    """gradcheck._probe_errors as it was before per-bin heads went unprobed:
    rows 2i + 1 and 2i + 2 of each instance's block move entry i of every
    gradient slot by +h and -h, every entry of all K heads included."""
    n, views, objective = s.size, s.views(spec), losses.objective_batch
    if spec.per_bin and not spec.every_head:
        views, objective = [("logits", s.logits), ("deltas", s.deltas)], _every_head_objective
    sizes = [arr[0].size for _, arr in views]
    rows = 1 + 2 * sum(sizes)
    stacked, offset = [], 0
    for (_, arr), size in zip(views, sizes):
        probes = np.repeat(np.asarray(arr, dtype=float)[:, None], rows, axis=1)
        flat = probes.reshape(n, rows, size)
        entry = np.arange(size)
        flat[:, 1 + 2 * (offset + entry), entry] += h
        flat[:, 2 + 2 * (offset + entry), entry] -= h
        stacked.append(probes.reshape((n * rows,) + probes.shape[2:]))
        offset += size
    prediction = stacked[0] if len(stacked) == 1 else tuple(stacked)
    y, label, soft, keys = (
        None if f is None else np.repeat(f, rows, axis=0) for f in (s.y, s.label, s.soft, s.keys)
    )
    batch = objective(spec, prediction, losses.TargetBatch(y, label, soft), keys)
    values = batch.values.reshape(n, rows)
    fd_all = (values[:, 1::2] - values[:, 2::2]) / (2.0 * h)
    worst, offset = np.zeros(n), 0
    for (name, _), size in zip(views, sizes):
        fd = fd_all[:, offset : offset + size]
        offset += size
        analytic = batch.grads[name].reshape(n, rows, size)[:, 0]
        scale = np.maximum(np.max(np.abs(fd), axis=1), 1e-8)
        worst = np.maximum(worst, np.max(np.abs(analytic - fd), axis=1) / scale)
    return worst


def _every_entry_rows(spec, k):
    if spec.family in losses.DIRECT_FAMILIES:
        return 1 + 2 * spec.pose_dim
    if spec.family == "C":
        return 1 + 2 * k
    return 1 + 2 * (k + (k * spec.pose_dim if spec.per_bin else spec.pose_dim))


@pytest.mark.parametrize("seed", [0, 1, 202])
def test_reports_equal_those_of_probing_every_entry(monkeypatch, seed):
    reports = gradcheck.run_all(instances=100, seed=seed)
    monkeypatch.setattr(gradcheck, "_probe_errors", _probe_every_entry)
    monkeypatch.setattr(gradcheck, "_probe_rows", _every_entry_rows)
    want = gradcheck.run_all(instances=100, seed=seed)
    cells = record_golden_gradcheck.report_cells
    assert cells(reports) == cells(want)


HARD_PER_BIN = ("M_Gp", "M_Rp", "M_Xp", "M_Sp", "M_LEp")


@pytest.mark.parametrize(
    "spec",
    gradcheck.default_specs(),
    ids=lambda s: f"{s.family}-{s.representation}",
)
def test_probe_rows_count_the_rows_of_each_instance(monkeypatch, spec):
    sizes, objective = [], losses.objective_batch

    def counted(*args):
        batch = objective(*args)
        sizes.append(len(batch.values))
        return batch

    monkeypatch.setattr(losses, "objective_batch", counted)
    gradcheck.check_family(spec, instances=3, k=6)
    assert sizes == [3 * gradcheck._probe_rows(spec, 6)]
    # the hard-label per-bin families probe one head, as a shared delta: 23
    # rows, not 65, at k = 8
    if spec.family in HARD_PER_BIN:
        assert gradcheck._probe_rows(spec, 8) == 23
    elif spec.family in ("M_Pp", "M_XPp"):
        assert gradcheck._probe_rows(spec, 8) == 65


@pytest.mark.parametrize(
    "spec",
    gradcheck.default_specs(),
    ids=lambda s: f"{s.family}-{s.representation}",
)
def test_probe_targets_are_referenced_once_per_instance(monkeypatch, spec):
    # each instance's geodesic reference is built once and repeated over
    # its probe rows; objective_batch does not rebuild it per probe row
    rows, references = [], losses.target_references

    def counted(representation, y):
        rows.append(len(y))
        return references(representation, y)

    monkeypatch.setattr(losses, "target_references", counted)
    gradcheck.check_family(spec, instances=3, k=6)
    assert rows == ([] if spec.family == "C" else [3])


@pytest.mark.parametrize("instances", [0, -1])
def test_check_family_rejects_no_instances(instances):
    with pytest.raises(ValueError, match="^instances must be an integer >= 1"):
        gradcheck.check_family(_spec("R_G"), instances=instances)


@pytest.mark.parametrize("family", ["C", "M_G", "M_X", "R_G"])
@pytest.mark.parametrize("k", [1, 0])
def test_check_family_rejects_fewer_than_two_keys(family, k):
    with pytest.raises(ValueError, match="^k must be an integer >= 2"):
        gradcheck.check_family(_spec(family), instances=3, k=k)


@pytest.mark.parametrize("name", ["instances", "k"])
@pytest.mark.parametrize("value", [True, False, 2.5, "3", None])
def test_check_family_refuses_counts_that_are_not_integers(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        gradcheck.check_family(_spec("R_G"), **{"instances": 3, "k": 4, name: value})


@pytest.mark.parametrize("seed", [True, -1, 2.5, "3"])
def test_check_family_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, got "):
        gradcheck.check_family(_spec("R_G"), instances=3, seed=seed)


def test_check_family_reads_the_seed_through_operator_index():
    report = gradcheck.check_family(_spec("M_P"), instances=3, seed=np.int64(3))
    assert repr(report) == repr(gradcheck.check_family(_spec("M_P"), instances=3, seed=3))


def test_check_family_reads_counts_through_operator_index():
    report = gradcheck.check_family(_spec("M_G"), instances=np.int64(3), k=np.int32(4))
    assert type(report.instances) is int and report.instances == 3
    assert repr(report) == repr(gradcheck.check_family(_spec("M_G"), instances=3, k=4))


@pytest.mark.parametrize("family", ["M_G", "M_P", "M_X"])
def test_smoothness_test_rejects_a_zero_quaternion_sum(family):
    """A key plus delta that is the zero quaternion fails the norm test;
    its distances are never taken, so compose_rotation cannot raise."""
    spec = _spec(family, representation=dct.QUATERNION)
    rng = np.random.default_rng(5)
    c = gradcheck._draw(spec, rng, 4, 6)
    zero, sel = 2, np.argmax(c.logits[2])
    deltas = c.deltas.copy()
    deltas[zero] = -c.keys[zero, sel]
    c = dataclasses.replace(c, deltas=deltas)
    with pytest.raises(models.ZeroSum):
        models.compose_rotation(spec.combination, c.keys[zero, sel], deltas[zero])
    mask = gradcheck._smooth(spec, c)
    assert not mask[zero]
    others = np.arange(c.size) != zero
    assert np.array_equal(mask[others], gradcheck._smooth(spec, c.rows(others)))


def test_gradcheck_near_pi_projection_chain():
    # prediction outside the pi ball engages the rescaling; FD still matches
    # because the instance stays clear of the boundary itself
    rng = np.random.default_rng(42)
    y_true = random_axis_angle(rng, max_angle=2.0)
    pred = np.array([2.5, 2.5, 1.0])  # norm ~ 3.68 > pi
    one = gradcheck._Stack(pose=pred[None], y=y_true[None])
    assert gradcheck._probe_errors(_spec("R_G"), one, gradcheck.FD_STEP)[0] <= 1e-4


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_geodesic_gradient_property_fd(seed):
    report = gradcheck.check_family(_spec("R_G"), instances=1, seed=seed)
    assert report.max_rel_error <= 1e-4


# ---------------------------------------------------------------------------
# tangent-space consistency (small-delta regime)


def test_log_euclidean_approximates_riemannian_regression():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(300):
        key = random_axis_angle(rng, max_angle=math.pi - 0.1)
        key_rot = so3.rodrigues(key)
        r_true = key_rot @ random_rotation(rng).matrix
        if so3.geodesic_distance_matrices(key_rot, r_true) > math.pi - 1e-2:
            continue
        dy = rng.standard_normal(3)
        dy *= (1e-3 * rng.random()) / np.linalg.norm(dy)
        g = so3.log_rotation(key_rot.T @ r_true)
        le = np.linalg.norm(g - dy)
        mr = so3.geodesic_distance_matrices(r_true, key_rot @ so3.rodrigues(dy))
        worst = max(worst, abs(le - mr))
    assert worst <= 1e-5


# ---------------------------------------------------------------------------
# schedules


def test_simple_init_schedule_for_geodesic_families():
    spec = _spec("M_G", alpha=2.0)
    schedule = losses.simple_init_schedule(spec, epochs=3)
    assert len(schedule) == 4
    assert schedule[0].family == "M_S"
    assert schedule[0].alpha == 2.0
    assert all(s is spec for s in schedule[1:])

    spec_pb = _spec("M_Rp")
    schedule = losses.simple_init_schedule(spec_pb, epochs=2)
    assert schedule[0].family == "M_Sp"
    assert len(schedule) == 3


def test_simple_init_only_for_geodesic_and_riemannian():
    for fam in ("R_G", "C", "M_P", "M_X", "M_S", "M_LE"):
        spec = _spec(fam)
        schedule = losses.simple_init_schedule(spec, epochs=2)
        assert len(schedule) == 2
        assert all(s is spec for s in schedule)
