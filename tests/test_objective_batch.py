"""objective_batch against the recorded per-sample reference, and its rows
against one-row calls."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientgeo import dictionary as dct
from orientgeo import gradcheck, losses, so3

from so3_helpers import random_axis_angle

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_objective.json")
GOLDEN_TOL = 1e-12

with open(GOLDEN, encoding="utf-8") as _fh:
    GOLDEN_ROWS = json.load(_fh)["rows"]


def _selected_heads(logits, deltas):
    """Each row's head argmax(logits) of all K heads (B, K, d): the deltas
    a hard-label per-bin family reads."""
    return deltas[np.arange(len(logits)), np.argmax(logits, axis=1)]


def _one_row(row):
    """The golden row as objective_batch arguments with B = 1.  A hard-label
    per-bin row recorded all K heads; the objective takes head argmax."""
    spec = losses.ObjectiveSpec(row["family"], row["representation"], alpha=row["alpha"])
    dictionary = None
    if row["keys"] is not None:
        dictionary = dct.PoseDictionary(np.array(row["keys"]), row["representation"])
    pred = row["prediction"]
    if isinstance(pred, dict):
        prediction = (np.array([pred["logits"]]), np.array([pred["deltas"]]))
        if spec.per_bin and not spec.every_head:
            prediction = (prediction[0], _selected_heads(*prediction))
    else:
        prediction = np.array([pred])
    targets = losses.TargetBatch(
        y=None if row["y"] is None else np.array([row["y"]]),
        label=None if row["label"] is None else np.array([row["label"]]),
        soft=None if row["soft"] is None else np.array([row["soft"]]),
    )
    return spec, prediction, targets, dictionary


@pytest.mark.parametrize(
    "row",
    GOLDEN_ROWS,
    ids=[f"{r['case']}-{r['family']}-{r['representation']}-{i}" for i, r in enumerate(GOLDEN_ROWS)],
)
def test_objective_batch_matches_golden_rows(row):
    spec, prediction, targets, dictionary = _one_row(row)
    out = losses.objective_batch(spec, prediction, targets, dictionary)
    assert abs(out.values[0] - row["value"]) <= GOLDEN_TOL
    assert set(out.grads) == set(row["grads"])
    for name, expected in row["grads"].items():
        expected = np.array(expected)
        if name == "deltas" and spec.per_bin and not spec.every_head:
            # the recorded (K, d) gradient is zero off the head the row reads
            head = int(np.argmax(row["prediction"]["logits"]))
            assert not np.any(np.delete(expected, head, axis=0))
            expected = expected[head]
        assert np.max(np.abs(out.grads[name][0] - expected)) <= GOLDEN_TOL
    assert bool(out.non_smooth[0]) == row["non_smooth"]


def test_golden_rows_cover_every_spec_and_edge():
    specs = {(r["family"], r["representation"]) for r in GOLDEN_ROWS if r["case"] == "random"}
    assert specs == {(s.family, s.representation) for s in gradcheck.default_specs()}
    assert {r["case"] for r in GOLDEN_ROWS} == {"random", "projection", "near_pi", "tie"}


def test_non_smooth_mask_is_per_row():
    y = np.array([[0.3, 0.1, 0.0], [0.3, 0.1, 0.0]])
    pred = np.array([[0.3, 0.1, 0.0], [0.9, 0.1, 0.0]])  # zero distance, then 0.6
    out = losses.objective_batch(losses.ObjectiveSpec("R_G"), pred, losses.TargetBatch(y=y))
    assert out.non_smooth.tolist() == [True, False]


def test_batch_shape_and_target_errors_are_family_mismatch():
    spec = losses.ObjectiveSpec("M_G")
    keys = dct.PoseDictionary(np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0]]), dct.AXIS_ANGLE)
    targets = losses.TargetBatch(y=np.zeros((2, 3)), label=np.array([0, 1]))
    with pytest.raises(losses.FamilyMismatch):  # per-row deltas for a shared-delta family
        losses.objective_batch(spec, (np.zeros((2, 2)), np.zeros((2, 2, 3))), targets, keys)
    with pytest.raises(losses.FamilyMismatch):  # three rows of predictions, two targets
        losses.objective_batch(spec, (np.zeros((3, 2)), np.zeros((3, 3))), targets, keys)
    with pytest.raises(losses.FamilyMismatch):
        losses.objective_batch(losses.ObjectiveSpec("R_G"), np.zeros(3), targets)


# ---------------------------------------------------------------------------
# row independence


def _random_rows(spec, b, k, rng):
    """B stacked predictions and targets plus a K-key dictionary, with
    poses on both sides of the pi ball and frequent logit ties."""

    def poses(n):
        if spec.representation == dct.AXIS_ANGLE:
            v = np.stack([random_axis_angle(rng) for _ in range(n)])
            return v * rng.choice([1.0, 1.0, 2.0], size=(n, 1))
        q = rng.standard_normal((n, 4))
        return np.stack([so3.canonical_quaternion(r / np.linalg.norm(r)) for r in q])

    y = poses(b)
    if spec.family in ("R_G", "R_E"):
        pred = poses(b) if spec.representation == dct.AXIS_ANGLE else rng.standard_normal((b, 4))
        return pred, losses.TargetBatch(y=y), None
    keys = poses(k)
    if spec.representation == dct.AXIS_ANGLE:
        keys = np.stack([so3.clip_axis_angle_norm(v) for v in keys])
    dictionary = dct.PoseDictionary(keys, spec.representation)
    if rng.random() < 0.5:
        logits = rng.integers(0, 3, size=(b, k)).astype(float)  # ties
    else:
        logits = rng.standard_normal((b, k))
    label = dct.hard_labels(y, dictionary)
    soft = rng.dirichlet(np.ones(k), size=b)
    targets = losses.TargetBatch(y=y, label=label, soft=soft)
    if spec.family == "C":
        return logits, targets, dictionary
    shape = (b, k, spec.pose_dim) if spec.per_bin else (b, spec.pose_dim)
    deltas = 0.4 * rng.standard_normal(shape)
    if spec.per_bin and not spec.every_head:
        deltas = _selected_heads(logits, deltas)
    return (logits, deltas), targets, dictionary


@settings(max_examples=150, deadline=None)
@given(
    spec_index=st.integers(0, len(gradcheck.default_specs()) - 1),
    b=st.integers(1, 5),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_rows_equal_one_row_calls(spec_index, b, k, seed):
    spec = gradcheck.default_specs()[spec_index]
    rng = np.random.default_rng(seed)
    prediction, targets, dictionary = _random_rows(spec, b, k, rng)
    batch = losses.objective_batch(spec, prediction, targets, dictionary)
    assert batch.values.shape == (b,) and batch.non_smooth.shape == (b,)
    for i in range(b):
        if isinstance(prediction, tuple):
            row_pred = (prediction[0][i : i + 1], prediction[1][i : i + 1])
        else:
            row_pred = prediction[i : i + 1]
        one = losses.objective_batch(spec, row_pred, targets.rows(slice(i, i + 1)), dictionary)
        tol = 1e-13 * max(1.0, abs(one.values[0]))
        assert abs(batch.values[i] - one.values[0]) <= tol
        for name, g in one.grads.items():
            assert np.allclose(batch.grads[name][i], g[0], rtol=1e-13, atol=1e-13)
        assert batch.non_smooth[i] == one.non_smooth[0]
    assert math.isfinite(float(batch.values.sum()))
