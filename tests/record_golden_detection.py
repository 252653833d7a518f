"""Record the golden detection fixture that tests/test_metrics.py checks
metrics.detection_report and `orient-geo eval` against.

The values were recorded with commit 60b4522, which kept one object per
detection and ground truth, matched each category once per metric and
binned azimuths one pose at a time.  They pin the columnar metrics to that
reference.  To re-record, put that commit's src on the path:

    PYTHONPATH=<checkout of 60b4522>/src:tests \
        python tests/record_golden_detection.py tests/golden_detection.json

The seeded set has four categories.  Scores come from five levels, so ties
are common.  Each category holds pairs of ground truths whose boxes overlap
so that one detection has IoU > 0.5 with both, duplicate detections, false
positives at empty sites, and pose errors on both sides of 30 degrees.
Detections labelled with a neighbouring category sit on ground-truth boxes;
"boat" gets only those, so its pose cells have nothing matched.  Poses
include exact azimuth bin edges (exact quarter turns), azimuths next to
+-180 degrees, and one matched pair in gimbal lock.  The fixture keeps
every report cell, means included, as the repr of its float value (the
value, not its numpy or Python type, is pinned), the counts, and the eval
stdout on the set written as a records file.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from orientgeo import cli, metrics, so3

from so3_helpers import rot_z

SEED = 31
CATEGORIES = ("bike", "car", "chair", "boat")
GT_PER_CATEGORY = 12
SCORE_LEVELS = (0.2, 0.4, 0.6, 0.8, 1.0)
EVAL_ARGS = ["--metric", "med,acc,arp,avp", "--bins", "8"]
# exact quarter turns about z: azimuths 0, 90, 180 and 270 degrees
QUARTER_TURN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
QUARTER_TURNS = [np.linalg.matrix_power(QUARTER_TURN, n) for n in range(4)]


def _rot_x(a):
    """Rotation by a about the x axis."""
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _pose(rng, kind):
    """A ground-truth rotation of the given kind."""
    if kind == "edge":  # Rz(ct) Rx(el) Rz(az) with an exact quarter-turn az
        el, ct = rng.uniform(0.3, 2.8), rng.uniform(-math.pi, math.pi)
        m = rot_z(ct) @ _rot_x(el) @ QUARTER_TURNS[int(rng.integers(4))]
    elif kind == "pi":  # azimuth within 1e-12 rad of +-pi
        az = math.pi * rng.choice([-1.0, 1.0]) - rng.uniform(-1e-12, 1e-12)
        m = so3.euler_to_matrix([az, rng.uniform(0.3, 2.8), rng.uniform(-math.pi, math.pi)])
    elif kind == "gimbal":
        m = rot_z(rng.uniform(-math.pi, math.pi))
    else:
        return so3.random_rotation(rng)
    return so3.Rotation(m)


def _near(rng, rotation, gimbal=False):
    """A predicted rotation: the ground truth turned by an angle that lands
    on either side of 30 degrees, kept in gimbal lock for a gimbal pose."""
    angle = rng.choice([rng.uniform(0.0, 25.0), rng.uniform(35.0, 120.0)])
    if gimbal:
        return so3.Rotation(rot_z(math.radians(angle)) @ rotation.matrix)
    axis = rng.standard_normal(3)
    turn = so3.rodrigues(axis / np.linalg.norm(axis) * math.radians(angle))
    return so3.Rotation(rotation.matrix @ turn)


def _shift(rng, box, frac):
    dx, dy = rng.uniform(-frac, frac, size=2) * 10.0
    return (box[0] + dx, box[1] + dy, box[2] + dx, box[3] + dy)


def detection_set():
    """(detections, ground_truths) of the golden set, as lists of one-row
    objects."""
    rng = np.random.default_rng(SEED)
    dets, gts = [], []
    score = lambda: float(rng.choice(SCORE_LEVELS))  # noqa: E731
    kinds = ["random"] * 6 + ["edge"] * 3 + ["pi"] * 3
    for c, cat in enumerate(CATEGORIES):
        y = 100.0 * c
        for g in range(GT_PER_CATEGORY):
            if g % 4 == 1:  # the partner of the previous box, 2 units right: IoU 2/3
                box = (gts[-1].box[0] + 2.0, y, gts[-1].box[2] + 2.0, y + 10.0)
            else:
                box = (30.0 * g, y, 30.0 * g + 10.0, y + 10.0)
            gimbal = cat == "bike" and g == 0
            rotation = _pose(rng, "gimbal" if gimbal else str(rng.choice(kinds)))
            gts.append(metrics.GroundTruth(cat, box, rotation))
            if cat == "boat" or (not gimbal and rng.random() < 0.15):
                continue  # missed
            if g % 4 == 1:  # between the pair: IoU > 0.5 with both
                det_box = (box[0] - 1.0, y, box[2] - 1.0, y + 10.0)
            else:
                det_box = _shift(rng, box, 0.1)
            dets.append(metrics.Detection(cat, det_box, score(), _near(rng, rotation, gimbal)))
            if rng.random() < 0.3:  # duplicate
                dets.append(metrics.Detection(cat, _shift(rng, box, 0.15), score(),
                                              _near(rng, rotation)))
        for k in range(3):  # false positives at empty sites
            x = 30.0 * (GT_PER_CATEGORY + k)
            dets.append(metrics.Detection(cat, (x, y, x + 10.0, y + 10.0), score(),
                                          so3.random_rotation(rng)))
    for j in rng.choice(len(gts), size=8, replace=False):  # wrong category
        other = CATEGORIES[(CATEGORIES.index(gts[j].category) + 1) % len(CATEGORIES)]
        dets.append(metrics.Detection(other, _shift(rng, gts[j].box, 0.05), score(),
                                      gts[j].rotation))
    order = rng.permutation(len(dets))
    return [dets[i] for i in order], gts


def eval_stdout(dets, gts):
    """`orient-geo eval` stdout on the set written as a records file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.txt")
        metrics.write_records(path, dets, gts)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["eval", "--records", path] + EVAL_ARGS)
    if rc != 0:
        raise RuntimeError(f"eval exited {rc}")
    return out.getvalue()


def report_cells(report):
    """{metric: {category or "Mean": repr of the float value}}."""
    return {
        m: {**{c: repr(float(v)) for c, v in report.values[m].items()},
            "Mean": repr(float(report.mean[m]))}
        for m in report.metrics
    }


def golden_doc():
    dets, gts = detection_set()
    report = metrics.detection_report(dets, gts)
    return {
        "metrics": list(report.metrics),
        "cells": report_cells(report),
        "counts": report.counts,
        "eval_stdout": eval_stdout(dets, gts),
    }


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(golden_doc(), fh, indent=1, sort_keys=True)
        fh.write("\n")
