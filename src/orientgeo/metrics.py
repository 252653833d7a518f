"""Pose-estimation metrics: median angle error, accuracy at 30 degrees,
average precision with pose criteria (ARP, AVP), and detection analysis.

Matching rule, used identically by every detection metric: detections are
processed in descending score order (ties keep input order); each claims
the highest-IoU unmatched ground truth of its category with IoU > 0.5.  A
claimed ground truth is consumed whether or not the pose criterion holds,
so a pose-wrong detection both scores a false positive and blocks that
ground truth.  This makes ARP <= AP and nested-bin AVP monotonicity
structural rather than empirical.

Average precision integrates the area under the monotone (right-to-left
maximum) precision envelope, not the 11-point approximation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics

import numpy as np

from . import dictionary as dct
from . import so3

IOU_THRESHOLD = 0.5
ANGLE_THRESHOLD_DEG = 30.0


class EmptyCategory(ValueError):
    """A pose metric was asked for with no records to aggregate."""


def _check_box(box) -> tuple:
    x1, y1, x2, y2 = (float(v) for v in box)
    if not (x1 < x2 and y1 < y2):
        raise ValueError(f"box must satisfy x1 < x2 and y1 < y2, got {box}")
    return (x1, y1, x2, y2)


@dataclasses.dataclass(frozen=True, eq=False)
class EvalRecord:
    """One ground-truth/prediction pair, optionally with its boxes."""

    category: str
    r_true: so3.Rotation
    r_pred: so3.Rotation
    det: tuple | None = None  # ((x1, y1, x2, y2), score)
    gt_box: tuple | None = None

    def __post_init__(self):
        if self.det is not None:
            box, score = self.det
            object.__setattr__(self, "det", (_check_box(box), float(score)))
        if self.gt_box is not None:
            object.__setattr__(self, "gt_box", _check_box(self.gt_box))


@dataclasses.dataclass(frozen=True, eq=False)
class Detection:
    category: str
    box: tuple
    score: float
    rotation: so3.Rotation
    # wxyz of record, as parsed, when loaded from a file; keeps rewrites byte-stable
    quaternion: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "box", _check_box(self.box))


@dataclasses.dataclass(frozen=True, eq=False)
class GroundTruth:
    category: str
    box: tuple
    rotation: so3.Rotation
    quaternion: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "box", _check_box(self.box))


def iou(box_a, box_b):
    """IoU of each pair of boxes (..., 4), rows (x1, y1, x2, y2), leading
    axes broadcast.  Boxes that are disjoint or only touch score exactly 0."""
    a, b = np.asarray(box_a, dtype=float), np.asarray(box_b, dtype=float)
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return (inter / (area_a + area_b - inter))[()]


def angle_deg(r_true: so3.Rotation, r_pred: so3.Rotation) -> float:
    return math.degrees(so3.geodesic_distance(r_true, r_pred))


def _angles_deg(pairs) -> np.ndarray:
    """angle_deg of each (r_true, r_pred) pair, in one stacked call."""
    mats = np.reshape([(r_true.matrix, r_pred.matrix) for r_true, r_pred in pairs], (-1, 2, 3, 3))
    return np.degrees(so3.geodesic_distance_matrices(mats[:, 0], mats[:, 1]))


# ---------------------------------------------------------------------------
# paired pose metrics


def _per_category(records, stat):
    """stat of the angle errors of each category's records, in sorted
    category order, plus the mean over categories."""
    if not records:
        raise EmptyCategory("no records")
    cats = np.array([r.category for r in records])
    angles = _angles_deg([(r.r_true, r.r_pred) for r in records])
    per = {cat: float(stat(angles[cats == cat])) for cat in sorted(set(cats.tolist()))}
    return per, sum(per.values()) / len(per)


def med_err(records):
    """Median geodesic angle in degrees per category, plus the mean of those."""
    return _per_category(records, lambda a: statistics.median(a.tolist()))


def acc_pi6(records):
    """Fraction of records with angle error strictly below 30 degrees."""
    return _per_category(records, lambda a: np.count_nonzero(a < ANGLE_THRESHOLD_DEG) / a.size)


# ---------------------------------------------------------------------------
# detection matching + average precision


def match_detections(detections, ground_truths):
    """Greedy IoU matching; returns [(det_index, gt_index or None), ...]
    ordered by descending score (input order on ties).  Each detection
    takes one IoU row against its category's unclaimed ground truths; on
    equal IoU the lowest index wins (argmax takes the first maximum)."""
    pools = {}  # category -> (ground-truth indices, their boxes, unclaimed mask)
    for cat in {gt.category for gt in ground_truths}:
        idx = [j for j, gt in enumerate(ground_truths) if gt.category == cat]
        pools[cat] = (idx, np.array([ground_truths[j].box for j in idx]), np.ones(len(idx), dtype=bool))
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    pairs = []
    for i in order:
        best_j = None
        if detections[i].category in pools:
            idx, boxes, free = pools[detections[i].category]
            ov = np.where(free, iou(detections[i].box, boxes), 0.0)
            k = int(ov.argmax())
            if ov[k] > IOU_THRESHOLD:
                free[k] = False
                best_j = idx[k]
        pairs.append((i, best_j))
    return pairs


def _matched(detections, ground_truths):
    """match_detections as a mask over its pairs of those that claimed a
    ground truth, and the claimed (detection, ground truth) pairs in order."""
    pairs = match_detections(detections, ground_truths)
    hit = np.array([j is not None for _, j in pairs], dtype=bool)
    return hit, [(detections[i], ground_truths[j]) for i, j in pairs if j is not None]


def average_precision(tp_flags, n_gt) -> float:
    """Area under the monotone precision envelope of the PR curve."""
    if n_gt == 0 or len(tp_flags) == 0:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=float))
    fp = np.cumsum(1.0 - np.asarray(tp_flags, dtype=float))
    recall = tp / n_gt
    precision = tp / (tp + fp)
    mrec = np.concatenate([[0.0], recall])
    # right-to-left running maximum: the monotone envelope
    mpre = np.maximum.accumulate(np.concatenate([[1.0], precision])[::-1])[::-1]
    return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))


def _ap_with_criterion(detections, ground_truths, criterion) -> float:
    """AP whose true positives are the matched pairs that pass criterion,
    which maps the claimed pairs to one flag each."""
    hit, matched = _matched(detections, ground_truths)
    flags = np.zeros(len(hit))
    flags[hit] = criterion(matched)
    return average_precision(flags, len(ground_truths))


def ap(detections, ground_truths) -> float:
    """Plain box AP: any IoU > 0.5 match is a true positive."""
    return _ap_with_criterion(detections, ground_truths, lambda matched: True)


def arp(detections, ground_truths, theta_deg: float = ANGLE_THRESHOLD_DEG) -> float:
    """AP where a match must also have rotation error strictly below theta."""
    return _ap_with_criterion(
        detections, ground_truths,
        lambda matched: _angles_deg([(g.rotation, d.rotation) for d, g in matched]) < theta_deg,
    )


def azimuth_bin(rotation: so3.Rotation, k: int, offset_deg: float = 0.0) -> int:
    """Uniform azimuth bin over [0, 360): bin i covers [i*360/k, (i+1)*360/k)."""
    az = math.degrees(so3.rotation_to_euler(rotation).azimuth)
    return int(((az - offset_deg) % 360.0) / (360.0 / k))


def avp(detections, ground_truths, k: int, offset_deg: float = 0.0) -> float:
    """AP where a match must also land in the ground truth's azimuth bin.

    Records whose azimuth is undefined (gimbal lock) count pose-incorrect.
    """

    def same_bin(det, gt):
        try:
            return azimuth_bin(gt.rotation, k, offset_deg) == azimuth_bin(
                det.rotation, k, offset_deg
            )
        except so3.GimbalLock:
            return False

    return _ap_with_criterion(
        detections, ground_truths, lambda matched: [same_bin(det, gt) for det, gt in matched]
    )


@dataclasses.dataclass(frozen=True)
class DetectionAnalysis:
    frac_detected: float
    frac_correct: float
    pose_err_deg: float  # nan when nothing matched


def detection_analysis(detections, ground_truths) -> DetectionAnalysis:
    """%Detected, %Correct (angle < 30 deg), and median angle over matches."""
    if not ground_truths:
        return DetectionAnalysis(0.0, 0.0, float("nan"))
    matched = _matched(detections, ground_truths)[1]
    angles = _angles_deg([(gt.rotation, det.rotation) for det, gt in matched])
    n_gt = len(ground_truths)
    detected = angles.size / n_gt
    correct = np.count_nonzero(angles < ANGLE_THRESHOLD_DEG) / n_gt
    pose_err = statistics.median(angles.tolist()) if angles.size else float("nan")
    return DetectionAnalysis(detected, correct, pose_err)


def paired_records(detections, ground_truths):
    """EvalRecords for the matched pairs, for the paired pose metrics."""
    return [
        EvalRecord(det.category, gt.rotation, det.rotation, (det.box, det.score), gt.box)
        for det, gt in _matched(detections, ground_truths)[1]
    ]


# ---------------------------------------------------------------------------
# reports


@dataclasses.dataclass(frozen=True, eq=False)
class MetricReport:
    """Rows of metrics over category columns plus their mean."""

    metrics: tuple
    categories: tuple
    values: dict  # metric -> {category -> value}
    mean: dict  # metric -> value
    counts: dict  # category -> record count

    def __post_init__(self):
        for metric in self.metrics:
            for value in list(self.values[metric].values()) + [self.mean[metric]]:
                if math.isnan(value):
                    continue
                if metric.startswith(("Acc", "AP", "ARP", "AVP", "Frac")):
                    if not 0.0 <= value <= 1.0:
                        raise ValueError(f"{metric} outside [0, 1]: {value}")
                elif value < 0.0:
                    raise ValueError(f"{metric} negative: {value}")


def pose_report(records) -> MetricReport:
    med_per, med_mean = med_err(records)
    acc_per, acc_mean = acc_pi6(records)
    cats = tuple(sorted(med_per))
    counts = {cat: sum(rec.category == cat for rec in records) for cat in cats}
    return MetricReport(
        metrics=("MedErr", "Acc_pi6"),
        categories=cats,
        values={"MedErr": med_per, "Acc_pi6": acc_per},
        mean={"MedErr": med_mean, "Acc_pi6": acc_mean},
        counts=counts,
    )


def detection_report(detections, ground_truths, avp_bins=(4, 8, 16, 24)) -> MetricReport:
    cats = tuple(sorted({g.category for g in ground_truths}))
    if not cats:
        raise EmptyCategory("no ground truth")
    metrics = ["AP", "ARP", *[f"AVP_{k}" for k in avp_bins], "FracDetected", "FracCorrect", "PoseErr"]
    values = {m: {} for m in metrics}
    counts = {}
    for cat in cats:
        dets = [d for d in detections if d.category == cat]
        gts = [g for g in ground_truths if g.category == cat]
        counts[cat] = len(gts)
        values["AP"][cat] = ap(dets, gts)
        values["ARP"][cat] = arp(dets, gts)
        for k in avp_bins:
            values[f"AVP_{k}"][cat] = avp(dets, gts, k)
        analysis = detection_analysis(dets, gts)
        values["FracDetected"][cat] = analysis.frac_detected
        values["FracCorrect"][cat] = analysis.frac_correct
        values["PoseErr"][cat] = analysis.pose_err_deg
    mean = {m: sum(values[m].values()) / len(cats) for m in metrics}
    return MetricReport(tuple(metrics), cats, values, mean, counts)


def report_to_csv(report: MetricReport) -> str:
    lines = ["metric," + ",".join(report.categories) + ",Mean"]
    for metric in report.metrics:
        cells = [repr(report.values[metric][c]) for c in report.categories]
        cells.append(repr(report.mean[metric]))
        lines.append(metric + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def report_to_json(report: MetricReport) -> str:
    payload = {
        "categories": list(report.categories),
        "counts": report.counts,
        "metrics": {
            m: {"per_category": report.values[m], "mean": report.mean[m]}
            for m in report.metrics
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_report(report: MetricReport, csv_path, json_path) -> None:
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(report_to_csv(report))
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))


# ---------------------------------------------------------------------------
# record file IO
#
# Line format: category tag x1 y1 x2 y2 score q0 q1 q2 q3
# tag is "gt" or "det"; the score column on gt lines is written as 1.0 and
# ignored on read; rotations travel as canonical unit quaternions.


def write_records(path, detections, ground_truths) -> None:
    items = list(ground_truths) + list(detections)
    # the quaternion of record where one was read, else the rotation's, all
    # converted in one stacked call
    mats = [item.rotation.matrix for item in items if item.quaternion is None]
    converted = iter(so3.matrix_to_quaternion(np.stack(mats)) if mats else ())
    lines = []
    for item in items:
        q = next(converted) if item.quaternion is None else item.quaternion
        tag, score = ("gt", 1.0) if isinstance(item, GroundTruth) else ("det", item.score)
        cols = [item.category, tag] + [repr(float(v)) for v in item.box] + [repr(float(score))]
        lines.append(" ".join(cols + [repr(float(v)) for v in q]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_records(path):
    """Detections and ground truths of a records file.  Each keeps its
    quaternion as parsed, so write_records reproduces the file; its rotation
    is that of the normalized quaternion, as UnitQuaternion would store it."""
    heads, values = [], []  # (category, tag) and the nine numbers of each record
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            cols = line.split()
            if not cols or cols[0].startswith("#"):
                continue
            if len(cols) != 11 or cols[1] not in ("gt", "det"):
                raise ValueError(f"malformed record line: {line.strip()!r}")
            heads.append((cols[0], cols[1]))
            values.extend(float(v) for v in cols[2:])
    values = np.reshape(values, (-1, 9))
    quats = values[:, 5:]
    norms = np.linalg.norm(quats, axis=1)
    off_unit = ~(np.abs(norms - 1.0) <= 1e-6)  # also non-finite norms
    if off_unit.any():
        i = int(off_unit.argmax())
        raise ValueError(f"record {i + 1} ({' '.join(heads[i])}): quaternion norm {norms[i]:.6g} is not 1")
    quats.setflags(write=False)
    detections, ground_truths = [], []
    for (category, tag), v, q, m in zip(heads, values, quats, dct.pose_matrices(quats, dct.QUATERNION)):
        box, rotation = tuple(v[:4].tolist()), so3.Rotation(m)
        if tag == "gt":
            ground_truths.append(GroundTruth(category, box, rotation, q))
        else:
            detections.append(Detection(category, box, float(v[4]), rotation, q))
    return detections, ground_truths
