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
    # quaternion of record when loaded from a file; keeps rewrites byte-stable
    quaternion: so3.UnitQuaternion = None

    def __post_init__(self):
        object.__setattr__(self, "box", _check_box(self.box))


@dataclasses.dataclass(frozen=True, eq=False)
class GroundTruth:
    category: str
    box: tuple
    rotation: so3.Rotation
    quaternion: so3.UnitQuaternion = None

    def __post_init__(self):
        object.__setattr__(self, "box", _check_box(self.box))


def iou(box_a, box_b) -> float:
    ax1, ay1, ax2, ay2 = box_a
    bx1, by1, bx2, by2 = box_b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def angle_deg(r_true: so3.Rotation, r_pred: so3.Rotation) -> float:
    return math.degrees(so3.geodesic_distance(r_true, r_pred))


# ---------------------------------------------------------------------------
# paired pose metrics


def _group(records):
    by_cat = {}
    for rec in records:
        by_cat.setdefault(rec.category, []).append(rec)
    if not by_cat:
        raise EmptyCategory("no records")
    return by_cat


def med_err(records):
    """Median geodesic angle in degrees per category, plus the mean of those."""
    by_cat = _group(records)
    per = {
        cat: statistics.median(angle_deg(r.r_true, r.r_pred) for r in recs)
        for cat, recs in sorted(by_cat.items())
    }
    return per, sum(per.values()) / len(per)


def acc_pi6(records):
    """Fraction of records with angle error strictly below 30 degrees."""
    by_cat = _group(records)
    per = {}
    for cat, recs in sorted(by_cat.items()):
        hits = sum(1 for r in recs if angle_deg(r.r_true, r.r_pred) < ANGLE_THRESHOLD_DEG)
        per[cat] = hits / len(recs)
    return per, sum(per.values()) / len(per)


# ---------------------------------------------------------------------------
# detection matching + average precision


def match_detections(detections, ground_truths):
    """Greedy IoU matching; returns [(det_index, gt_index or None), ...]
    ordered by descending score (input order on ties)."""
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    taken = [False] * len(ground_truths)
    pairs = []
    for i in order:
        det = detections[i]
        best_j, best_iou = None, IOU_THRESHOLD
        for j, gt in enumerate(ground_truths):
            if taken[j] or gt.category != det.category:
                continue
            ov = iou(det.box, gt.box)
            if ov > best_iou:
                best_j, best_iou = j, ov
        if best_j is not None:
            taken[best_j] = True
        pairs.append((i, best_j))
    return pairs


def average_precision(tp_flags, n_gt) -> float:
    """Area under the monotone precision envelope of the PR curve."""
    if n_gt == 0 or not tp_flags:
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
    pairs = match_detections(detections, ground_truths)
    flags = []
    for i, j in pairs:
        ok = j is not None and criterion(detections[i], ground_truths[j])
        flags.append(1.0 if ok else 0.0)
    return average_precision(flags, len(ground_truths))


def ap(detections, ground_truths) -> float:
    """Plain box AP: any IoU > 0.5 match is a true positive."""
    return _ap_with_criterion(detections, ground_truths, lambda d, g: True)


def arp(detections, ground_truths, theta_deg: float = ANGLE_THRESHOLD_DEG) -> float:
    """AP where a match must also have rotation error strictly below theta."""

    def criterion(det, gt):
        return angle_deg(gt.rotation, det.rotation) < theta_deg

    return _ap_with_criterion(detections, ground_truths, criterion)


def azimuth_bin(rotation: so3.Rotation, k: int, offset_deg: float = 0.0) -> int:
    """Uniform azimuth bin over [0, 360): bin i covers [i*360/k, (i+1)*360/k)."""
    az = math.degrees(so3.rotation_to_euler(rotation).azimuth)
    return int(((az - offset_deg) % 360.0) / (360.0 / k))


def avp(detections, ground_truths, k: int, offset_deg: float = 0.0) -> float:
    """AP where a match must also land in the ground truth's azimuth bin.

    Records whose azimuth is undefined (gimbal lock) count pose-incorrect.
    """

    def criterion(det, gt):
        try:
            return azimuth_bin(gt.rotation, k, offset_deg) == azimuth_bin(
                det.rotation, k, offset_deg
            )
        except so3.GimbalLock:
            return False

    return _ap_with_criterion(detections, ground_truths, criterion)


@dataclasses.dataclass(frozen=True)
class DetectionAnalysis:
    frac_detected: float
    frac_correct: float
    pose_err_deg: float  # nan when nothing matched


def detection_analysis(detections, ground_truths) -> DetectionAnalysis:
    """%Detected, %Correct (angle < 30 deg), and median angle over matches."""
    if not ground_truths:
        return DetectionAnalysis(0.0, 0.0, float("nan"))
    pairs = match_detections(detections, ground_truths)
    angles = [
        angle_deg(ground_truths[j].rotation, detections[i].rotation)
        for i, j in pairs
        if j is not None
    ]
    n_gt = len(ground_truths)
    detected = len(angles) / n_gt
    correct = sum(1 for a in angles if a < ANGLE_THRESHOLD_DEG) / n_gt
    pose_err = statistics.median(angles) if angles else float("nan")
    return DetectionAnalysis(detected, correct, pose_err)


def paired_records(detections, ground_truths):
    """EvalRecords for the matched pairs, for the paired pose metrics."""
    pairs = match_detections(detections, ground_truths)
    out = []
    for i, j in pairs:
        if j is None:
            continue
        det, gt = detections[i], ground_truths[j]
        out.append(
            EvalRecord(
                category=det.category,
                r_true=gt.rotation,
                r_pred=det.rotation,
                det=(det.box, det.score),
                gt_box=gt.box,
            )
        )
    return out


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
    counts = {cat: 0 for cat in cats}
    for rec in records:
        counts[rec.category] += 1
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


def _rotation_from_fields(fields):
    q = np.array([float(v) for v in fields])
    return so3.UnitQuaternion(q)


def write_records(path, detections, ground_truths) -> None:
    items = list(ground_truths) + list(detections)
    # the quaternion of record where one was read, else the rotation's, all
    # converted in one stacked call
    mats = [item.rotation.matrix for item in items if item.quaternion is None]
    converted = iter(so3.matrix_to_quaternion(np.stack(mats)) if mats else ())
    lines = []
    for item in items:
        q = next(converted) if item.quaternion is None else item.quaternion.wxyz
        tag, score = ("gt", 1.0) if isinstance(item, GroundTruth) else ("det", item.score)
        cols = [item.category, tag] + [repr(float(v)) for v in item.box] + [repr(float(score))]
        lines.append(" ".join(cols + [repr(float(v)) for v in q]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_records(path):
    detections, ground_truths = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cols = line.split()
            if len(cols) != 11:
                raise ValueError(f"malformed record line: {line!r}")
            category, tag = cols[0], cols[1]
            box = tuple(float(v) for v in cols[2:6])
            score = float(cols[6])
            quat = _rotation_from_fields(cols[7:11])
            rotation = so3.quaternion_to_rotation(quat)
            if tag == "gt":
                ground_truths.append(GroundTruth(category, box, rotation, quat))
            elif tag == "det":
                detections.append(Detection(category, box, score, rotation, quat))
            else:
                raise ValueError(f"unknown record tag {tag!r}")
    return detections, ground_truths
