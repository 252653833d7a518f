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

Records travel as columns: RecordTable for detections or ground truths,
PoseRecords for pose pairs.  One Matching gives AP, ARP, every AVP, the
detection analysis and the paired records.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics

import numpy as np

from . import dictionary as dct
from . import _checks, so3

IOU_THRESHOLD = 0.5
ANGLE_THRESHOLD_DEG = 30.0
# IoU entries per table block: match_detections scores at most this many
# (detection, ground truth) pairs at once, which bounds its memory
_IOU_BLOCK = 1 << 13
# lines per write_records block, which bounds the Python objects it holds
_WRITE_BLOCK = 1 << 8


class EmptyCategory(ValueError):
    """A pose metric was asked for with no records to aggregate."""


def _checked_box(box, score=1.0) -> tuple:
    """box as a tuple of floats.  Raises ValueError unless the box entries
    and the score are real numbers (_checks.real: no string or bool) and
    x1 < x2 and y1 < y2.  Detection and GroundTruth check each box with it;
    read_records checks whole columns and raises through it for the first
    failing record."""
    if _checks.real(*box, score):
        x1, y1, x2, y2 = box = tuple(map(float, box))
        if x1 < x2 and y1 < y2:
            return box
    raise ValueError(f"box {tuple(box)} and score {score!r} must be finite, with x1 < x2 and y1 < y2")


@dataclasses.dataclass(frozen=True, eq=False, slots=True)
class Detection:
    """One detection; every metric turns a list of these into a RecordTable."""

    category: str
    box: tuple
    score: float
    rotation: so3.Rotation

    def __post_init__(self):
        object.__setattr__(self, "box", _checked_box(self.box, self.score))


@dataclasses.dataclass(frozen=True, eq=False, slots=True)
class GroundTruth:
    """One ground truth; see Detection."""

    category: str
    box: tuple
    rotation: so3.Rotation

    def __post_init__(self):
        object.__setattr__(self, "box", _checked_box(self.box))


@dataclasses.dataclass(frozen=True, eq=False)
class RecordTable:
    """Detections or ground truths as columns, one row each: category (n,),
    box (n, 4), score (n,) (ones for ground truths, as records files write
    them), rotation (n, 3, 3), and quaternion (n, 4), the wxyz of record as
    read from a file (None otherwise), which keeps rewrites byte-stable."""

    category: np.ndarray
    box: np.ndarray
    score: np.ndarray
    rotation: np.ndarray
    quaternion: np.ndarray = None

    def __len__(self) -> int:
        return len(self.category)

    def take(self, rows) -> "RecordTable":
        """The rows that `rows` (a mask or indices) selects, in order."""
        q = None if self.quaternion is None else self.quaternion[rows]
        return RecordTable(self.category[rows], self.box[rows], self.score[rows], self.rotation[rows], q)


def _table(items) -> RecordTable:
    """items as columns: a RecordTable as it is, or a sequence of Detection
    or GroundTruth objects."""
    if isinstance(items, RecordTable):
        return items
    items = list(items)
    return RecordTable(
        np.array([x.category for x in items], dtype=str),
        np.array([x.box for x in items], dtype=float).reshape(-1, 4),
        np.array([getattr(x, "score", 1.0) for x in items], dtype=float),
        np.array([x.rotation.matrix for x in items], dtype=float).reshape(-1, 3, 3),
    )


@dataclasses.dataclass(frozen=True, eq=False)
class PoseRecords:
    """Ground-truth/prediction pose pairs as columns: category (n,),
    r_true (n, 3, 3), r_pred (n, 3, 3)."""

    category: np.ndarray
    r_true: np.ndarray
    r_pred: np.ndarray

    def __len__(self) -> int:
        return len(self.category)


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


def _angles_deg(records: PoseRecords) -> np.ndarray:
    """Geodesic angle in degrees of each pair, in one stacked call."""
    return np.degrees(so3.geodesic_distance_matrices(records.r_true, records.r_pred))


def _azimuths_deg(m: np.ndarray):
    """Azimuth in degrees over [0, 360] of each rotation (..., 3, 3), as
    math.degrees(EulerZXZ(*matrix_to_euler(r)[0]).azimuth) % 360 gives it
    (360 for an azimuth a hair below 0), and the mask (...,) of rows in
    gimbal lock, whose azimuth is undefined."""
    angles, locked = so3.matrix_to_euler(m)
    return np.degrees(so3.wrap_angles(angles[..., 0])) % 360.0, locked


def _azimuth_bins(azimuth_deg: np.ndarray, k: int) -> np.ndarray:
    """Bin i of k covers [i*360/k, (i+1)*360/k); 360 is 0, in bin 0."""
    return (azimuth_deg / (360.0 / k)).astype(int) % k


# ---------------------------------------------------------------------------
# paired pose metrics


def _per_category(records: PoseRecords, stat):
    """stat of the angle errors of each category's records, in sorted
    category order, plus the mean over categories."""
    if not len(records):
        raise EmptyCategory("no records")
    angles = _angles_deg(records)
    per = {cat: float(stat(angles[records.category == cat]))
           for cat in sorted(set(records.category.tolist()))}
    return per, sum(per.values()) / len(per)


def med_err(records: PoseRecords):
    """Median geodesic angle in degrees per category, plus the mean of those."""
    return _per_category(records, lambda a: statistics.median(a.tolist()))


def acc_pi6(records: PoseRecords):
    """Fraction of records with angle error strictly below 30 degrees."""
    return _per_category(records, lambda a: np.count_nonzero(a < ANGLE_THRESHOLD_DEG) / a.size)


# ---------------------------------------------------------------------------
# detection matching + average precision


def match_detections(detections, ground_truths):
    """Greedy IoU matching; returns [(det_index, gt_index or None), ...]
    ordered by descending score (input order on ties).  Each category's
    detections x ground truths IoU table is scored in blocks of at most
    _IOU_BLOCK entries, keeping each detection's candidates (IoU > 0.5)
    best first, lowest index on equal IoU.  Each detection then claims its
    first unclaimed candidate: the highest-IoU unclaimed ground truth."""
    dets, gts = _table(detections), _table(ground_truths)
    candidates = [[] for _ in range(len(dets))]
    for cat in set(gts.category.tolist()):
        gt_idx = np.flatnonzero(gts.category == cat)
        det_idx = np.flatnonzero(dets.category == cat)
        step = max(1, _IOU_BLOCK // gt_idx.size)
        for start in range(0, det_idx.size, step):
            block = det_idx[start : start + step]
            table = iou(dets.box[block, None], gts.box[gt_idx])
            d, g = np.nonzero(table > IOU_THRESHOLD)
            order = np.lexsort((g, -table[d, g], d))
            for i, j in zip(block[d[order]].tolist(), gt_idx[g[order]].tolist()):
                candidates[i].append(j)
    claimed, pairs = set(), []
    for i in np.argsort(-dets.score, kind="stable").tolist():
        best_j = next((j for j in candidates[i] if j not in claimed), None)
        if best_j is not None:
            claimed.add(best_j)
        pairs.append((i, best_j))
    return pairs


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


@dataclasses.dataclass(frozen=True)
class DetectionAnalysis:
    frac_detected: float
    frac_correct: float
    pose_err_deg: float  # nan when nothing matched


class Matching:
    """One match_detections result, and every metric read from it.

    `hit` (D,) marks in rank order the detections that claimed a ground
    truth; `pairs` holds the claimed pairs as PoseRecords (the ground
    truth's rotation as r_true), `angles` their errors in degrees.  A pose
    criterion is a mask over the claimed pairs.
    """

    def __init__(self, detections, ground_truths):
        dets, gts = _table(detections), _table(ground_truths)
        pairs = match_detections(dets, gts)
        det_i, gt_j = np.array([p for p in pairs if p[1] is not None], dtype=int).reshape(-1, 2).T
        self.hit = np.array([j is not None for _, j in pairs], dtype=bool)
        self.n_gt = len(gts)
        self.pairs = PoseRecords(gts.category[gt_j], gts.rotation[gt_j], dets.rotation[det_i])
        self.angles = _angles_deg(self.pairs)
        # one stacked Euler extraction serves the AVP of every bin count
        azimuth, locked = _azimuths_deg(np.concatenate([self.pairs.r_true, self.pairs.r_pred]))
        self._azimuth, self._locked = azimuth.reshape(2, -1), locked.reshape(2, -1).any(axis=0)

    def ap(self, correct=True) -> float:
        """AP whose true positives are the claimed pairs that `correct`
        accepts; by default all of them, which is plain box AP."""
        flags = np.zeros(self.hit.size)
        flags[self.hit] = correct
        return average_precision(flags, self.n_gt)

    def arp(self) -> float:
        """AP where a match must also have rotation error strictly below 30
        degrees."""
        return self.ap(self.angles < ANGLE_THRESHOLD_DEG)

    def avp(self, k: int) -> float:
        """AP where a match must also land in the ground truth's azimuth bin,
        of k; a pair with either pose in gimbal lock is pose-incorrect."""
        bins = _azimuth_bins(self._azimuth, k)
        return self.ap((bins[0] == bins[1]) & ~self._locked)

    def analysis(self) -> DetectionAnalysis:
        """%Detected, %Correct (angle < 30 deg), and median angle over matches."""
        if self.n_gt == 0:
            return DetectionAnalysis(0.0, 0.0, float("nan"))
        a = self.angles
        return DetectionAnalysis(
            a.size / self.n_gt,
            float(np.count_nonzero(a < ANGLE_THRESHOLD_DEG) / self.n_gt),
            statistics.median(a.tolist()) if a.size else float("nan"),
        )


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


def pose_report(records: PoseRecords) -> MetricReport:
    med_per, med_mean = med_err(records)
    acc_per, acc_mean = acc_pi6(records)
    cats = tuple(sorted(med_per))
    return MetricReport(
        metrics=("MedErr", "Acc_pi6"),
        categories=cats,
        values={"MedErr": med_per, "Acc_pi6": acc_per},
        mean={"MedErr": med_mean, "Acc_pi6": acc_mean},
        counts={cat: int(np.count_nonzero(records.category == cat)) for cat in cats},
    )


AVP_BINS = (4, 8, 16, 24)


def detection_report(detections, ground_truths) -> MetricReport:
    """AP, ARP, AVP at each of AVP_BINS and the detection analysis per
    ground-truth category, from one matching of each category."""
    dets, gts = _table(detections), _table(ground_truths)
    cats = tuple(sorted(set(gts.category.tolist())))
    if not cats:
        raise EmptyCategory("no ground truth")
    metrics = ["AP", "ARP", *[f"AVP_{k}" for k in AVP_BINS], "FracDetected", "FracCorrect", "PoseErr"]
    values = {m: {} for m in metrics}
    counts = {}
    for cat in cats:
        matching = Matching(dets.take(dets.category == cat), gts.take(gts.category == cat))
        counts[cat] = matching.n_gt
        analysis = matching.analysis()
        row = [matching.ap(), matching.arp(), *[matching.avp(k) for k in AVP_BINS],
               analysis.frac_detected, analysis.frac_correct, analysis.pose_err_deg]
        for metric, value in zip(metrics, row):
            values[metric][cat] = value
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
    """Ground truths, then detections, one line each.  A table read from a
    file writes its quaternions of record; other rotations are converted in
    one stacked call.  ValueError, before the file opens, on a category
    read_records would not read back: empty, with whitespace, or "#...".
    Rows are formatted and written _WRITE_BLOCK at a time, so the text of
    the whole file is never held."""
    tables = []  # (categories, tag, the (n, 9) numbers of each line)
    for table, tag in ((_table(ground_truths), "gt"), (_table(detections), "det")):
        for cat in set(table.category.tolist()):
            if cat.split() != [cat] or cat[0] == "#":
                raise ValueError(f"category {cat!r} would not read back from a records file")
        q = so3.matrix_to_quaternion(table.rotation) if table.quaternion is None else table.quaternion
        tables.append((table.category, tag, np.concatenate([table.box, table.score[:, None], q], axis=1)))
    with open(path, "w", encoding="utf-8") as fh:
        for cats, tag, numbers in tables:
            for s in range(0, len(cats), _WRITE_BLOCK):
                rows = zip(cats[s : s + _WRITE_BLOCK].tolist(), numbers[s : s + _WRITE_BLOCK].tolist())
                fh.write("".join(" ".join([cat, tag, *map(repr, row)]) + "\n" for cat, row in rows))
        if not any(len(cats) for cats, _, _ in tables):
            fh.write("\n")  # a file of no records is one empty line


def _check_boxes(tags, values):
    """The (n, 9) numbers, the scores (ones on gt lines) and the gt mask of
    the records read so far, after one check of every box and score; the
    first failing record raises _checked_box's error, as if each record had
    been checked in turn."""
    is_gt = np.array(tags, dtype=str) == "gt"
    values = np.reshape(values, (-1, 9))
    box, score = values[:, :4], np.where(is_gt, 1.0, values[:, 4])
    ok = np.isfinite(box).all(axis=1) & np.isfinite(score)
    ok &= (box[:, 0] < box[:, 2]) & (box[:, 1] < box[:, 3])
    if not ok.all():
        i = int(ok.argmin())
        _checked_box(box[i].tolist(), float(score[i]))
    return values, score, is_gt


def read_records(path):
    """(detections, ground_truths) of a records file, as RecordTables.  They
    keep the quaternions as parsed, so write_records reproduces the file;
    the rotations are those of the normalized quaternions, as UnitQuaternion
    would store them, checked as so3.Rotation checks one."""
    cats, tags, values = [], [], []  # the nine numbers of each record
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                cols = line.split()
                if not cols or cols[0].startswith("#"):
                    continue
                if len(cols) != 11 or cols[1] not in ("gt", "det"):
                    raise ValueError(f"malformed record line: {line.strip()!r}")
                try:
                    numbers = list(map(float, cols[2:]))
                except ValueError as exc:
                    raise ValueError(f"malformed record line: {line.strip()!r}") from exc
                cats.append(cols[0])
                tags.append(cols[1])
                values.extend(numbers)
    except ValueError:  # also a UnicodeDecodeError: a bad box on an earlier line comes first
        _check_boxes(tags, values)
        raise
    values, score, is_gt = _check_boxes(tags, values)
    quats = values[:, 5:]
    norms = np.linalg.norm(quats, axis=1)
    off_unit = ~(np.abs(norms - 1.0) <= 1e-6)  # also non-finite norms
    if off_unit.any():
        i = int(off_unit.argmax())
        raise ValueError(f"record {i + 1} ({cats[i]} {tags[i]}): "
                         f"quaternion norm {norms[i]:.6g} is not 1")
    table = RecordTable(np.array(cats, dtype=str), values[:, :4], score,
                        so3.check_rotations(dct.pose_matrices(quats, dct.QUATERNION)), quats)
    return table.take(~is_gt), table.take(is_gt)
