"""Pure-Python oracles of the detection metrics, shared by the tests: the
IoU of one pair of boxes, the greedy matching rule as a double loop, and
exact-rational average precision."""

from fractions import Fraction

from orientgeo import metrics


def iou_scalar(box_a, box_b):
    """IoU of one pair of boxes in Python floats: the reference the row-wise
    iou must equal bit for bit."""
    ax1, ay1, ax2, ay2 = box_a
    bx1, by1, bx2, by2 = box_b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def match_loop(detections, ground_truths):
    """match_detections as a double loop over every (detection, ground
    truth) pair: in rank order, each detection claims the unclaimed ground
    truth of its category with the highest IoU above the threshold."""
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    taken = [False] * len(ground_truths)
    pairs = []
    for i in order:
        det = detections[i]
        best_j, best_iou = None, metrics.IOU_THRESHOLD
        for j, gt in enumerate(ground_truths):
            if taken[j] or gt.category != det.category:
                continue
            ov = iou_scalar(det.box, gt.box)
            if ov > best_iou:
                best_j, best_iou = j, ov
        if best_j is not None:
            taken[best_j] = True
        pairs.append((i, best_j))
    return pairs


def oracle_ap(tp_flags, n_gt):
    """Exact rational AP: suffix max over per-TP precisions."""
    if n_gt == 0:
        return 0.0
    tp_positions = [i + 1 for i, f in enumerate(tp_flags) if f]
    total = Fraction(0)
    for i in range(len(tp_positions)):
        total += max(Fraction(j + 1, tp_positions[j]) for j in range(i, len(tp_positions)))
    return float(total / n_gt)
