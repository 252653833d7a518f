"""Seeded detection records for the `tools` workload, with the eval output
they must produce worked out from their construction.

Each category gets a row of ground-truth sites.  A fixed share of the
ground truths is missed; the rest get one true detection whose box is a
small shift of the ground-truth box.  The file also holds duplicates of
true detections (same site, lower or tied score, later in the file), false
positives at empty sites, detections labelled with the wrong category, and
pairs of same-category ground truths whose boxes overlap so that each of
their detections has IoU > 0.5 with both.  Scores come from 20 levels, so
ties are common.  Poses stay clear of the 30 degree threshold, the
azimuth-bin edges and gimbal lock, so the expected values do not depend
on rounding.

By construction every true detection claims its own ground truth and every
other detection is a false positive.  `generate` scores that matching
with its own numpy code (quaternion angles, its own AP sum), so its result
is a reference independent of `orientgeo.metrics`.
"""

import math

import numpy as np

from orientgeo import metrics, so3

SITE_PITCH = 400.0  # sites never overlap across this spacing
SCORE_LEVELS = 20
MISS_FRAC = 0.1
DUP_FRAC = 0.15
EMPTY_FP_FRAC = 0.1
WRONG_CAT_FRAC = 0.1
PAIR_FRAC = 0.1  # share of sites that hold an overlapping ground-truth pair
AVP_BINS = 8
ANGLE_MARGIN_DEG = 0.1
AZIMUTH_MARGIN_DEG = 0.5
MED_TOL_DEG = 1e-6
FRAC_TOL = 1e-12
EVAL_METRICS = "med,acc,arp,avp"


def _quat(euler_deg):
    az, el, ct = (math.radians(v) for v in euler_deg)
    return so3.rotation_to_quaternion(so3.euler_to_rotation(so3.EulerZXZ(az, el, ct))).wxyz


def _angle_deg(qa, qb):
    return math.degrees(2.0 * math.acos(min(1.0, abs(float(np.dot(qa, qb))))))


def _bin(az_deg):
    return int((az_deg % 360.0) // (360.0 / AVP_BINS))


def _near_bin_edge(az_deg):
    width = 360.0 / AVP_BINS
    r = (az_deg % 360.0) % width
    return min(r, width - r) < AZIMUTH_MARGIN_DEG


def _gt_euler(rng):
    while True:
        e = (rng.uniform(-180.0, 180.0), rng.uniform(30.0, 150.0), rng.uniform(-180.0, 180.0))
        if not _near_bin_edge(e[0]):
            return e


def _det_euler(rng, gt_euler, q_gt):
    """A predicted pose near the ground truth, clear of every threshold."""
    while True:
        spread = rng.choice([8.0, 20.0, 45.0])
        e = (
            gt_euler[0] + rng.normal(scale=spread),
            float(np.clip(gt_euler[1] + rng.normal(scale=spread / 2), 20.0, 160.0)),
            gt_euler[2] + rng.normal(scale=spread),
        )
        q = _quat(e)
        angle = _angle_deg(q_gt, q)
        if not _near_bin_edge(e[0]) and abs(angle - metrics.ANGLE_THRESHOLD_DEG) >= ANGLE_MARGIN_DEG:
            return e, q


def _shift(box, frac, rng):
    x1, y1, x2, y2 = box
    w, h = x2 - x1, y2 - y1
    dx, dy = rng.uniform(-frac, frac, size=2)
    return (x1 + dx * w, y1 + dy * h, x2 + dx * w, y2 + dy * h)


def _rotation(q):
    return so3.quaternion_to_rotation(so3.UnitQuaternion(q))


def generate(path, seed, categories=12, per_category=200):
    """Write a records file and return the eval lines it must produce."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 7]))
    names = [f"cat{c:02d}" for c in range(categories)]
    gts, dets = [], []  # dets: dict(cat, box, score, q, gt (global index or None), euler)
    truth = []  # per ground truth: category, quaternion, euler
    n_pairs = int(PAIR_FRAC * per_category) // 2 * 2
    for c, name in enumerate(names):
        base_y = c * SITE_PITCH
        missed = set(rng.permutation(per_category)[: int(MISS_FRAC * per_category)].tolist())
        for g in range(per_category):
            w, h = rng.uniform(40.0, 100.0, size=2)
            if g < n_pairs and g % 2:
                # the odd member of a pair: its partner's box moved right by
                # 20% of the width, IoU 2/3 with the partner
                px1, _, px2, _ = gts[-1].box
                w, h = px2 - px1, gts[-1].box[3] - gts[-1].box[1]
                x = px1 + 0.2 * w
            else:
                x = (g // 2 if g < n_pairs else n_pairs // 2 + g - n_pairs) * SITE_PITCH
            box = (x, base_y, x + w, base_y + h)
            e_gt = _gt_euler(rng)
            q_gt = _quat(e_gt)
            gts.append(metrics.GroundTruth(name, box, _rotation(q_gt)))
            truth.append((name, q_gt, e_gt))
            if g in missed:
                continue
            e, q = _det_euler(rng, e_gt, q_gt)
            if g < n_pairs:
                # 3% of the width toward the partner keeps IoU > 0.5 with both
                dx = (0.03 if g % 2 == 0 else -0.03) * w
                det_box = (box[0] + dx, box[1], box[2] + dx, box[3])
            else:
                det_box = _shift(box, 0.03, rng)
            score = int(rng.integers(1, SCORE_LEVELS + 1))
            dets.append(dict(cat=name, box=det_box, score=score, q=q, gt=len(gts) - 1, e=e))
            if g >= n_pairs and rng.random() < DUP_FRAC:
                e2, q2 = _det_euler(rng, e_gt, q_gt)
                dup_score = int(rng.integers(1, score + 1))
                dets.append(dict(cat=name, box=_shift(box, 0.1, rng), score=dup_score,
                                 q=q2, gt=None, e=e2, after=len(dets) - 1))
        sites = n_pairs // 2 + per_category - n_pairs
        for k in range(int(EMPTY_FP_FRAC * per_category)):
            x = (sites + k) * SITE_PITCH
            w, h = rng.uniform(40.0, 100.0, size=2)
            e = _gt_euler(rng)
            dets.append(dict(cat=name, box=(x, base_y, x + w, base_y + h),
                             score=int(rng.integers(1, SCORE_LEVELS + 1)), q=_quat(e), gt=None, e=e))
    n_gt = len(gts)
    for _ in range(int(WRONG_CAT_FRAC * n_gt)):
        j = int(rng.integers(n_gt))
        other = names[(names.index(gts[j].category) + 1) % categories]
        e = _gt_euler(rng)
        dets.append(dict(cat=other, box=_shift(gts[j].box, 0.03, rng),
                         score=int(rng.integers(1, SCORE_LEVELS + 1)), q=_quat(e), gt=None, e=e))

    order = _file_order(dets, rng)
    dets = [dets[i] for i in order]
    detections = [
        metrics.Detection(d["cat"], d["box"], d["score"] / SCORE_LEVELS, _rotation(d["q"]))
        for d in dets
    ]
    metrics.write_records(path, detections, gts)
    return _score(dets, truth, names, n_gt)


def _file_order(dets, rng):
    """Shuffle, then move each duplicate behind the true detection it copies,
    so a tied duplicate never claims the ground truth first."""
    order = list(rng.permutation(len(dets)))
    pos = {d: i for i, d in enumerate(order)}
    for i, d in enumerate(dets):
        if "after" in d and pos[i] < pos[d["after"]]:
            a, b = pos[i], pos[d["after"]]
            order[a], order[b] = order[b], order[a]
            pos[i], pos[d["after"]] = b, a
    return order


def _ap(flags, n_gt):
    flags = np.asarray(flags, dtype=float)
    tp = np.cumsum(flags)
    fp = np.cumsum(1.0 - flags)
    recall = np.concatenate([[0.0], tp / n_gt])
    precision = np.maximum.accumulate((tp / (tp + fp))[::-1])[::-1]
    return float(np.sum(np.diff(recall) * precision))


def _score(dets, truth, names, n_gt):
    ranked = sorted(range(len(dets)), key=lambda i: (-dets[i]["score"], i))
    arp_flags, avp_flags = [], []
    angles = {name: [] for name in names}
    for i in ranked:
        d = dets[i]
        if d["gt"] is None:
            arp_flags.append(0.0)
            avp_flags.append(0.0)
            continue
        cat, q_gt, e_gt = truth[d["gt"]]
        angle = _angle_deg(q_gt, d["q"])
        angles[cat].append(angle)
        arp_flags.append(1.0 if angle < metrics.ANGLE_THRESHOLD_DEG else 0.0)
        avp_flags.append(1.0 if _bin(e_gt[0]) == _bin(d["e"][0]) else 0.0)
    used = [n for n in names if angles[n]]
    med = sum(float(np.median(angles[n])) for n in used) / len(used)
    acc = sum(
        sum(1 for a in angles[n] if a < metrics.ANGLE_THRESHOLD_DEG) / len(angles[n]) for n in used
    ) / len(used)
    return [("med", med), ("acc", acc), ("arp", _ap(arp_flags, n_gt)), ("avp", _ap(avp_flags, n_gt))]


def parse_eval_output(text):
    """(metric, value) pairs from `orient-geo eval` stdout; ValueError if a
    line is not `name number`."""
    pairs = []
    for line in text.strip().splitlines():
        name, value = line.split()
        pairs.append((name, float(value)))
    return pairs


def check_eval_output(pairs, expected):
    """Problems found comparing parsed eval output with the expected lines:
    same names in the same order, values within tolerance."""
    if [name for name, _ in pairs] != [name for name, _ in expected]:
        return [f"eval printed {pairs!r}, expected metrics {[n for n, _ in expected]}"]
    problems = []
    for (name, got), (_, want) in zip(pairs, expected):
        tol = MED_TOL_DEG if name == "med" else FRAC_TOL
        if not abs(got - want) <= tol:
            problems.append(f"eval {name} {got!r} != expected {want!r}")
    return problems
