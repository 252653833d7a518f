"""Metrics against exact-arithmetic PR oracles, boundary cases at the
30-degree and azimuth-bin edges, and the structural matching guarantees."""

import json
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from orientgeo import cli, metrics, so3

import record_golden_detection
from so3_helpers import angle_deg, random_axis_angle, rot_z


def _rz(deg):
    return so3.Rotation(rot_z(math.radians(deg)))


def _pose(az_deg, el_deg=90.0, ct_deg=0.0):
    return so3.euler_to_rotation(
        so3.EulerZXZ(math.radians(az_deg), math.radians(el_deg), math.radians(ct_deg))
    )


def _records(categories, r_true, r_pred):
    """PoseRecords of parallel lists of categories and so3.Rotations."""
    return metrics.PoseRecords(
        np.array(categories, dtype=str),
        np.array([r.matrix for r in r_true]).reshape(-1, 3, 3),
        np.array([r.matrix for r in r_pred]).reshape(-1, 3, 3),
    )


def _records_with_errors(errors_deg, category="cat"):
    ident = so3.Rotation.identity()
    n = len(errors_deg)
    return _records([category] * n, [ident] * n, [_rz(e) for e in errors_deg])


BOX = (0.0, 0.0, 10.0, 10.0)


def _det(category, box, score, rotation):
    return metrics.Detection(category, box, score, rotation)


def _gt(category, box, rotation):
    return metrics.GroundTruth(category, box, rotation)


# ---------------------------------------------------------------------------
# iou + record validation


def test_iou_cases():
    assert metrics.iou(BOX, BOX) == 1.0
    assert metrics.iou(BOX, (20.0, 20.0, 30.0, 30.0)) == 0.0
    # [0,10]x[0,10] vs [5,0]x[15,10]: inter 50, union 150
    assert abs(metrics.iou(BOX, (5.0, 0.0, 15.0, 10.0)) - 1.0 / 3.0) <= 1e-12


def test_boxes_must_be_well_ordered():
    ident = so3.Rotation.identity()
    with pytest.raises(ValueError):
        metrics.GroundTruth("c", (5.0, 0.0, 1.0, 10.0), ident)
    with pytest.raises(ValueError):
        metrics.Detection("c", (0.0, 10.0, 10.0, 1.0), 0.5, ident)


@pytest.mark.parametrize("box, score", [
    ((0.0, 0.0, math.inf, 10.0), 0.5),
    ((-math.inf, 0.0, 10.0, 10.0), 0.5),
    ((0.0, 0.0, 10.0, math.nan), 0.5),
    ((0.0, 0.0, 10.0, 10.0), math.nan),
    ((0.0, 0.0, 10.0, 10.0), math.inf),
])
def test_constructors_reject_non_finite_boxes_and_scores(box, score):
    ident = so3.Rotation.identity()
    with pytest.raises(ValueError, match="must be finite"):
        metrics.Detection("c", box, score, ident)
    if math.isfinite(score):
        with pytest.raises(ValueError, match="must be finite"):
            metrics.GroundTruth("c", box, ident)


# ---------------------------------------------------------------------------
# paired pose metrics


def test_med_err_all_perfect_is_zero():
    ident = so3.Rotation.identity()
    records = _records(["cat"] * 5, [ident] * 5, [ident] * 5)
    per, mean = metrics.med_err(records)
    assert per["cat"] == 0.0 and mean == 0.0


def test_med_err_odd_and_even_counts():
    per, _ = metrics.med_err(_records_with_errors([10.0, 20.0, 40.0]))
    assert abs(per["cat"] - 20.0) <= 1e-9
    per, _ = metrics.med_err(_records_with_errors([10.0, 20.0, 40.0, 60.0]))
    assert abs(per["cat"] - 30.0) <= 1e-9  # mean of the middle two


def test_med_err_matches_sort_oracle_per_category():
    rng = np.random.default_rng(0)
    cats, trues, preds = [], [], []
    angles = {"a": [], "b": []}
    for _ in range(1000):
        cat = "a" if rng.random() < 0.5 else "b"
        r_true = so3.random_rotation(rng)
        r_pred = so3.random_rotation(rng)
        cats.append(cat)
        trues.append(r_true)
        preds.append(r_pred)
        angles[cat].append(angle_deg(r_true, r_pred))
    per, mean = metrics.med_err(_records(cats, trues, preds))
    for cat, vals in angles.items():
        vals = sorted(vals)
        n = len(vals)
        oracle = vals[n // 2] if n % 2 else (vals[n // 2 - 1] + vals[n // 2]) / 2.0
        assert per[cat] == oracle
    assert mean == (per["a"] + per["b"]) / 2.0


def test_acc_pi6_counts_and_strict_threshold():
    per, _ = metrics.acc_pi6(_records_with_errors([10.0, 40.0, 20.0]))
    assert abs(per["cat"] - 2.0 / 3.0) <= 1e-12
    per, _ = metrics.acc_pi6(_records_with_errors([1.0, 2.0, 3.0]))
    assert per["cat"] == 1.0
    # the indicator is strict: bracket the threshold from both sides (an
    # exact 30 cannot be constructed through the matrix roundtrip)
    eps = math.degrees(1e-9)
    per, _ = metrics.acc_pi6(_records_with_errors([30.0 + eps]))
    assert per["cat"] == 0.0
    per, _ = metrics.acc_pi6(_records_with_errors([30.0 - eps]))
    assert per["cat"] == 1.0


def test_empty_records_raise():
    with pytest.raises(metrics.EmptyCategory):
        metrics.med_err([])
    with pytest.raises(metrics.EmptyCategory):
        metrics.acc_pi6([])


# ---------------------------------------------------------------------------
# average precision oracles


def _oracle_match(dets, gts):
    """Independent re-simulation of the matching rule with plain loops."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = set()
    flags = {}
    for i in order:
        best_j, best = None, 0.5
        for j, gt in enumerate(gts):
            if j in taken or gt.category != dets[i].category:
                continue
            ov = metrics.iou(dets[i].box, gt.box)
            if ov > best:
                best_j, best = j, ov
        if best_j is not None:
            taken.add(best_j)
        flags[i] = best_j
    return [(i, flags[i]) for i in order]


def _oracle_ap(tp_flags, n_gt):
    """Exact rational AP: suffix max over per-TP precisions."""
    if n_gt == 0:
        return 0.0
    tp_positions = [i + 1 for i, f in enumerate(tp_flags) if f]
    total = Fraction(0)
    for i in range(len(tp_positions)):
        best = max(Fraction(j + 1, tp_positions[j]) for j in range(i, len(tp_positions)))
        total += best
    return float(total / n_gt)


def test_single_perfect_detection_gives_ap_one():
    gt = [_gt("cat", BOX, _pose(40.0))]
    det = [_det("cat", BOX, 0.9, _pose(40.0))]
    assert metrics.Matching(det, gt).ap() == 1.0
    assert metrics.Matching(det, gt).arp() == 1.0


def test_correct_box_wrong_pose_gives_arp_zero():
    gt = [_gt("cat", BOX, so3.Rotation.identity())]
    det = [_det("cat", BOX, 0.9, _rz(45.0))]
    assert metrics.Matching(det, gt).ap() == 1.0
    assert metrics.Matching(det, gt).arp() == 0.0


def test_pose_wrong_match_still_consumes_ground_truth():
    gt = [_gt("cat", BOX, so3.Rotation.identity())]
    dets = [
        _det("cat", BOX, 0.9, _rz(90.0)),  # higher score, wrong pose
        _det("cat", BOX, 0.5, so3.Rotation.identity()),  # right pose, starved
    ]
    assert metrics.Matching(dets, gt).arp() == 0.0


def test_ap_against_exact_rational_oracle():
    rng = np.random.default_rng(7)
    pyrng = random.Random(7)
    for _ in range(60):
        n_gt = pyrng.randint(1, 8)
        gts = []
        for j in range(n_gt):
            x = 20.0 * j
            gts.append(_gt("cat", (x, 0.0, x + 10.0, 10.0), so3.random_rotation(rng)))
        dets = []
        for _ in range(pyrng.randint(1, 15)):
            j = pyrng.randrange(n_gt + 2)  # sometimes a box matching nothing
            x = 20.0 * j + pyrng.uniform(-3.0, 3.0)
            rot = gts[j].rotation if j < n_gt and pyrng.random() < 0.6 else so3.random_rotation(rng)
            dets.append(_det("cat", (x, 0.0, x + 10.0, 10.0), pyrng.random(), rot))

        pairs = _oracle_match(dets, gts)
        flags_ap = [1.0 if j is not None else 0.0 for _, j in pairs]
        flags_arp = [
            1.0
            if j is not None and angle_deg(gts[j].rotation, dets[i].rotation) < 30.0
            else 0.0
            for i, j in pairs
        ]
        matching = metrics.Matching(dets, gts)
        assert abs(matching.ap() - _oracle_ap(flags_ap, n_gt)) <= 1e-9
        assert abs(matching.arp() - _oracle_ap(flags_arp, n_gt)) <= 1e-9
        # flags as a numpy array give the same AP as the list
        for flags in (flags_ap, flags_arp):
            assert metrics.average_precision(np.array(flags), n_gt) == metrics.average_precision(
                flags, n_gt
            )
    assert metrics.average_precision(np.array([1.0, 0.0]), 2) == 0.5
    assert metrics.average_precision(np.array([]), 2) == 0.0


def test_score_ties_break_by_input_order():
    gts = [_gt("cat", BOX, so3.Rotation.identity())]
    first = _det("cat", BOX, 0.5, so3.Rotation.identity())
    second = _det("cat", BOX, 0.5, _rz(90.0))
    # identical scores: the earlier detection claims the ground truth
    assert metrics.Matching([first, second], gts).arp() == 1.0
    assert metrics.Matching([second, first], gts).arp() == 0.0


def test_metrics_invariant_to_gt_ordering():
    rng = np.random.default_rng(9)
    gts = [
        _gt("cat", (20.0 * j, 0.0, 20.0 * j + 10.0, 10.0), so3.random_rotation(rng))
        for j in range(6)
    ]
    dets = [
        _det("cat", (20.0 * j + 1.0, 0.0, 20.0 * j + 11.0, 10.0), rng.random(), so3.random_rotation(rng))
        for j in range(6)
    ]
    base = metrics.Matching(dets, gts)
    base_arp, base_avp = base.arp(), base.avp(8)
    shuffled = gts[::-1]
    matching = metrics.Matching(dets, shuffled)
    assert matching.arp() == base_arp
    assert matching.avp(8) == base_avp


# ---------------------------------------------------------------------------
# AVP binning


def test_avp_same_bin_and_boundary_bins():
    gt = [_gt("cat", BOX, _pose(10.0))]
    det = [_det("cat", BOX, 0.9, _pose(12.0))]
    assert metrics.Matching(det, gt).avp(8) == 1.0  # both in [0, 45)

    gt = [_gt("cat", BOX, _pose(44.0))]
    det = [_det("cat", BOX, 0.9, _pose(46.0))]
    assert metrics.Matching(det, gt).avp(8) == 0.0  # bins [0,45) vs [45,90)


def test_avp_counts_gimbal_lock_as_incorrect():
    # pure z-rotation: elevation 0, azimuth/tilt inseparable
    gt = [_gt("cat", BOX, _pose(10.0))]
    det = [_det("cat", BOX, 0.9, _rz(10.0))]
    assert metrics.Matching(det, gt).avp(8) == 0.0


def test_avp_nested_bins_monotone_and_perfect_equals_ap():
    rng = np.random.default_rng(21)
    gts, dets = [], []
    for j in range(10):
        x = 20.0 * j
        box = (x, 0.0, x + 10.0, 10.0)
        az = rng.uniform(-170.0, 170.0)
        gts.append(_gt("cat", box, _pose(az)))
        dets.append(_det("cat", box, rng.random(), _pose(az + rng.uniform(-30.0, 30.0))))
    matching = metrics.Matching(dets, gts)
    for k in (4, 8, 12):
        assert matching.avp(2 * k) <= matching.avp(k) + 1e-12

    perfect = metrics.Matching([_det(g.category, g.box, 0.5, g.rotation) for g in gts], gts)
    for k in (4, 8, 16, 24):
        assert perfect.avp(k) == perfect.ap()


def test_arp_never_exceeds_ap_on_random_sets():
    rng = np.random.default_rng(33)
    pyrng = random.Random(33)
    for _ in range(40):
        gts, dets = [], []
        for j in range(pyrng.randint(1, 6)):
            x = 25.0 * j
            gts.append(_gt("cat", (x, 0.0, x + 10.0, 10.0), so3.random_rotation(rng)))
        for _ in range(pyrng.randint(1, 12)):
            j = pyrng.randrange(len(gts))
            x = 25.0 * j + pyrng.uniform(-4.0, 4.0)
            dets.append(
                _det("cat", (x, 0.0, x + 10.0, 10.0), pyrng.random(), so3.random_rotation(rng))
            )
        matching = metrics.Matching(dets, gts)
        assert matching.arp() <= matching.ap() + 1e-12


# ---------------------------------------------------------------------------
# detection analysis


def test_detection_analysis_all_matched_accurate():
    gts = [_gt("cat", BOX, _pose(30.0))]
    dets = [_det("cat", BOX, 0.9, _pose(31.0))]
    out = metrics.Matching(dets, gts).analysis()
    assert out.frac_detected == 1.0
    assert out.frac_correct == 1.0
    assert out.pose_err_deg < 2.0


def test_detection_analysis_half_matched():
    gts = [
        _gt("cat", (0.0, 0.0, 10.0, 10.0), so3.Rotation.identity()),
        _gt("cat", (50.0, 0.0, 60.0, 10.0), so3.Rotation.identity()),
    ]
    dets = [_det("cat", (0.0, 0.0, 10.0, 10.0), 0.9, _rz(5.0))]
    out = metrics.Matching(dets, gts).analysis()
    assert out.frac_detected == 0.5
    assert out.frac_correct == 0.5
    assert abs(out.pose_err_deg - 5.0) <= 1e-9


def test_frac_correct_never_exceeds_frac_detected():
    rng = np.random.default_rng(55)
    pyrng = random.Random(55)
    for _ in range(30):
        gts, dets = [], []
        for j in range(pyrng.randint(1, 5)):
            x = 30.0 * j
            gts.append(_gt("cat", (x, 0.0, x + 10.0, 10.0), so3.random_rotation(rng)))
        for _ in range(pyrng.randint(0, 8)):
            j = pyrng.randrange(len(gts))
            x = 30.0 * j + pyrng.uniform(-6.0, 6.0)
            dets.append(
                _det("cat", (x, 0.0, x + 10.0, 10.0), pyrng.random(), so3.random_rotation(rng))
            )
        out = metrics.Matching(dets, gts).analysis()
        assert out.frac_correct <= out.frac_detected + 1e-12


def test_paired_records_feed_pose_metrics():
    gts = [_gt("cat", BOX, so3.Rotation.identity())]
    dets = [_det("cat", BOX, 0.9, _rz(12.0))]
    records = metrics.Matching(dets, gts).pairs
    assert len(records) == 1
    per, _ = metrics.med_err(records)
    assert abs(per["cat"] - 12.0) <= 1e-9


# ---------------------------------------------------------------------------
# reports + record files


def _small_benchmark():
    rng = np.random.default_rng(77)
    gts, dets = [], []
    for cat in ("car", "chair", "sofa"):
        for j in range(4):
            x = 20.0 * j
            box = (x, 0.0, x + 10.0, 10.0)
            rot = so3.random_rotation(rng)
            gts.append(_gt(cat, box, rot))
            noise = so3.rodrigues(random_axis_angle(rng, max_angle=0.4))
            dets.append(_det(cat, box, float(rng.random()), so3.Rotation(rot.matrix @ noise)))
    return dets, gts


def test_detection_report_structure_and_bounds():
    dets, gts = _small_benchmark()
    report = metrics.detection_report(dets, gts)
    assert report.categories == ("car", "chair", "sofa")
    assert "AVP_8" in report.metrics
    for metric in report.metrics:
        assert metric in report.mean
    for cat in report.categories:
        assert report.counts[cat] == 4
        assert 0.0 <= report.values["AP"][cat] <= 1.0


def test_report_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        metrics.MetricReport(
            metrics=("Acc_pi6",),
            categories=("cat",),
            values={"Acc_pi6": {"cat": 1.5}},
            mean={"Acc_pi6": 1.5},
            counts={"cat": 1},
        )


def test_report_csv_and_json_roundtrip(tmp_path):
    dets, gts = _small_benchmark()
    report = metrics.detection_report(dets, gts)
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    metrics.write_report(report, csv_path, json_path)

    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "metric,car,chair,sofa,Mean"
    assert len(lines) == 1 + len(report.metrics)

    payload = json.loads(json_path.read_text())
    assert payload["categories"] == ["car", "chair", "sofa"]
    assert payload["metrics"]["AP"]["per_category"]["car"] == report.values["AP"]["car"]


def test_record_file_roundtrip_bit_exact(tmp_path):
    dets, gts = _small_benchmark()
    path = tmp_path / "records.txt"
    metrics.write_records(path, dets, gts)
    dets2, gts2 = metrics.read_records(path)
    assert len(dets2) == len(dets) and len(gts2) == len(gts)
    for items, table in ((dets, dets2), (gts, gts2)):
        assert table.category.tolist() == [x.category for x in items]
        assert [tuple(box) for box in table.box.tolist()] == [x.box for x in items]
        assert np.max(np.abs(table.rotation - [x.rotation.matrix for x in items])) <= 1e-12
    assert dets2.score.tolist() == [d.score for d in dets]
    # metrics computed from the file match the in-memory ones exactly
    assert metrics.Matching(dets2, gts2).arp() == metrics.Matching(dets, gts).arp()

    second = tmp_path / "records2.txt"
    metrics.write_records(second, dets2, gts2)
    assert path.read_bytes() == second.read_bytes()


def test_record_file_rewrites_are_byte_stable_for_random_quaternions(tmp_path):
    """Normalizing a unit quaternion again can move its last digit; a
    quaternion read from a file is kept as written, so rewrites are exact."""
    rng = np.random.default_rng(5)
    gts, dets = [], []
    for j in range(1000):
        box = (20.0 * j, 0.0, 20.0 * j + 10.0, 10.0)
        gts.append(_gt("cat", box, so3.random_rotation(rng)))
        dets.append(_det("cat", box, float(rng.random()), so3.random_rotation(rng)))
    paths = [tmp_path / f"records{n}.txt" for n in range(3)]
    metrics.write_records(paths[0], dets, gts)
    for src, dst in zip(paths, paths[1:]):
        metrics.write_records(dst, *metrics.read_records(src))
    assert paths[1].read_bytes() == paths[0].read_bytes()
    assert paths[2].read_bytes() == paths[0].read_bytes()


# ---------------------------------------------------------------------------
# golden detection set


GOLDEN_DETECTION = os.path.join(os.path.dirname(__file__), "golden_detection.json")


def test_detection_report_and_eval_match_golden(tmp_path, capsys):
    with open(GOLDEN_DETECTION, encoding="utf-8") as fh:
        golden = json.load(fh)
    dets, gts = record_golden_detection.detection_set()
    report = metrics.detection_report(dets, gts)
    assert list(report.metrics) == golden["metrics"]
    assert record_golden_detection.report_cells(report) == golden["cells"]
    assert report.counts == golden["counts"]

    path = tmp_path / "records.txt"
    metrics.write_records(path, dets, gts)
    assert cli.main(["eval", "--records", str(path)] + record_golden_detection.EVAL_ARGS) == 0
    assert capsys.readouterr().out == golden["eval_stdout"]


def test_one_matching_per_category_and_per_eval(tmp_path, monkeypatch, capsys):
    calls = []
    match = metrics.match_detections
    monkeypatch.setattr(metrics, "match_detections", lambda d, g: calls.append(1) or match(d, g))
    dets, gts = record_golden_detection.detection_set()
    report = metrics.detection_report(dets, gts)
    assert len(calls) == len(report.categories)

    path = tmp_path / "records.txt"
    metrics.write_records(path, dets, gts)
    calls.clear()
    assert cli.main(["eval", "--records", str(path)] + record_golden_detection.EVAL_ARGS) == 0
    assert len(calls) == 1
