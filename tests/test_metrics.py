"""Metrics against exact-arithmetic PR oracles, boundary cases at the
30-degree and azimuth-bin edges, and the structural matching guarantees."""

import json
import math
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientgeo import cli, metrics, so3
from orientgeo import dictionary as dct

import record_golden_detection
from metric_oracles import match_loop, oracle_ap
from so3_helpers import angle_deg, random_axis_angle, random_rotation, rot_z


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


# box entries and scores follow the library's rule for reals: a string or
# a bool is refused, not read through float() as a number
@pytest.mark.parametrize("box, score", [
    (("0", 0.0, 10.0, 10.0), 0.5),
    ((0.0, 0.0, True, 10.0), 0.5),
    ((0.0, 0.0, 10.0, 10.0), "0.5"),
    ((0.0, 0.0, 10.0, 10.0), True),
], ids=["string-box-entry", "bool-box-entry", "string-score", "bool-score"])
def test_detection_refuses_box_entries_and_scores_that_are_not_real_numbers(box, score):
    with pytest.raises(ValueError, match=BOX_RULE):
        metrics.Detection("c", box, score, so3.Rotation.identity())


@pytest.mark.parametrize("box", [("0", 0.0, 10.0, 10.0), (0.0, 0.0, True, 10.0)],
                         ids=["string-box-entry", "bool-box-entry"])
def test_ground_truth_refuses_box_entries_that_are_not_real_numbers(box):
    with pytest.raises(ValueError, match=BOX_RULE):
        metrics.GroundTruth("c", box, so3.Rotation.identity())


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
        r_true = random_rotation(rng)
        r_pred = random_rotation(rng)
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
            gts.append(_gt("cat", (x, 0.0, x + 10.0, 10.0), random_rotation(rng)))
        dets = []
        for _ in range(pyrng.randint(1, 15)):
            j = pyrng.randrange(n_gt + 2)  # sometimes a box matching nothing
            x = 20.0 * j + pyrng.uniform(-3.0, 3.0)
            rot = gts[j].rotation if j < n_gt and pyrng.random() < 0.6 else random_rotation(rng)
            dets.append(_det("cat", (x, 0.0, x + 10.0, 10.0), pyrng.random(), rot))

        pairs = match_loop(dets, gts)
        flags_ap = [1.0 if j is not None else 0.0 for _, j in pairs]
        flags_arp = [
            1.0
            if j is not None and angle_deg(gts[j].rotation, dets[i].rotation) < 30.0
            else 0.0
            for i, j in pairs
        ]
        matching = metrics.Matching(dets, gts)
        assert abs(matching.ap() - oracle_ap(flags_ap, n_gt)) <= 1e-9
        assert abs(matching.arp() - oracle_ap(flags_arp, n_gt)) <= 1e-9
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
        _gt("cat", (20.0 * j, 0.0, 20.0 * j + 10.0, 10.0), random_rotation(rng))
        for j in range(6)
    ]
    dets = [
        _det("cat", (20.0 * j + 1.0, 0.0, 20.0 * j + 11.0, 10.0), rng.random(), random_rotation(rng))
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


@pytest.mark.parametrize("el_deg, ct_deg", [(48.0, -70.0), (134.0, -85.0)])
def test_avp_bins_an_azimuth_a_hair_below_zero_with_zero(el_deg, ct_deg):
    # azimuth 0, read back through its quaternion as read_records builds
    # it, extracts a hair below 0, which % 360 takes to 360.0; it shares
    # every bin with a pose at +0.01 degrees
    written = so3.matrix_to_quaternion(_pose(0.0, el_deg, ct_deg).matrix)
    gt = [_gt("cat", BOX, so3.Rotation(dct.pose_matrices(written, dct.QUATERNION)))]
    det = [_det("cat", BOX, 0.9, _pose(0.01, el_deg, ct_deg))]
    matching = metrics.Matching(det, gt)
    assert matching.ap() == 1.0
    for k in (1, 2, 8, 24):
        assert matching.avp(k) == 1.0, k
    azimuth = np.array([0.0, 359.999, 360.0])
    for k in (1, 7, 8, 360):
        assert metrics._azimuth_bins(azimuth, k).tolist() == [0, k - 1, 0]


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
            gts.append(_gt("cat", (x, 0.0, x + 10.0, 10.0), random_rotation(rng)))
        for _ in range(pyrng.randint(1, 12)):
            j = pyrng.randrange(len(gts))
            x = 25.0 * j + pyrng.uniform(-4.0, 4.0)
            dets.append(
                _det("cat", (x, 0.0, x + 10.0, 10.0), pyrng.random(), random_rotation(rng))
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
            gts.append(_gt("cat", (x, 0.0, x + 10.0, 10.0), random_rotation(rng)))
        for _ in range(pyrng.randint(0, 8)):
            j = pyrng.randrange(len(gts))
            x = 30.0 * j + pyrng.uniform(-6.0, 6.0)
            dets.append(
                _det("cat", (x, 0.0, x + 10.0, 10.0), pyrng.random(), random_rotation(rng))
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
            rot = random_rotation(rng)
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
        gts.append(_gt("cat", box, random_rotation(rng)))
        dets.append(_det("cat", box, float(rng.random()), random_rotation(rng)))
    paths = [tmp_path / f"records{n}.txt" for n in range(3)]
    metrics.write_records(paths[0], dets, gts)
    for src, dst in zip(paths, paths[1:]):
        metrics.write_records(dst, *metrics.read_records(src))
    assert paths[1].read_bytes() == paths[0].read_bytes()
    assert paths[2].read_bytes() == paths[0].read_bytes()


def _one_record_table(category):
    return metrics.RecordTable(np.array([category]), np.array([[0.0, 0.0, 10.0, 10.0]]),
                               np.ones(1), np.eye(3)[None])


@pytest.mark.parametrize("category", ["a b", "a\tb", "a\nb", "a\u2028b", " a", "a ", "", "#a",
                                      "#"])
@pytest.mark.parametrize("side", ["detections", "ground truths"])
def test_records_writer_refuses_a_category_the_reader_would_not_read_back(tmp_path, category, side):
    path = tmp_path / "records.txt"
    good, bad = _one_record_table("car"), _one_record_table(category)
    tables = (bad, good) if side == "detections" else (good, bad)
    with pytest.raises(ValueError, match="category"):
        metrics.write_records(path, *tables)
    assert not path.exists()


@settings(max_examples=200, deadline=None)
@given(category=st.text(max_size=12) | st.sampled_from(["car", "x#y", "naïve", "a,b", "0"]))
def test_every_category_the_records_writer_accepts_reads_back(tmp_path_factory, category):
    table = _one_record_table(category)
    path = tmp_path_factory.mktemp("records") / "records.txt"
    try:
        metrics.write_records(path, table, table)
    except ValueError:
        assert not path.exists()
        return
    dets, gts = metrics.read_records(path)
    assert dets.category.tolist() == gts.category.tolist() == table.category.tolist()


GOOD_RECORD = "car gt 0.0 0.0 10.0 10.0 1.0 1.0 0.0 0.0 0.0"
BAD_BOX = "car det 5.0 0.0 1.0 10.0 0.5 1.0 0.0 0.0 0.0"
TEN_COLUMNS = "car gt 0.0 0.0 10.0 10.0 1.0 1.0 0.0 0.0"
NOT_A_NUMBER = "car det 0.0 0.0 10.0 10.0 0.5 one 0.0 0.0 0.0"
NAN_SCORE = "car det 0.0 0.0 10.0 10.0 nan 1.0 0.0 0.0 0.0"
OFF_UNIT = "car det 0.0 0.0 10.0 10.0 0.5 2.0 0.0 0.0 0.0"
BOX_RULE = "must be finite, with x1 < x2 and y1 < y2"
BAD_BOX_ERROR = f"box (5.0, 0.0, 1.0, 10.0) and score 0.5 {BOX_RULE}"
TEN_COLUMNS_ERROR = f"malformed record line: {TEN_COLUMNS!r}"
# the line is named, as for every other malformed line; float's own message
# ("could not convert string to float: 'one'") named only the field
NOT_A_NUMBER_ERROR = f"malformed record line: {NOT_A_NUMBER!r}"
NAN_SCORE_ERROR = f"box (0.0, 0.0, 10.0, 10.0) and score nan {BOX_RULE}"
OFF_UNIT_ERROR = "record 2 (car det): quaternion norm 2 is not 1"


# every box is checked before any quaternion, and a box on an earlier line
# before a malformed or unparsable later line
@pytest.mark.parametrize("lines, error", [
    ([BAD_BOX, TEN_COLUMNS], BAD_BOX_ERROR),
    ([TEN_COLUMNS, BAD_BOX], TEN_COLUMNS_ERROR),
    ([BAD_BOX, NOT_A_NUMBER], BAD_BOX_ERROR),
    ([NOT_A_NUMBER, BAD_BOX], NOT_A_NUMBER_ERROR),
    ([NAN_SCORE], NAN_SCORE_ERROR),
    ([NAN_SCORE, BAD_BOX], NAN_SCORE_ERROR),
    ([BAD_BOX, NAN_SCORE], BAD_BOX_ERROR),
    ([BAD_BOX, OFF_UNIT], BAD_BOX_ERROR),
    ([OFF_UNIT, BAD_BOX], BAD_BOX_ERROR),
    ([OFF_UNIT, TEN_COLUMNS], TEN_COLUMNS_ERROR),
    ([OFF_UNIT], OFF_UNIT_ERROR),
])
def test_records_reader_raises_the_first_error_in_file_order(tmp_path, lines, error):
    path = tmp_path / "records.txt"
    path.write_text("\n".join([GOOD_RECORD, "# a comment", *lines, GOOD_RECORD]) + "\n")
    with pytest.raises(ValueError) as info:
        metrics.read_records(path)
    assert str(info.value) == error
    if error == NOT_A_NUMBER_ERROR:  # chained from float's own error
        assert str(info.value.__cause__) == "could not convert string to float: 'one'"


@pytest.mark.parametrize("good_lines, error", [(0, UnicodeDecodeError), (1000, BAD_BOX_ERROR)])
def test_records_reader_raises_a_bad_box_before_a_later_undecodable_byte(tmp_path, good_lines,
                                                                         error):
    # a line is checked once the reader has decoded the text around it: a
    # bad byte a few lines on is met first, one 1,000 lines on is not
    path = tmp_path / "records.txt"
    text = "\n".join([GOOD_RECORD, BAD_BOX, *[GOOD_RECORD] * good_lines, "car gt \xff"]) + "\n"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ValueError) as info:
        metrics.read_records(path)
    if isinstance(error, str):
        assert str(info.value) == error
    else:
        assert type(info.value) is error


def test_records_reader_ignores_the_score_column_of_ground_truths(tmp_path):
    path = tmp_path / "records.txt"
    path.write_text("car gt 0.0 0.0 10.0 10.0 nan 1.0 0.0 0.0 0.0\n"
                    "car gt 0.0 0.0 10.0 10.0 -inf 1.0 0.0 0.0 0.0\n")
    dets, gts = metrics.read_records(path)
    assert len(dets) == 0 and gts.score.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("text", ["", "# only comments\n\n   \n#car gt 0 0 1 1\n"])
def test_records_reader_reads_no_records_from_an_empty_file(tmp_path, text):
    path = tmp_path / "records.txt"
    path.write_text(text)
    dets, gts = metrics.read_records(path)
    assert len(dets) == len(gts) == 0
    assert dets.box.shape == gts.box.shape == (0, 4)
    assert dets.rotation.shape == gts.rotation.shape == (0, 3, 3)


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
