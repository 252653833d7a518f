"""Acceptance gate: one test per advertised guarantee, each printing a
single pass/fail line with the measured quantity next to its bound.

The geometry, gradient, metric, homography, and soft-assignment suites are
exact-tolerance checks against independent oracles.  The two benchmark
criteria (discretization floor, geodesic-vs-euclidean ordering) train real
models and assert the qualitative orderings the library is built to show.
"""

import dataclasses
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from orientgeo import dictionary as dct
from orientgeo import gradcheck, harness, jitter, losses, metrics, so3

from so3_helpers import angle_deg, azimuth_bin, rot_z


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. geometry suite


def _eig_angles(m: np.ndarray) -> np.ndarray:
    """Rotation angle of each matrix (..., 3, 3) from its eigenvalues
    e^{+-i theta}."""
    vals = np.linalg.eigvals(m)
    return np.max(np.abs(np.angle(vals)), axis=-1)


def test_geometry_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    n = 10_000

    v = np.empty((n, 3))
    for i in range(n):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        v[i] = axis * rng.uniform(0.0, math.pi - 1e-3)
    worst_rt = float(np.max(np.abs(so3.log_rotation(so3.rodrigues(v)) - v)))

    m1, m2 = np.empty((2, n, 3, 3))
    for i in range(n):
        m1[i] = so3.random_rotation(rng).matrix
        m2[i] = so3.random_rotation(rng).matrix
    d = so3.geodesic_distance_matrices(m1, m2)
    worst_d = float(np.max(np.abs(d - _eig_angles(np.swapaxes(m1, -1, -2) @ m2))))
    # 2 acos |<q1, q2>|: the angle again, read from the quaternions
    dot = np.abs(np.sum(so3.matrix_to_quaternion(m1) * so3.matrix_to_quaternion(m2), axis=-1))
    worst_q = float(np.max(np.abs(d - 2.0 * np.arccos(np.minimum(dot, 1.0)))))
    elapsed = time.perf_counter() - t0

    ok = worst_rt <= 1e-9 and worst_d <= 1e-7 and worst_q <= 1e-7 and elapsed < 5.0
    _line(
        "geometry suite",
        ok,
        f"roundtrip {worst_rt:.2e} (<=1e-9), trace-vs-eig {worst_d:.2e} (<=1e-7), "
        f"quat-vs-rot {worst_q:.2e} (<=1e-7), {elapsed:.2f}s (<5s)",
    )


# ---------------------------------------------------------------------------
# 2. gradient suite


def test_gradient_suite():
    t0 = time.perf_counter()
    worst = {}
    for family in losses.FAMILIES:
        report = gradcheck.check_family(
            losses.ObjectiveSpec(family), instances=100, seed=0
        )
        worst[family] = report.max_rel_error
    elapsed = time.perf_counter() - t0
    peak = max(worst.values())
    ok = peak <= 1e-4 and elapsed < 60.0
    worst_family = max(worst, key=worst.get)
    _line(
        "gradient suite",
        ok,
        f"17 families x 100 instances, max rel err {peak:.2e} "
        f"({worst_family}) (<=1e-4), {elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# 3. discretization-floor ordering


def test_discretization_floor_ordering():
    data = harness.DataConfig(
        categories=3, train_samples=1200, val_samples=100, test_samples=400,
        noise=0.0,
    )
    opt = harness.OptimizerConfig(learning_rate=3e-3, decay=0.5, epochs=8)

    def run(family):
        cfg = harness.ExperimentConfig(
            objective=losses.ObjectiveSpec(family),
            dictionary_size=16, optimizer=opt, data=data, seed=0,
        )
        result = harness.run_experiment(cfg)
        floor = harness.discretization_floor(
            harness.generate_synthetic(cfg, cfg.seed), result.dictionary
        )
        return result.report.mean["MedErr"], floor

    med_c, floor = run("C")
    med_bd, _ = run("M_Gp")
    ok = med_c >= floor - 0.1 and med_bd <= 0.5 * floor
    _line(
        "discretization floor",
        ok,
        f"K=16 noise-0 floor {floor:.2f} deg; classification {med_c:.2f} "
        f"(>= floor-0.1), Bin & Delta {med_bd:.2f} (<= {0.5 * floor:.2f})",
    )


# ---------------------------------------------------------------------------
# 4. loss-family ordering on the default benchmark


def test_geodesic_beats_euclidean_on_default_benchmark():
    means = {}
    for family in ("R_G", "R_E"):
        cfg = harness.ExperimentConfig(objective=losses.ObjectiveSpec(family))
        means[family] = harness.run_trials(cfg, trials=3).mean("MedErr")
    ok = means["R_G"] < means["R_E"]
    _line(
        "loss-family ordering",
        ok,
        f"3-seed mean MedErr R_G {means['R_G']:.2f} < R_E {means['R_E']:.2f}",
    )


# ---------------------------------------------------------------------------
# 5. tangent-space / riemannian regression consistency


def test_log_euclidean_matches_riemannian_for_small_deltas():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        key = so3.random_rotation(rng)
        target = so3.random_rotation(rng)
        # keep the relative rotation away from the pi shell where the log
        # itself is undefined
        while np.trace(key.matrix.T @ target.matrix) <= -1.0 + 1e-3:
            target = so3.random_rotation(rng)
        delta = rng.normal(size=3)
        delta *= rng.uniform(0.0, 1e-3) / np.linalg.norm(delta)
        riem = float(so3.geodesic_distance_matrices(
            target.matrix, so3.Rotation(key.matrix @ so3.rodrigues(delta)).matrix
        ))
        tangent = np.linalg.norm(
            so3.log_rotation(key.matrix.T @ target.matrix) - delta
        )
        worst = max(worst, abs(riem - tangent))
    ok = worst <= 1e-5
    _line(
        "tangent-space consistency",
        ok,
        f"1000 instances with |delta|<=1e-3, max gap {worst:.2e} (<=1e-5)",
    )


# ---------------------------------------------------------------------------
# 6. metric oracle suite


def _oracle_match(dets, gts):
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = set()
    pairs = []
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
        pairs.append((i, best_j))
    return pairs


def _oracle_ap(flags, n_gt):
    positions = [i + 1 for i, f in enumerate(flags) if f]
    if n_gt == 0:
        return 0.0
    total = Fraction(0)
    for i in range(len(positions)):
        total += max(Fraction(j + 1, positions[j]) for j in range(i, len(positions)))
    return float(total / n_gt)


def _random_set(rng, pyrng, with_boundaries):
    gts, dets = [], []
    n_gt = pyrng.randint(2, 7)
    for j in range(n_gt):
        x = 25.0 * j
        gts.append(metrics.GroundTruth("cat", (x, 0.0, x + 10.0, 10.0), so3.random_rotation(rng)))
    for _ in range(pyrng.randint(2, 12)):
        j = pyrng.randrange(n_gt + 1)
        x = 25.0 * j + pyrng.uniform(-4.0, 4.0)
        rot = gts[j].rotation if j < n_gt and pyrng.random() < 0.5 else so3.random_rotation(rng)
        dets.append(metrics.Detection("cat", (x, 0.0, x + 10.0, 10.0), pyrng.random(), rot))
    if with_boundaries:
        # a pose error bracketing exactly 30 degrees (an exact 30 cannot
        # survive the matrix roundtrip) and an azimuth pair on a bin edge
        x = 25.0 * n_gt + 40.0
        eps = math.degrees(1e-9)
        for k, off in enumerate((30.0 + eps, 30.0 - eps)):
            box = (x + 15.0 * k, 0.0, x + 15.0 * k + 10.0, 10.0)
            gts.append(metrics.GroundTruth("cat", box, so3.Rotation.identity()))
            dets.append(metrics.Detection(
                "cat", box, 0.99, so3.Rotation(rot_z(math.radians(off)))
            ))
        def pose(az):
            return so3.euler_to_rotation(so3.EulerZXZ(math.radians(az), math.pi / 2, 0.0))
        box = (x + 30.0, 0.0, x + 40.0, 10.0)
        gts.append(metrics.GroundTruth("cat", box, pose(44.999)))
        dets.append(metrics.Detection("cat", box, 0.98, pose(45.001)))
    return dets, gts


def test_metric_oracle_suite():
    rng = np.random.default_rng(11)
    pyrng = random.Random(11)
    worst = 0.0
    for case in range(100):
        dets, gts = _random_set(rng, pyrng, with_boundaries=case < 10)
        pairs = _oracle_match(dets, gts)
        n_gt = len(gts)
        matching = metrics.Matching(dets, gts)

        flags_ap = [1.0 if j is not None else 0.0 for _, j in pairs]
        worst = max(worst, abs(matching.ap() - _oracle_ap(flags_ap, n_gt)))

        flags_arp = [
            1.0 if j is not None
            and angle_deg(gts[j].rotation, dets[i].rotation) < 30.0
            else 0.0
            for i, j in pairs
        ]
        worst = max(worst, abs(matching.arp() - _oracle_ap(flags_arp, n_gt)))

        def same_bin(i, j, k=8):
            det_bin = azimuth_bin(dets[i].rotation.matrix, k)
            return det_bin is not None and det_bin == azimuth_bin(gts[j].rotation.matrix, k)

        flags_avp = [
            1.0 if j is not None and same_bin(i, j) else 0.0 for i, j in pairs
        ]
        worst = max(worst, abs(matching.avp(8) - _oracle_ap(flags_avp, n_gt)))

        matched = [(i, j) for i, j in pairs if j is not None]
        analysis = matching.analysis()
        worst = max(worst, abs(analysis.frac_detected - len(matched) / n_gt))
        n_acc = sum(
            1 for i, j in matched
            if angle_deg(gts[j].rotation, dets[i].rotation) < 30.0
        )
        worst = max(worst, abs(analysis.frac_correct - n_acc / n_gt))

        records = matching.pairs
        if records:
            errs = sorted(
                angle_deg(gts[j].rotation, dets[i].rotation) for i, j in matched
            )
            m = len(errs)
            med_oracle = errs[m // 2] if m % 2 else (errs[m // 2 - 1] + errs[m // 2]) / 2
            per, _ = metrics.med_err(records)
            worst = max(worst, abs(per["cat"] - med_oracle))
            acc_oracle = n_acc / m
            per_acc, _ = metrics.acc_pi6(records)
            worst = max(worst, abs(per_acc["cat"] - acc_oracle))
    ok = worst <= 1e-9
    _line(
        "metric oracle suite",
        ok,
        f"100 randomized sets incl. 30-degree and bin-edge cases, "
        f"max deviation {worst:.2e} (<=1e-9)",
    )


# ---------------------------------------------------------------------------
# 7. homography suite


def test_homography_suite():
    rng = np.random.default_rng(4)
    worst_dlt = 0.0

    pts = rng.uniform(-1.0, 1.0, size=(8, 2))
    h_id = jitter.dlt_homography(pts, pts)
    worst_dlt = max(worst_dlt, float(np.max(np.abs(jitter.apply_homography(h_id, pts) - pts))))

    ang = math.radians(10.0)
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    dst = pts @ rot.T
    h_rot = jitter.dlt_homography(pts, dst)
    worst_dlt = max(worst_dlt, float(np.max(np.abs(jitter.apply_homography(h_rot, pts) - dst))))

    # 20 random warps, fitted in one stacked call
    srcs, dsts = [], []
    for _ in range(20):
        h_true = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
        while abs(np.linalg.det(h_true)) < 1e-3:
            h_true = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
        src = rng.uniform(-1.0, 1.0, size=(6, 2))
        ones = np.hstack([src, np.ones((6, 1))])
        mapped = ones @ h_true.T
        srcs.append(src)
        dsts.append(mapped[:, :2] / mapped[:, 2:3])
    srcs, dsts = np.array(srcs), np.array(dsts)
    h_est = jitter.dlt_homography(srcs, dsts)
    worst_dlt = max(worst_dlt, float(np.max(np.abs(jitter.apply_homography(h_est, srcs) - dsts))))

    # 2-degree azimuth jitter of a nearly fronto-parallel thin slab: the
    # closest 20 percent of the points live on one face, so one homography
    # must explain their motion to sub-millipixel accuracy
    points = jitter.cuboid_points(half_extents=(0.5, 0.4, 0.05), per_edge=7)
    camera = jitter.default_camera()
    euler = so3.EulerZXZ(math.radians(5.0), math.radians(88.0), math.radians(2.0))
    spec = jitter.JitterSpec(d_az=(2.0,), d_el=(0.0,), d_ct=(0.0,), flip=False)
    grid = jitter.jitter_sample((points, camera, euler), spec, 0)
    assert len(grid) == 1
    world = points @ so3.euler_to_rotation(euler).matrix.T
    moved_world = points @ so3.euler_to_matrix(grid.angles[0]).T
    depths = world[:, 2] + camera.translation[2]
    near = np.argsort(depths, kind="stable")[: max(4, round(0.2 * len(points)))]
    base = jitter.project(camera, world[near])
    target = jitter.project(camera, moved_world[near])
    moved = jitter.apply_homography(grid.warps[0], base)
    worst_jitter = float(np.max(np.linalg.norm(moved - target, axis=1)))

    ok = worst_dlt <= 1e-6 and worst_jitter <= 1e-3
    _line(
        "homography suite",
        ok,
        f"DLT worst reprojection {worst_dlt:.2e} (<=1e-6), "
        f"2-degree jitter near-subset {worst_jitter:.2e} px (<=1e-3)",
    )


# ---------------------------------------------------------------------------
# 8. soft-assignment limits


def test_soft_assignment_limits():
    rng = np.random.default_rng(5)
    keys = rng.uniform(-2.0, 2.0, size=(12, 3))
    dictionary = dct.PoseDictionary(keys, dct.AXIS_ANGLE)

    worst_uniform = 0.0
    for _ in range(100):
        p = dct.soft_assign_probs(rng.uniform(-2.0, 2.0, size=3), keys, 1e-12)
        worst_uniform = max(worst_uniform, float(np.max(np.abs(p - 1.0 / 12.0))))

    separated = np.array(
        [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]
    )
    p = dct.soft_assign_probs(np.array([0.05, 0.0, 0.0]), separated, 1e6)
    peak = float(np.max(p))

    agree = all(
        int(np.argmax(dct.soft_assign_probs(q, keys, 2.0))) == dct.hard_label(q, dictionary)
        for q in rng.uniform(-2.5, 2.5, size=(10_000, 3))
    )

    ok = worst_uniform <= 1e-9 and peak > 1.0 - 1e-6 and agree
    _line(
        "soft-assignment limits",
        ok,
        f"gamma->0 deviation {worst_uniform:.2e} (<=1e-9), "
        f"gamma=1e6 peak {peak:.9f} (>1-1e-6), argmax==hard on 10k: {agree}",
    )


# ---------------------------------------------------------------------------
# 9. end-to-end determinism


def test_run_experiment_determinism(tmp_path):
    cfg = harness.ExperimentConfig(
        objective=losses.ObjectiveSpec("M_G"),
        dictionary_size=8,
        hidden=(16, 8),
        optimizer=harness.OptimizerConfig(learning_rate=1e-3, epochs=2),
        data=harness.DataConfig(
            categories=2, train_samples=60, val_samples=24, test_samples=24,
            feature_dim=16, noise=0.01,
        ),
    )
    harness.run_experiment(cfg, out_dir=str(tmp_path / "a"))
    harness.run_experiment(cfg, out_dir=str(tmp_path / "b"))
    same = (tmp_path / "a" / "report.csv").read_bytes() == (
        tmp_path / "b" / "report.csv"
    ).read_bytes()
    _line("determinism", same, "two identical-config runs, byte-identical CSV reports")
