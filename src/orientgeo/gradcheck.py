"""Finite-difference verification of the analytic objective gradients.

Every family's gradients are checked against central differences on
randomly generated (prediction, target, dictionary) instances.  Instances
are resampled until every internal geodesic distance sits well inside
(0, pi) and every argmax decision has a clear margin, so the objective is
smooth in an h-neighborhood of the instance:

- distances near 0 or pi hit the acos kinks, where the analytic side is
  deliberately clamped and the finite difference itself loses accuracy
  (the curvature of the distance blows up like 1/d and 1/(pi - d));
- an argmax flip inside the probe makes the value discontinuous;
- an axis-angle norm crossing pi engages the safety rescaling.

The margins here (EXCLUSION_MARGIN around 0/pi, LOGIT_MARGIN between the
top two logits, NORM_MARGIN around the pi ball boundary) define the
documented non-smooth neighborhoods excluded from verification.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import dictionary as dct
from . import losses, so3

FD_STEP = 1e-5
REL_TOL = 1e-4
# geodesic distances must stay this far from the 0 and pi kinks
EXCLUSION_MARGIN = 1e-2
# top-two logit gap so FD probes cannot flip the argmax
LOGIT_MARGIN = 1e-3
# composed axis-angle norms stay this far from the projection boundary,
# quaternion sums stay at least this far from the zero ray
NORM_MARGIN = 1e-2
MAX_RESAMPLE = 1000


class InstanceSamplingFailed(RuntimeError):
    """Could not draw a smooth instance within the resampling budget."""


@dataclasses.dataclass(frozen=True, eq=False)
class Instance:
    prediction: object
    target: losses.Target
    dictionary: dct.PoseDictionary | None


@dataclasses.dataclass(frozen=True, eq=False)
class FamilyReport:
    family: str
    representation: str
    instances: int
    max_rel_error: float
    passed: bool


def _random_pose(representation: str, rng: np.random.Generator) -> np.ndarray:
    if representation == dct.AXIS_ANGLE:
        return so3.random_axis_angle(rng, max_angle=math.pi - 0.1).vector
    q = rng.standard_normal(4)
    return so3.canonical_quaternion(q / np.linalg.norm(q))


def _random_dictionary(spec, k: int, rng: np.random.Generator) -> dct.PoseDictionary:
    keys = np.stack([_random_pose(spec.representation, rng) for _ in range(k)])
    return dct.PoseDictionary(keys=keys, representation=spec.representation)


def _margined_logits(k: int, rng: np.random.Generator) -> np.ndarray:
    for _ in range(MAX_RESAMPLE):
        logits = rng.standard_normal(k)
        top = np.sort(logits)[-2:]
        if top[1] - top[0] >= LOGIT_MARGIN:
            return logits
    raise InstanceSamplingFailed("could not separate the top two logits")


def _internal_distances(spec, prediction, target, dictionary) -> np.ndarray:
    """Every geodesic distance the objective evaluates or clamps against."""
    fam = spec.family
    if fam == "R_E" or fam == "C":
        return np.empty(0)
    if fam == "R_G":
        return _pose_distance(spec, np.asarray(prediction, dtype=float)[None], target.y)
    logits, deltas = prediction
    label_pred = int(np.argmax(logits))
    if fam in ("M_P", "M_Pp", "M_XP", "M_XPp"):
        idx = np.arange(dictionary.size)
    else:
        idx = np.array([label_pred])
    keys = dictionary.keys[idx]
    d = deltas[idx] if spec.per_bin else np.broadcast_to(deltas, keys.shape)
    if spec.combination == "riemannian":
        # one Rodrigues call for the keys, the deltas and the target
        mats = so3.rodrigues(so3.clip_axis_angle_norm(np.concatenate([keys, d, [target.y]])))
        rel = np.swapaxes(mats[: len(idx)], -1, -2) @ mats[-1]
        out = so3.geodesic_distance_matrices(mats[len(idx) : -1], rel)
        if fam in ("M_LE", "M_LEp"):
            # the tangent target's own log must stay off the pi rejection band
            out = np.append(out, so3.geodesic_distance_matrices(np.eye(3), rel[-1]))
        return out
    s = keys + d
    if spec.representation == dct.QUATERNION:
        s = s / np.linalg.norm(s, axis=-1, keepdims=True)
    return _pose_distance(spec, s, target.y)


def _pose_distance(spec, y_a, y_b) -> np.ndarray:
    """Geodesic distance of each pose row of y_a (n, d) to the pose y_b (d,)."""
    y_a, y_b = np.asarray(y_a, dtype=float), np.asarray(y_b, dtype=float)
    if spec.representation == dct.AXIS_ANGLE:
        mats = so3.rodrigues(so3.clip_axis_angle_norm(np.concatenate([y_a, [y_b]])))
        return so3.geodesic_distance_matrices(mats[:-1], mats[-1])
    c = np.abs(y_a @ y_b) / (np.linalg.norm(y_a, axis=-1) * np.linalg.norm(y_b))
    return 2.0 * np.arccos(np.minimum(1.0, c))


def _norms_ok(spec, prediction, dictionary) -> bool:
    fam = spec.family
    if fam in ("R_G", "R_E", "C"):
        if fam == "R_G" and spec.representation == dct.AXIS_ANGLE:
            return abs(np.linalg.norm(np.asarray(prediction, dtype=float)) - math.pi) > NORM_MARGIN
        return True
    logits, deltas = prediction
    rows = deltas if spec.per_bin else np.broadcast_to(deltas, (dictionary.size, spec.pose_dim))
    if spec.combination == "riemannian":
        norms = np.linalg.norm(rows, axis=1)
        return bool(np.all(np.abs(norms - math.pi) > NORM_MARGIN))
    composed = dictionary.keys + rows
    norms = np.linalg.norm(composed, axis=1)
    if spec.representation == dct.QUATERNION:
        return bool(np.all(norms > 0.3))
    return bool(np.all(np.abs(norms - math.pi) > NORM_MARGIN))


def _smooth(spec, prediction, target, dictionary) -> bool:
    if not _norms_ok(spec, prediction, dictionary):
        return False
    d = _internal_distances(spec, prediction, target, dictionary)
    return bool(np.all((d >= EXCLUSION_MARGIN) & (d <= math.pi - EXCLUSION_MARGIN)))


def random_instance(spec: losses.ObjectiveSpec, rng: np.random.Generator, k: int = 8) -> Instance:
    """Draw one smooth instance for the family, resampling as needed."""
    fam = spec.family
    for _ in range(MAX_RESAMPLE):
        y_true = _random_pose(spec.representation, rng)
        if fam in ("R_G", "R_E"):
            pred = _random_pose(spec.representation, rng)
            inst = Instance(pred, losses.Target(y=y_true), None)
        elif fam == "C":
            inst = Instance(
                _margined_logits(k, rng),
                losses.Target(label=int(rng.integers(k))),
                None,
            )
        else:
            dictionary = _random_dictionary(spec, k, rng)
            label = dct.hard_label(y_true, dictionary)
            soft = None
            if fam in losses.SOFT_TARGET_FAMILIES:
                soft = dct.soft_assign_probs(
                    y_true, dictionary.keys, losses.resolve_gamma(spec, dictionary)
                )
            logits = _margined_logits(k, rng)
            shape = (k, spec.pose_dim) if spec.per_bin else (spec.pose_dim,)
            deltas = 0.4 * rng.standard_normal(shape)
            inst = Instance((logits, deltas), losses.Target(y=y_true, label=label, soft=soft), dictionary)
        if _smooth(spec, inst.prediction, inst.target, inst.dictionary):
            return inst
    raise InstanceSamplingFailed(f"no smooth instance for {fam} in {MAX_RESAMPLE} draws")


def _flat_views(spec, prediction):
    """(name, array) gradient slots whose entries get probed by FD."""
    fam = spec.family
    if fam in ("R_G", "R_E"):
        return [("pose", prediction)]
    if fam == "C":
        return [("logits", prediction)]
    logits, deltas = prediction
    slot = "deltas" if spec.per_bin else "delta"
    return [("logits", logits), (slot, deltas)]


def check_instance(spec: losses.ObjectiveSpec, inst: Instance, h: float = FD_STEP) -> float:
    """Max relative error between analytic and central-difference gradients.

    One objective_batch call evaluates the instance and all its probes: row
    0 is the instance, rows 2i + 1 and 2i + 2 move probed entry i by +h and
    -h (entries numbered across the gradient slots in order).
    """
    views = _flat_views(spec, inst.prediction)
    sizes = [np.size(arr) for _, arr in views]
    rows = 1 + 2 * sum(sizes)
    stacked, offset = [], 0
    for (_, arr), size in zip(views, sizes):
        probes = np.repeat(np.asarray(arr, dtype=float)[None], rows, axis=0)
        flat = probes.reshape(rows, size)
        entry = np.arange(size)
        flat[1 + 2 * (offset + entry), entry] += h
        flat[2 + 2 * (offset + entry), entry] -= h
        stacked.append(probes)
        offset += size
    prediction = stacked[0] if len(stacked) == 1 else tuple(stacked)
    batch = losses.objective_batch(
        spec, prediction, losses.target_batch(inst.target, rows), inst.dictionary
    )
    fd_all = (batch.values[1::2] - batch.values[2::2]) / (2.0 * h)

    worst, offset = 0.0, 0
    for (name, _), size in zip(views, sizes):
        fd = fd_all[offset : offset + size]
        offset += size
        analytic = batch.grads[name][0].reshape(-1)
        scale = max(float(np.max(np.abs(fd))), 1e-8)
        err = float(np.max(np.abs(analytic - fd))) / scale
        worst = max(worst, err)
    return worst


def check_family(
    spec: losses.ObjectiveSpec,
    instances: int = 100,
    seed: int = 0,
    k: int = 8,
) -> FamilyReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        inst = random_instance(spec, rng, k=k)
        worst = max(worst, check_instance(spec, inst))
    return FamilyReport(
        family=spec.family,
        representation=spec.representation,
        instances=instances,
        max_rel_error=worst,
        passed=worst <= REL_TOL,
    )


def default_specs():
    """One spec per family: axis-angle everywhere it is defined, plus the
    quaternion twins of the representation-generic families."""
    specs = []
    for fam in losses.FAMILIES:
        specs.append(losses.ObjectiveSpec(family=fam, representation=dct.AXIS_ANGLE))
    for fam in ("R_G", "R_E", "M_G", "M_P", "M_X", "M_S"):
        specs.append(losses.ObjectiveSpec(family=fam, representation=dct.QUATERNION))
    return specs


def run_all(instances: int = 100, seed: int = 0, k: int = 8):
    return [check_family(s, instances=instances, seed=seed, k=k) for s in default_specs()]
