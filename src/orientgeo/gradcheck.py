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
documented non-smooth neighborhoods excluded from verification.  The
distances are measured with the library's rotation maps: the predicted
pose's dictionary.pose_matrices against the target's, each key and delta
fused by models.compose_rotation, and the M_LE tangent target
pose_matrices(keys)^T R*.  They are taken only where the norms pass.

Sampling and checking are stacked.  Candidates are drawn in batches and
tested for smoothness together; the instances are the first smooth
candidates of the seed's stream, as if drawn one at a time.  The draws are
written in place into preallocated arrays with one generator call per
contiguous run of normals (a candidate's quaternion poses are one run).
check_family evaluates the probe rows of many instances, each with its own
keys, in one objective_batch call of at most _ROW_BUDGET rows.

FD probes every entry of the prediction the objective reads.  For the
hard-label per-bin families that is the deltas of head argmax(logits), as
for a shared delta; the sampler still draws and tests all K heads, so the
instance stream is that of every family with K heads.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import dictionary as dct
from . import _checks, losses, models, so3

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


# probe rows per objective_batch call: check_family stacks the probe blocks
# of as many instances as fit (at least one), which bounds its memory
_ROW_BUDGET = 1024


class InstanceSamplingFailed(RuntimeError):
    """Could not draw a smooth instance within the resampling budget."""


@dataclasses.dataclass(frozen=True, eq=False)
class FamilyReport:
    family: str
    representation: str
    instances: int
    max_rel_error: float
    passed: bool


@dataclasses.dataclass(frozen=True, eq=False)
class _Stack:
    """n instances of one spec as arrays with a leading n axis, None where
    the family has no such field: predicted poses (R_G/R_E), logits,
    deltas, the targets' y, label and soft rows, and the keys (n, K, d)."""

    pose: np.ndarray | None = None
    logits: np.ndarray | None = None
    deltas: np.ndarray | None = None
    y: np.ndarray | None = None
    label: np.ndarray | None = None
    soft: np.ndarray | None = None
    keys: np.ndarray | None = None

    def fields(self):
        return [getattr(self, f.name) for f in dataclasses.fields(self)]

    def rows(self, idx) -> "_Stack":
        return _Stack(*(None if f is None else f[idx] for f in self.fields()))

    @property
    def size(self) -> int:
        return len(self.logits if self.pose is None else self.pose)

    def views(self, spec):
        """(gradient name, prediction rows) of the slots FD probes, in order:
        what objective_batch takes, so for a hard-label per-bin family the
        deltas of head argmax(logits), which LOGIT_MARGIN keeps selected."""
        if self.pose is not None:
            return [("pose", self.pose)]
        if self.deltas is None:
            return [("logits", self.logits)]
        deltas = self.deltas
        if spec.per_bin and not spec.every_head:
            deltas = deltas[np.arange(self.size), np.argmax(self.logits, axis=1)]
        return [("logits", self.logits), ("deltas" if spec.per_bin else "delta", deltas)]


def _concat(stacks) -> _Stack:
    if len(stacks) == 1:
        return stacks[0]
    columns = zip(*(s.fields() for s in stacks))
    return _Stack(*(None if c[0] is None else np.concatenate(c) for c in columns))


def _margined_logits(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill out (k,) with normals until its top two differ by LOGIT_MARGIN."""
    for _ in range(MAX_RESAMPLE):
        rng.standard_normal(out=out)
        top = sorted(out.tolist())[-2:]  # Python floats: cheaper than np.sort for a few entries
        if top[1] - top[0] >= LOGIT_MARGIN:
            return
    raise InstanceSamplingFailed("could not separate the top two logits")


def _draw(spec, rng: np.random.Generator, k: int, n: int) -> _Stack:
    """The next n candidates of the spec's stream.  Each candidate draws
    its target pose, then the predicted pose (R_G/R_E), the K keys, the
    logits and the deltas (Bin & Delta), or the logits and the label (C).
    A pose is a normal direction scaled by a uniform angle, or a canonical
    unit quaternion; the smoothness test consumes no draws.

    The draws are written in place into preallocated arrays, one generator
    call per run of normals: a candidate's quaternion poses are one run, an
    axis-angle pose's direction is one, each logit attempt and the deltas
    are one each.  (pi - 0.1) * rng.random() is uniform(0, pi - 0.1) bit for
    bit, so the stream is the one-call-per-pose stream."""
    fam, d = spec.family, spec.pose_dim
    bin_delta = fam in losses.BIN_DELTA_FAMILIES
    n_poses = 2 if fam in losses.DIRECT_FAMILIES else 1 + k if bin_delta else 1
    aa = spec.representation == dct.AXIS_ANGLE
    raw = np.empty((n, n_poses, d))
    angles = np.empty((n, n_poses)) if aa else None
    logits = np.empty((n, k)) if fam == "C" or bin_delta else None
    labels = np.empty(n, dtype=np.int64) if fam == "C" else None
    deltas = np.empty((n, k, d) if spec.per_bin else (n, d)) if bin_delta else None
    high = math.pi - 0.1
    for i in range(n):
        if aa:
            for j in range(n_poses):
                rng.standard_normal(out=raw[i, j])
                angles[i, j] = high * rng.random()
        else:
            rng.standard_normal(out=raw[i])
        if logits is not None:
            _margined_logits(rng, logits[i])
        if labels is not None:
            labels[i] = rng.integers(k)
        elif deltas is not None:
            rng.standard_normal(out=deltas[i])
    # so3._norm sums each row as np.linalg.norm sums one vector
    unit = raw / so3._norm(raw)[..., None]
    poses = angles[..., None] * unit if aa else so3.canonical_quaternion(unit)
    y = poses[:, 0]
    if fam in losses.DIRECT_FAMILIES:
        return _Stack(pose=poses[:, 1], y=y)
    if fam == "C":
        return _Stack(logits=logits, label=labels)
    keys = poses[:, 1:]
    soft = None
    if fam in losses.SOFT_TARGET_FAMILIES:
        soft = dct.soft_assign_probs(y, keys, losses.resolve_gamma(spec, keys))
    deltas *= 0.4
    return _Stack(
        logits=logits,
        deltas=deltas,
        y=y,
        label=dct.hard_labels(y, keys),
        soft=soft,
        keys=keys,
    )


def _internal_distances(spec, c: _Stack) -> np.ndarray:
    """Every geodesic distance the objective evaluates or clamps against,
    (n, m) for n candidates."""
    fam, rep = spec.family, spec.representation
    if fam == "R_E" or fam == "C":
        return np.empty((c.size, 0))
    target = dct.pose_matrices(c.y, rep)[:, None]
    if fam == "R_G":
        return so3.geodesic_distance_matrices(dct.pose_matrices(c.pose[:, None], rep), target)
    rows = np.arange(c.size)
    if fam in losses.EXPECTATION_FAMILIES:
        keys = c.keys
        d = c.deltas if spec.per_bin else np.broadcast_to(c.deltas[:, None], keys.shape)
    else:
        label_pred = np.argmax(c.logits, axis=1)
        keys = c.keys[rows, label_pred][:, None]
        d = (c.deltas[rows, label_pred] if spec.per_bin else c.deltas)[:, None]
    out = so3.geodesic_distance_matrices(models.compose_rotation(spec.combination, keys, d), target)
    if fam in ("M_LE", "M_LEp"):
        # the tangent target's own log must stay off the pi rejection band
        rel = dct.pose_matrices(keys, rep).mT @ target
        out = np.concatenate([out, so3.geodesic_distance_matrices(so3._EYE3, rel)], 1)
    return out


def _norms_ok(spec, c: _Stack) -> np.ndarray:
    fam = spec.family
    if fam in losses.DIRECT_FAMILIES or fam == "C":
        if fam == "R_G" and spec.representation == dct.AXIS_ANGLE:
            return np.abs(so3._norm(c.pose) - math.pi) > NORM_MARGIN
        return np.ones(c.size, dtype=bool)
    rows = c.deltas if spec.per_bin else c.deltas[:, None]
    if spec.combination == models.RIEMANNIAN:
        norms = so3._norm(rows)
        return np.all(np.abs(norms - math.pi) > NORM_MARGIN, axis=1)
    norms = so3._norm(c.keys + rows)
    if spec.representation == dct.QUATERNION:
        return np.all(norms > 0.3, axis=1)
    return np.all(np.abs(norms - math.pi) > NORM_MARGIN, axis=1)


def _smooth(spec, c: _Stack) -> np.ndarray:
    """Mask (n,) of the candidates whose objective is smooth around them.
    Distances are taken only where the norms pass, so a key plus delta that
    sums to the zero quaternion is rejected, not raised."""
    ok = _norms_ok(spec, c)
    d = _internal_distances(spec, c.rows(ok))
    ok[ok] = np.all((d >= EXCLUSION_MARGIN) & (d <= math.pi - EXCLUSION_MARGIN), axis=1)
    return ok


def _sample(spec, rng: np.random.Generator, k: int, n: int) -> _Stack:
    """The first n smooth candidates of the spec's stream.

    Candidates are drawn in batches that never outrun the instances still
    needed, nor the resampling budget, so the rng ends where drawing one
    instance at a time leaves it.  MAX_RESAMPLE rejections in a row raise.
    """
    found, rejected, parts = 0, 0, []
    while found < n:
        c = _draw(spec, rng, k, min(n - found, MAX_RESAMPLE - rejected))
        kept = np.flatnonzero(_smooth(spec, c))
        parts.append(c.rows(kept))
        found += len(kept)
        rejected = c.size - 1 - kept[-1] if len(kept) else rejected + c.size
        if rejected == MAX_RESAMPLE:
            raise InstanceSamplingFailed(
                f"no smooth instance for {spec.family} in {MAX_RESAMPLE} draws"
            )
    return _concat(parts)


def _probe_errors(spec, s: _Stack, h: float) -> np.ndarray:
    """Max relative error between analytic and central-difference gradients
    of each instance (n,), from one objective_batch call.

    Each instance owns a block of rows: its first row is the instance,
    rows 2i + 1 and 2i + 2 move entry i by +h and -h (entries numbered
    across the gradient slots in order).
    """
    n, views = s.size, s.views(spec)
    sizes = [arr[0].size for _, arr in views]
    rows = 1 + 2 * sum(sizes)
    stacked, offset = [], 0
    for (_, arr), size in zip(views, sizes):
        probes = np.repeat(np.asarray(arr, dtype=float)[:, None], rows, axis=1)
        flat = probes.reshape(n, rows, size)
        entry = np.arange(size)
        flat[:, 1 + 2 * (offset + entry), entry] += h
        flat[:, 2 + 2 * (offset + entry), entry] -= h
        stacked.append(probes.reshape((n * rows,) + probes.shape[2:]))
        offset += size
    prediction = stacked[0] if len(stacked) == 1 else tuple(stacked)
    ref = None if s.y is None else losses.target_references(spec.representation, s.y)
    y, label, soft, ref, keys = (None if f is None else np.repeat(f, rows, axis=0)
                                 for f in (s.y, s.label, s.soft, ref, s.keys))
    batch = losses.objective_batch(spec, prediction, losses.TargetBatch(y, label, soft, ref), keys)
    values = batch.values.reshape(n, rows)
    fd_all = (values[:, 1::2] - values[:, 2::2]) / (2.0 * h)

    worst, offset = np.zeros(n), 0
    for (name, _), size in zip(views, sizes):
        fd = fd_all[:, offset : offset + size]
        offset += size
        analytic = batch.grads[name].reshape(n, rows, size)[:, 0]
        scale = np.maximum(np.max(np.abs(fd), axis=1), 1e-8)
        worst = np.maximum(worst, np.max(np.abs(analytic - fd), axis=1) / scale)
    return worst


def check_family(
    spec: losses.ObjectiveSpec,
    instances: int = 100,
    seed: int = 0,
    k: int = 8,
) -> FamilyReport:
    """Check `instances` smooth instances drawn from default_rng(seed),
    stacking the probe blocks of as many as fit in _ROW_BUDGET rows into
    each objective_batch call.  ValueError unless instances is an integer
    >= 1, k one >= 2 and seed one >= 0."""
    instances = _checks.count(instances, "instances")
    k = _checks.count(k, "k", 2)
    rng = np.random.default_rng(_checks.count(seed, "seed", 0))
    per_call = max(1, _ROW_BUDGET // _probe_rows(spec, k))
    worst = 0.0
    for start in range(0, instances, per_call):
        stack = _sample(spec, rng, k, min(per_call, instances - start))
        worst = max(worst, float(np.max(_probe_errors(spec, stack, FD_STEP))))
    return FamilyReport(
        family=spec.family,
        representation=spec.representation,
        instances=instances,
        max_rel_error=worst,
        passed=worst <= REL_TOL,
    )


def _probe_rows(spec, k: int) -> int:
    """Rows of one instance's probe block: the instance and two per probed
    entry."""
    d = spec.pose_dim
    if spec.family in losses.DIRECT_FAMILIES:
        return 1 + 2 * d
    if spec.family == "C":
        return 1 + 2 * k
    return 1 + 2 * (k + (k * d if spec.every_head else d))


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
