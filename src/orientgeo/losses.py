"""Training objectives: pure regression, pure classification, and the
fourteen Bin & Delta variants, each with analytic gradients.

Gradients are hand-derived (no autodiff) in terms of the network
outputs: class logits, delta vector(s), or raw pose output.  The geodesic
path differentiates acos((tr(R(y)^T A) - 1)/2) through the Rodrigues terms:
with a(t) = sin t / t and b(t) = (1 - cos t)/t^2,

    tr(R(y)^T A) = tr A - a(t) tr([y]x A) + b(t) (y^T A y - t^2 tr A),

where t = |y|; tr([y]x A) is linear in y and the quadratic term is a plain
bilinear form, so everything reduces to scalar chain rules.  The quaternion
path differentiates 2 acos(|<s/|s|, q*>|) through the normalization.

objective_batch evaluates B samples at once on stacked arrays, one target
per row.  The axis-angle geodesic kernel under it runs coordinate-major: a
(3, ...) copy of the rows puts each coordinate's products in one long
contiguous inner loop, where (..., 3) rows would step 3 entries at a time
through broadcast axes.  Its row sums add the coordinates in index order,
so the bits are those of row-major column sums, and it copies its outputs
back in the rows' shape and memory order (C-contiguous for C-contiguous
rows): the expectation families' einsum over them, and the backward pass,
sum in an order that follows their operands' layout.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import dictionary as dct
from . import _checks, models, so3

FAMILIES = (
    "R_G",
    "R_E",
    "C",
    "M_G",
    "M_Gp",
    "M_R",
    "M_Rp",
    "M_P",
    "M_Pp",
    "M_X",
    "M_Xp",
    "M_XP",
    "M_XPp",
    "M_S",
    "M_Sp",
    "M_LE",
    "M_LEp",
)

# families that regress the pose directly: no dictionary, no labels
DIRECT_FAMILIES = ("R_G", "R_E")
# families whose regression term selects/needs the argmax label
PER_BIN_FAMILIES = tuple(f for f in FAMILIES if f.endswith("p"))
RIEMANNIAN_FAMILIES = ("M_R", "M_Rp", "M_LE", "M_LEp")
SOFT_TARGET_FAMILIES = ("M_X", "M_Xp", "M_XP", "M_XPp")
# families whose value is the softmax expectation over every head; the
# other Bin & Delta families read only head argmax(logits)
EXPECTATION_FAMILIES = ("M_P", "M_Pp", "M_XP", "M_XPp")
BIN_DELTA_FAMILIES = tuple(f for f in FAMILIES if f.startswith("M_"))

# Clamp on the acos argument inside gradients only; the value side clamps
# to [-1, 1] exactly.  The kernels clamp with np.minimum(np.maximum(..)),
# which equals np.clip without its Python wrapper.
EPS_CLAMP = 1e-7
# Cap on the acos-derivative magnitude at the distance-0/pi kinks.
GRAD_CAP = 1e6
# Distances closer than this to 0 or pi flag the gradient non-smooth.
NON_SMOOTH_MARGIN = 1e-6


class FamilyMismatch(ValueError):
    """Prediction/target shapes or spec fields inconsistent with the family."""


class NonFiniteObjective(ValueError):
    """An objective value or gradient left the finite floats; `row` is the
    first batch row where it did."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


@dataclasses.dataclass(frozen=True, eq=False)
class BatchLoss:
    """Per-row values (B,), gradients (B, ...) by name, non-smooth mask (B,)."""

    values: np.ndarray
    grads: dict
    non_smooth: np.ndarray


@dataclasses.dataclass(frozen=True)
class ObjectiveSpec:
    """Family name plus the knobs shared by all objectives.

    alpha weights the regression term (the classification term in M_Sp,
    exactly as that model is defined); defaults are 1 for shared-delta
    families and 10 for per-bin ones.  gamma parameterizes the soft target
    assignment for the relaxed families and is resolved against the
    dictionary when left None.  The family and representation fix how a
    key and its delta compose (see `combination`).
    """

    family: str
    representation: str = dct.AXIS_ANGLE
    alpha: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise FamilyMismatch(f"unknown family {self.family!r}")
        if self.representation not in dct.REPRESENTATIONS:
            raise FamilyMismatch(f"unknown representation {self.representation!r}")
        if self.family in RIEMANNIAN_FAMILIES and self.representation != dct.AXIS_ANGLE:
            raise FamilyMismatch(f"{self.family} requires the axis-angle representation")
        if self.alpha is None:
            object.__setattr__(self, "alpha", 10.0 if self.per_bin else 1.0)
        for name in ("alpha", "gamma"):
            value = getattr(self, name)
            if value is not None and not (_checks.real(value) and value > 0.0):
                raise FamilyMismatch(f"{name} must be positive and finite")

    @property
    def combination(self) -> str:
        """How a key pose and its delta compose: R(z) exp(dy) for the
        Riemannian families, the renormalized sum for quaternions, the sum
        otherwise."""
        if self.family in RIEMANNIAN_FAMILIES:
            return models.RIEMANNIAN
        if self.representation == dct.QUATERNION:
            return models.QUATERNION_RENORM
        return models.ADDITIVE

    @property
    def per_bin(self) -> bool:
        return self.family in PER_BIN_FAMILIES

    @property
    def every_head(self) -> bool:
        """Whether each row reads every per-bin head (M_Pp, M_XPp), not
        only head argmax(logits)."""
        return self.per_bin and self.family in EXPECTATION_FAMILIES

    @property
    def pose_dim(self) -> int:
        return 3 if self.representation == dct.AXIS_ANGLE else 4


@dataclasses.dataclass(frozen=True, eq=False)
class TargetBatch:
    """Ground truth for B samples as stacked arrays: poses y (B, d), hard
    labels (B,), soft assignments (B, K), and ref, the geodesic reference
    of each row (see target_references).  ref is derived from y when left
    None; callers that reuse rows across steps precompute it once."""

    y: np.ndarray | None = None
    label: np.ndarray | None = None
    soft: np.ndarray | None = None
    ref: np.ndarray | None = None

    def rows(self, idx) -> "TargetBatch":
        fields = (self.y, self.label, self.soft, self.ref)
        return TargetBatch(*(None if f is None else f[idx] for f in fields))


def target_references(representation: str, y) -> np.ndarray:
    """Geodesic reference of each pose target row in y (B, d): the rotation
    matrix of the norm-clipped axis-angle (B, 3, 3), or the canonical unit
    quaternion (B, 4)."""
    if representation == dct.AXIS_ANGLE:
        return so3.rodrigues(so3.clip_axis_angle_norm(y))
    return so3.normalize_quaternion(y)


def resolve_gamma(spec: ObjectiveSpec, dictionary):
    """gamma for the soft target: explicit > family default > dictionary
    rule.  dictionary is a PoseDictionary or a key stack (..., K, d); the
    dictionary rule gives one gamma per stack entry."""
    if spec.gamma is not None:
        return spec.gamma
    if spec.family in ("M_XP", "M_XPp"):
        return 10.0
    return dct.default_gamma(dictionary)


# ---------------------------------------------------------------------------
# the M_LE tangent target's policy in the near-pi band


def _log_near_pi(m: np.ndarray) -> np.ndarray:
    """Log (n, 3) of each rotation (n, 3, 3) in the near-pi band, where the
    skew part no longer determines the axis.

    Training with predicted labels can pair a sample with a nearly
    antipodal key; rather than abort, take the axis from the row of
    (R + I)/2 with the largest diagonal entry, its sign from the skew part
    (the canonical sign where that part is about 0), and clamp the angle
    below pi so the tangent target stays representable.
    """
    rows = np.arange(len(m))
    b = (m + so3._EYE3) / 2.0
    diag = b.diagonal(0, -2, -1)
    i0 = np.argmax(diag, axis=-1)
    v = b[rows, i0] / np.sqrt(np.maximum(diag[rows, i0], 1e-300))[:, None]
    v = v / so3._norm(v)[:, None]
    s = so3.skew_vee(m)
    flip = so3._dot(v, s) < 0.0
    canonical = np.all(np.abs(s) <= 1e-8, axis=-1)  # np.allclose(s, 0.0)
    sign = np.where(flip, -1.0, np.where(canonical, so3._first_sign(v), 1.0))
    c = np.minimum(np.maximum((np.trace(m, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0), 1.0)
    return (sign * np.minimum(np.arccos(c), math.pi - 1e-6))[:, None] * v


# ---------------------------------------------------------------------------
# geodesic value/gradient kernels


def _dot_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_i u_i v_i over the last axis (leading axes broadcast): one product
    u * v, then its columns added in index order.  einsum picks its order
    from the operands' shapes and strides, so a row broadcast against K
    keys could round differently from the same row alone; column sums keep
    each row's value independent of the batch around it."""
    p = u * v
    out = p[..., 0] + p[..., 1]
    for i in range(2, p.shape[-1]):
        out += p[..., i]
    return out


def _acos_grad_factor(u: np.ndarray) -> np.ndarray:
    """d acos(u)/du with the argument clamped and the magnitude capped."""
    uc = np.minimum(np.maximum(u, -1.0 + EPS_CLAMP), 1.0 - EPS_CLAMP)
    return -np.minimum(1.0 / np.sqrt(1.0 - uc * uc), GRAD_CAP)


def _non_smooth(values: np.ndarray) -> np.ndarray:
    return (values < NON_SMOOTH_MARGIN) | (values > math.pi - NON_SMOOTH_MARGIN)


def _geodesic_axis_angle(ys: np.ndarray, a_mat: np.ndarray):
    """Geodesic distance of rodrigues(y) to A, row by row, and its gradient.

    ys is (..., 3) and a_mat (..., 3, 3), one target matrix per row; the
    leading axes of a_mat broadcast to those of ys.  Returns (values,
    grads, non_smooth) shaped like the rows and laid out in memory as the
    rows are (C-contiguous for C-contiguous rows).  Rows with norm >= pi
    pass through the safety rescaling onto norm pi - 1e-6 and the gradient
    is chained through that projection.

    The kernel runs coordinate-major: it copies ys to (3, ...) and a_mat to
    (3, 3, ...) with the leading axes reversed, so that every product runs
    over the rows in one contiguous inner loop and a broadcast axis (one
    target against K keys) is outermost; on (..., 3) rows numpy steps 3
    entries at a time.  Each row sum adds the coordinates in index order,
    as column sums of (..., 3) rows did, so every bit is the same.  The
    scratch arrays are reused in place, since each fresh one of a large
    block costs page faults.  The outputs are copied back in the rows'
    memory order, the order elementwise numpy operations on the rows give:
    a later einsum or matmul over them sums in an order that follows its
    operands' layout, so a transposed view would move the objective's bits.
    """
    yc = np.array(ys.T, dtype=float, order="C")  # always a copy: it is scratch below
    am = np.ascontiguousarray(a_mat[(None,) * (yc.ndim + 1 - a_mat.ndim)].T.swapaxes(0, 1))
    am_t = am.swapaxes(0, 1)  # am[r, c] is A[..., r, c], am_t[r, c] is A[..., c, r]
    sq = yc * yc  # scratch of the rows' shape
    n = np.sqrt(np.add.reduce(sq))  # np.linalg.norm without its wrapper
    projected = n >= math.pi
    n_pi = np.maximum(n, math.pi)
    scale = np.where(projected, so3.MAX_AXIS_ANGLE_NORM / n_pi, 1.0)
    y = yc * scale

    t = np.sqrt(np.add.reduce(np.multiply(y, y, out=sq)))
    tt = t * t
    small = t < so3.EPS_THETA
    any_small = small.any()  # no training row is; the series limits are built only if one is
    ts = np.where(small, 1.0, t) if any_small else t
    sin_t, cos_t = np.sin(t), np.cos(t)
    versin = 1.0 - cos_t
    a, b = sin_t / ts, versin / (ts * ts)
    # a'(t)/t and b'(t)/t have finite limits -1/3 and -1/12 at t = 0
    ap_t = (t * cos_t - sin_t) / ts**3
    bp_t = (t * sin_t - 2.0 * versin) / ts**4
    if any_small:
        limits = (1.0 - tt / 6.0, 0.5 - tt / 24.0, -1.0 / 3.0, -1.0 / 12.0)
        a, b, ap_t, bp_t = (np.where(small, lim, v) for lim, v in zip(limits, (a, b, ap_t, bp_t)))

    tr_a = am[0, 0] + am[1, 1] + am[2, 2]  # np.trace's order
    w = (am_t - am)[so3._SKEW_ROWS, so3._SKEW_COLS]  # hat(w) = A^T - A
    t1 = np.add.reduce(np.multiply(y, w, out=sq))
    prod = am * y  # scratch (3, 3, ...): the products A[r, c] y_c
    ay = np.add.reduce(prod, axis=1)
    t2 = np.add.reduce(np.multiply(y, ay, out=sq)) - tt * tr_a
    u = (tr_a - a * t1 + b * t2 - 1.0) / 2.0

    # y^T (A + A^T) = (A + A^T) y: the sum is symmetric
    sym = np.add.reduce(np.multiply(am + am_t, y, out=prod), axis=1, out=ay)
    # grads = acos'(u) * 0.5 * ((bp_t t2 - ap_t t1) y - a w + b (sym - 2 tr_a y))
    tmp = prod[0]
    grads = np.multiply(bp_t * t2 - ap_t * t1, y, out=sq)
    grads -= np.multiply(a, w, out=tmp)
    sym -= np.multiply(2.0 * tr_a, y, out=tmp)
    sym *= b
    grads += sym
    grads *= 0.5
    grads *= _acos_grad_factor(u)

    # d/dy of y * pi'/|y| projects out the radial part and rescales
    unit = np.divide(yc, n_pi, out=yc)
    radial = np.multiply(np.add.reduce(np.multiply(unit, grads, out=tmp)), unit, out=unit)
    chained = np.subtract(grads, radial, out=radial)
    chained *= scale
    np.copyto(grads, chained, where=projected)

    # the gradient goes back one coordinate at a time: one transposing copy
    # to (..., 3) would step 3 entries at a time
    values = np.empty_like(ys[..., 0], dtype=float)
    np.arccos(np.minimum(np.maximum(u, -1.0), 1.0).T, out=values)
    rows = np.empty_like(ys, dtype=float)
    for c in range(3):
        rows[..., c] = grads[c].T
    return values, rows, _non_smooth(values)


def _geodesic_quaternion(ss: np.ndarray, q_true: np.ndarray):
    """2 acos(|<s/|s|, q*>|) row by row and its gradient in the raw
    (unnormalized) rows s (..., 4); q_true (..., 4) broadcasts."""
    n = np.linalg.norm(ss, axis=-1)
    collapsed = np.nonzero(n < 1e-12)[0]
    if collapsed.size:
        row = int(collapsed[0])
        raise models.ZeroSum(f"quaternion sum collapsed to zero in row {row}", row)
    q = ss / n[..., None]
    craw = _dot_rows(q, q_true)
    cabs = np.abs(craw)
    values = 2.0 * np.arccos(np.minimum(cabs, 1.0))
    sign = np.where(craw < 0.0, -1.0, 1.0)
    dfac = 2.0 * _acos_grad_factor(cabs)  # d value / d cabs
    # d cabs/ds = sign (q* - craw q) / |s|
    grads = (dfac * sign / n)[..., None] * (q_true - craw[..., None] * q)
    return values, grads, _non_smooth(values)


def _geodesic(representation: str, ys: np.ndarray, ref: np.ndarray):
    if representation == dct.AXIS_ANGLE:
        return _geodesic_axis_angle(ys, ref)
    return _geodesic_quaternion(ys, ref)


# ---------------------------------------------------------------------------
# elementary losses


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    z = np.asarray(logits, dtype=float)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=-1, keepdims=True))


def _cross_entropy_rows(logits: np.ndarray, labels: np.ndarray):
    """-log softmax(logits)[label] per row; gradient softmax - onehot."""
    logp = _log_softmax(logits)
    rows = np.arange(logits.shape[0])
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    return -logp[rows, labels], grad


def _kl_rows(p: np.ndarray, logits: np.ndarray):
    """sum_k p*_k (log p*_k - log p_k) per row with 0 log 0 = 0; gradient p - p*."""
    logp = _log_softmax(logits)
    mask = p > 0.0
    terms = np.where(mask, p * (np.log(np.where(mask, p, 1.0)) - logp), 0.0)
    return np.maximum(terms.sum(axis=-1), 0.0), np.exp(logp) - p


def _checked(values: np.ndarray, grads: dict, non_smooth=None) -> BatchLoss:
    """The batch's one finiteness check; reports the first row that fails."""
    if not (np.isfinite(values).all() and all(np.isfinite(g).all() for g in grads.values())):
        rows = [np.isfinite(g).reshape(len(g), -1).all(axis=1) for g in grads.values()]
        bad = int(np.argmin(np.logical_and.reduce([np.isfinite(values), *rows])))
        raise NonFiniteObjective(
            f"non-finite loss value {float(values[bad])!r} or gradient in row {bad}", bad
        )
    if non_smooth is None:
        non_smooth = np.zeros(values.shape, dtype=bool)
    return BatchLoss(values, grads, non_smooth)


# ---------------------------------------------------------------------------
# family dispatch


def _stacked(a, tail: tuple, what: str) -> np.ndarray:
    """a as float rows (B, *tail); None in tail matches any width."""
    a = np.asarray(a, dtype=float)
    fits = a.ndim == 1 + len(tail) and all(t in (None, s) for s, t in zip(a.shape[1:], tail))
    if not fits:
        want = ", ".join(["B"] + ["K" if t is None else str(t) for t in tail])
        raise FamilyMismatch(f"{what} must have shape ({want}), got {a.shape}")
    return a


def _target_field(targets: TargetBatch, name: str, fam: str, b: int) -> np.ndarray:
    f = getattr(targets, name)
    if f is None:
        raise FamilyMismatch(f"{fam} needs the {name!r} target")
    if len(f) != b:
        raise FamilyMismatch(f"{len(f)} {name!r} target rows for {b} prediction rows")
    return f


def _references(spec: ObjectiveSpec, targets: TargetBatch, b: int) -> np.ndarray:
    if targets.ref is not None:
        return _target_field(targets, "ref", spec.family, b)
    return target_references(spec.representation, _target_field(targets, "y", spec.family, b))


def objective_batch(
    spec: ObjectiveSpec,
    prediction,
    targets: TargetBatch,
    dictionary=None,
) -> BatchLoss:
    """Per-row objective values, gradients and non-smooth flags of B samples.

    prediction stacks B network outputs: poses (B, d) for R_G/R_E, logits
    (B, K) for C, and a (logits (B, K), deltas) pair for the Bin & Delta
    families.  deltas is (B, d): the shared delta, or for M_Gp, M_Rp, M_Xp,
    M_Sp and M_LEp each row's own head argmax(logits), ties at the lowest
    index as np.argmax takes them; M_Pp and M_XPp read all K heads
    (B, K, d).  The Bin & Delta keys come from dictionary: a PoseDictionary
    shared by all rows, or per-row keys (B, K, d).  Gradients come back in
    the prediction's shapes under "pose", "logits", "delta" or "deltas".
    Rows are independent of each other when C-contiguous: the expectation
    families' einsum sums in an order set by the rows' memory layout.
    Raises FamilyMismatch on shapes or targets inconsistent with the family
    and NonFiniteObjective when a value or gradient is not finite.
    """
    fam = spec.family
    if fam in DIRECT_FAMILIES:
        y = _stacked(prediction, (spec.pose_dim,), f"{fam} poses")
        b = y.shape[0]
        if fam == "R_E":
            diff = y - _target_field(targets, "y", fam, b)
            return _checked(np.einsum("bi,bi->b", diff, diff), {"pose": 2.0 * diff})
        vals, grads, ns = _geodesic(spec.representation, y, _references(spec, targets, b))
        return _checked(vals, {"pose": grads}, ns)

    if fam == "C":
        logits = _stacked(prediction, (None,), "C logits")
        v, g = _cross_entropy_rows(logits, _target_field(targets, "label", fam, logits.shape[0]))
        return _checked(v, {"logits": g})

    try:
        logits, deltas = prediction
    except (TypeError, ValueError):
        raise FamilyMismatch(f"{fam} expects a (logits, deltas) prediction pair")
    d = spec.pose_dim
    if dictionary is None:
        raise FamilyMismatch(f"{fam} needs a pose dictionary")
    if isinstance(dictionary, dct.PoseDictionary):
        if dictionary.representation != spec.representation:
            raise FamilyMismatch("dictionary representation does not match the objective")
        keys = dictionary.keys
    else:
        keys = _stacked(dictionary, (None, d), "per-row keys")
    k = keys.shape[-2]
    logits = _stacked(logits, (k,), "logits")
    deltas = _stacked(deltas, (k, d) if spec.every_head else (d,), "deltas")
    b = logits.shape[0]
    if deltas.shape[0] != b:
        raise FamilyMismatch(f"{b} logit rows but {deltas.shape[0]} delta rows")
    if keys.ndim == 3 and keys.shape[0] != b:
        raise FamilyMismatch(f"{b} logit rows but {keys.shape[0]} key rows")
    keys = np.broadcast_to(keys, (b, k, d))
    y = _target_field(targets, "y", fam, b)
    label = _target_field(targets, "label", fam, b)
    alpha = spec.alpha
    rows = np.arange(b)
    label_pred = np.argmax(logits, axis=1)  # ties take the lowest index
    delta_name = "deltas" if spec.per_bin else "delta"

    if fam in SOFT_TARGET_FAMILIES:
        base_v, base_g = _kl_rows(_target_field(targets, "soft", fam, b), logits)
    else:
        base_v, base_g = _cross_entropy_rows(logits, label)

    if fam in ("M_G", "M_Gp", "M_R", "M_Rp", "M_X", "M_Xp"):
        ref = _references(spec, targets, b)
        if spec.combination == models.RIEMANNIAN:
            rel = _relative_to_keys(keys[rows, label_pred], ref)
            vreg, greg, ns = _geodesic_axis_angle(deltas, rel)
        else:
            vreg, greg, ns = _geodesic(spec.representation, keys[rows, label_pred] + deltas, ref)
        grads = {"logits": base_g, delta_name: alpha * greg}
        return _checked(alpha * vreg + base_v, grads, ns)

    if fam in EXPECTATION_FAMILIES:
        composed = keys + (deltas if spec.per_bin else deltas[:, None, :])
        ref = _references(spec, targets, b)[:, None]
        vals, grows, ns = _geodesic(spec.representation, composed, ref)
        p = softmax(logits)
        expected = np.einsum("bk,bk->b", p, vals)
        # d/d logits of sum_k p_k v_k through the softmax jacobian
        g_logits = base_g + alpha * (p * (vals - expected[:, None]))
        if spec.per_bin:
            g_deltas = alpha * p[..., None] * grows
        else:
            g_deltas = alpha * np.einsum("bk,bkd->bd", p, grows)
        values = alpha * expected + base_v
        return _checked(values, {"logits": g_logits, delta_name: g_deltas}, ns.any(axis=1))

    if fam in ("M_S", "M_Sp"):
        # delta* = y* - z_{l*}: the residual against the ground-truth key
        diff = deltas - (y - keys[rows, label])
        vreg = np.einsum("bi,bi->b", diff, diff)
        if fam == "M_S":
            # alpha on the regression term (Simple shared-delta, as printed)
            grads = {"logits": base_g, delta_name: alpha * 2.0 * diff}
            return _checked(alpha * vreg + base_v, grads)
        # M_Sp puts alpha on the classification term, exactly as printed
        grads = {"logits": alpha * base_g, delta_name: 2.0 * diff}
        return _checked(alpha * base_v + vreg, grads)

    if fam in ("M_LE", "M_LEp"):
        # tangent target log(R_k^T R*) of each row's selected key
        rel = _relative_to_keys(keys[rows, label_pred], _references(spec, targets, b))
        near_pi = so3.near_pi(rel)
        gtan = np.empty((b, 3))
        gtan[~near_pi] = so3.log_rotation(rel[~near_pi])
        gtan[near_pi] = _log_near_pi(rel[near_pi])
        diff = deltas - gtan
        vreg = np.einsum("bi,bi->b", diff, diff)
        grads = {"logits": base_g, delta_name: alpha * 2.0 * diff}
        return _checked(base_v + alpha * vreg, grads)

    raise FamilyMismatch(f"unhandled family {fam!r}")


def _relative_to_keys(key_rows: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """R_k^T R* for each row's key (B, 3) and target rotation (B, 3, 3)."""
    return np.swapaxes(so3.rodrigues(so3.clip_axis_angle_norm(key_rows)), -1, -2) @ ref


# ---------------------------------------------------------------------------
# schedules


SIMPLE_INIT = {"M_G": "M_S", "M_Gp": "M_Sp", "M_R": "M_S", "M_Rp": "M_Sp"}


def simple_init_schedule(spec: ObjectiveSpec, epochs: int):
    """Objective per training epoch: one Simple warm-start epoch for the
    geodesic/riemannian Bin & Delta families, then the target objective."""
    init = SIMPLE_INIT.get(spec.family)
    schedule = [] if init is None else [dataclasses.replace(spec, family=init)]
    schedule.extend([spec] * epochs)
    return schedule
