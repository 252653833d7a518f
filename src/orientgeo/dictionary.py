"""Key-pose dictionaries: K-means over pose targets plus label assignment.

Clustering runs in the chosen vector representation (axis-angle 3-vectors or
quaternion 4-vectors) with plain Euclidean distance, the same distance the
hard-label rule argmin_k |y - z_k| uses; this is not geodesic K-means.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import _checks, so3

AXIS_ANGLE = "axis_angle"
QUATERNION = "quaternion"
REPRESENTATIONS = (AXIS_ANGLE, QUATERNION)

KMEANS_MAX_ITER = 300
KMEANS_SHIFT_TOL = 1e-10

# rows per block of the label and Lloyd distances: a call holds one
# (rows, K) block, never an (n, K) matrix
_BLOCK_ROWS = 512
# relative slack on Hamerly's bounds, far above their rounding error: a row
# keeps its label unrecomputed only when its bounds are this far apart, so
# ties and near-ties are always recomputed
_BOUND_SLACK = 1e-9


class InsufficientData(ValueError):
    """Fewer targets than requested clusters."""


class DegenerateDictionary(ValueError):
    """Dictionary with coincident keys where distinct keys are required."""


def _check_representation(representation):
    if representation not in REPRESENTATIONS:
        raise ValueError(f"unknown representation {representation!r}")


@dataclasses.dataclass(frozen=True, eq=False)
class PoseDictionary:
    """K key poses as rows of ``keys`` plus the representation tag."""

    keys: np.ndarray
    representation: str

    def __post_init__(self):
        _check_representation(self.representation)
        keys = np.array(self.keys, dtype=float)
        dim = 3 if self.representation == AXIS_ANGLE else 4
        if keys.ndim != 2 or keys.shape[1] != dim:
            raise ValueError(f"keys must be (K, {dim}), got {keys.shape}")
        if keys.shape[0] < 1:
            raise ValueError("dictionary needs at least one key")
        if not np.all(np.isfinite(keys)):
            raise ValueError("keys must be finite")
        keys.setflags(write=False)
        object.__setattr__(self, "keys", keys)

    @property
    def size(self) -> int:
        return self.keys.shape[0]


def pose_matrices(poses, representation: str) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of pose vector rows (..., d), keys or
    network outputs: the norm-clipped axis-angle's Rodrigues matrix, or the
    normalized quaternion's matrix."""
    if representation == AXIS_ANGLE:
        return so3.rodrigues(so3.clip_axis_angle_norm(poses))
    return so3._quat_to_matrix(so3.normalize_quaternion(poses))


def _renormalize_centroids(centroids: np.ndarray, representation: str) -> np.ndarray:
    """Pull averaged centroids back onto the representation's domain.

    Quaternion means drift off the unit sphere; axis-angle means cannot leave
    the norm-pi ball by convexity but are clamped anyway for safety.
    """
    if representation == AXIS_ANGLE:
        return so3.clip_axis_angle_norm(centroids)
    if not np.all(np.linalg.norm(centroids, axis=-1) >= 1e-12):  # zero, or an empty cluster's NaN
        raise DegenerateDictionary("quaternion centroid collapsed to zero")
    return so3.normalize_quaternion(centroids)


def _plus_plus_seeds(targets: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++: first center uniform, then proportional to squared distance."""
    n = targets.shape[0]
    centers = np.empty((k, targets.shape[1]))
    idx = int(rng.integers(n))
    centers[0] = targets[idx]
    d2 = np.sum((targets - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass on already-chosen points: fall back to uniform
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = targets[idx]
        d2 = np.minimum(d2, np.sum((targets - centers[j]) ** 2, axis=1))
    return centers


def fit_kmeans(targets, k: int, seed: int, representation: str = AXIS_ANGLE) -> PoseDictionary:
    """Lloyd's algorithm with k-means++ seeding, deterministic given seed.

    Stops when the largest centroid shift falls below 1e-10 or after 300
    iterations.  Empty clusters are repaired by reassigning the point
    farthest from its current centroid.  Every iteration's labels are the
    exact argmin over all keys, ties to the lowest index; Hamerly's bounds
    (SDM 2010) spare the distance rows of points whose nearest key
    provably stayed the same, and the rest are computed in row blocks.
    """
    _check_representation(representation)
    targets = np.array(targets, dtype=float)
    if targets.ndim != 2:
        raise ValueError("targets must be a list of equal-length vectors")
    k = _checks.count(k, "k")
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")
    n = targets.shape[0]
    if n < k:
        raise InsufficientData(f"{n} targets for {k} clusters")
    rng = np.random.default_rng(_checks.count(seed, "seed", 0))
    centers = _plus_plus_seeds(targets, k, rng)
    labels = np.zeros(n, dtype=np.intp)
    upper = np.full(n, np.inf)  # >= distance to the own centre
    lower = np.zeros(n)  # <= distance to every other centre
    radius = float(np.linalg.norm(targets, axis=1).max())
    for _ in range(KMEANS_MAX_ITER):
        # every distance and centre shift is at most 2 * radius, which bounds
        # the rounding the bounds have picked up; NaN bounds (an emptied
        # cluster's centre) fail the test too
        radius = max(radius, float(np.linalg.norm(centers, axis=1).max()))
        stale = np.flatnonzero(~(upper + _BOUND_SLACK * (upper + radius) < lower))
        for rows, d2 in _row_blocks(targets[stale], centers):
            at = stale[rows]
            labels[at] = np.argmin(d2, axis=1)
            own = np.arange(d2.shape[0]), labels[at]
            upper[at] = np.sqrt(d2[own])
            d2[own] = np.inf
            lower[at] = np.sqrt(d2.min(axis=1))
        counts = np.bincount(labels, minlength=k)
        if not counts.all():
            # empty-cluster repair: hand the farthest point to each empty cluster
            assigned = _sq_distances(targets, centers[labels][:, None])[:, 0]
            for j in range(k):
                if not counts[j]:
                    far = int(np.argmax(assigned))
                    counts[labels[far]] -= 1
                    counts[j] += 1
                    labels[far] = j
                    assigned[far] = -np.inf
                    upper[far] = np.inf  # its bounds were for another centre
        sums = np.stack(
            [np.bincount(labels, weights=col, minlength=k) for col in targets.T], axis=1
        )
        new_centers = _renormalize_centroids(sums / counts[:, None], representation)
        step = new_centers - centers
        centers = new_centers
        if np.max(np.abs(step)) < KMEANS_SHIFT_TOL:
            break
        # a centre moved by m changes a point's distance to it by at most m
        moved = np.sqrt(np.sum(step**2, axis=1))
        upper += moved[labels]
        first, second = int(np.argmax(moved)), np.partition(moved, k - 2)[k - 2]
        lower -= np.where(labels == first, second, moved[first])
    return PoseDictionary(centers, representation)


def _keys(dictionary) -> np.ndarray:
    """The keys of a PoseDictionary (K, d), or a key stack (..., K, d) as
    floats: one dictionary per stack entry."""
    if isinstance(dictionary, PoseDictionary):
        return dictionary.keys
    return np.asarray(dictionary, dtype=float)


def _sq_distances(y, keys: np.ndarray) -> np.ndarray:
    """|y - z_k|^2 of each row of y (..., d) to every key: (..., K).  keys
    is one dictionary (K, d) for all rows, or a stack (..., K, d) whose
    leading axes broadcast against y's; coordinates add in index order."""
    y = np.asarray(y, dtype=float)
    # one column at a time keeps the (n, K, d) difference array out of memory
    return sum((y[..., None, j] - keys[..., j]) ** 2 for j in range(keys.shape[-1]))


def _row_blocks(ys: np.ndarray, keys: np.ndarray):
    """(rows, |y - z_k|^2 (rows, K)) for consecutive row blocks of ys
    (n, d) against one dictionary's keys (K, d)."""
    for start in range(0, ys.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        yield rows, _sq_distances(ys[rows], keys)


def hard_labels(ys, dictionary) -> np.ndarray:
    """argmin_k |y - z_k|_2 of each row y of ys (n, d), ties broken by the
    lowest index (np.argmin does): (n,) ints.  dictionary is a
    PoseDictionary, whose distances are taken in row blocks, or a key stack
    (n, K, d), one dictionary per row."""
    ys = np.asarray(ys, dtype=float)
    keys = _keys(dictionary)
    if keys.ndim > 2 or ys.ndim != 2:
        return np.argmin(_sq_distances(ys, keys), axis=-1)
    labels = np.empty(ys.shape[0], dtype=np.intp)
    for rows, d2 in _row_blocks(ys, keys):
        labels[rows] = np.argmin(d2, axis=1)
    return labels


def soft_assign_probs(y, keys: np.ndarray, gamma: float) -> np.ndarray:
    """Softmax over -gamma * |y - z_k|^2, max-subtracted for stability: the
    soft assignment (..., K) of one pose (d,) or of each row of a stack
    (..., d).  keys and gamma are shared, or one per row: a key stack
    (..., K, d) and gammas (...,).  ValueError unless every gamma is
    positive and finite."""
    if not (_checks.reals(gamma) and np.all(np.asarray(gamma) > 0.0)):
        raise ValueError("gamma must be positive and finite")
    gamma = np.asarray(gamma, dtype=float)
    logits = -gamma[..., None] * _sq_distances(y, keys)
    logits -= logits.max(axis=-1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=-1, keepdims=True)


def min_pairwise_sq_distance(keys: np.ndarray):
    """min_{i < j} |z_i - z_j|^2 of the keys (K, d), a float, or of each
    dictionary of a stack (..., K, d), an array (...,); inf for K < 2."""
    keys = np.asarray(keys, dtype=float)
    i, j = np.triu_indices(keys.shape[-2], 1)
    best = _sq_distances(keys, keys[..., None, :, :])[..., i, j].min(axis=-1, initial=math.inf)
    return float(best) if best.ndim == 0 else best


def default_gamma(dictionary):
    """0.5 / min_{i != j} |z_i - z_j|^2: scales the kernel to key spacing.
    dictionary is a PoseDictionary, giving a float, or a key stack
    (..., K, d), giving one gamma per dictionary (...,)."""
    keys = _keys(dictionary)
    if keys.shape[-2] < 2:
        raise ValueError("default_gamma needs K >= 2")
    m = min_pairwise_sq_distance(keys)
    if np.any(m == 0.0):
        raise DegenerateDictionary("coincident keys give an infinite gamma")
    return 0.5 / m


def save_dictionary(dictionary: PoseDictionary, path) -> None:
    """Text format: header `repr=<representation> K=<int>`, one key per line."""
    lines = [f"repr={dictionary.representation} K={dictionary.size}"]
    for key in dictionary.keys:
        lines.append(" ".join(repr(float(x)) for x in key))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dictionary(path) -> PoseDictionary:
    """Read a save_dictionary file.  ValueError when the header is not
    `repr=<representation> K=<int>` or K is not the number of key lines."""
    with open(path) as fh:
        header = fh.readline().strip()
        keys = [[float(x) for x in line.split()] for line in fh if not line.isspace()]
    fields = dict(part.partition("=")[::2] for part in header.split())
    if fields.keys() != {"repr", "K"} or not fields["K"].isdecimal():
        raise ValueError(f"bad dictionary header {header!r}")
    if int(fields["K"]) != len(keys):
        raise ValueError(f"header says K={fields['K']} but the file has {len(keys)} keys")
    return PoseDictionary(np.array(keys), fields["repr"])
