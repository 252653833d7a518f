"""Experiment harness: synthetic orientation data, balanced-batch training,
end-to-end runs, and ablation sweeps.

The data generator stands in for a CNN feature extractor: each category gets
a hidden random linear map from the flattened rotation matrix to feature
space, plus Gaussian observation noise.  Targets are drawn from a mixture of
concentrated modes so the pose distribution is multimodal.  Everything is
driven by numpy Generator streams derived from one SeedSequence, so a config
plus a seed reproduces every byte of every artifact.
"""

import dataclasses
import json
import math
import os
import statistics

import numpy as np

from . import dictionary as dct
from . import losses, metrics, models, so3

AUGMENTATIONS = ("none", "jittered", "jittered+extra")

# extra augmented copies of the train split per setting
_AUG_COPIES = {"none": 0, "jittered": 1, "jittered+extra": 2}

SEED_ENV_VAR = "ORIENT_GEO_SEED"


class NonFiniteLoss(RuntimeError):
    """Training aborted because an objective value or gradient left the
    finite floats, or a quaternion head collapsed to zero."""


# ---------------------------------------------------------------------------
# configuration


@dataclasses.dataclass(frozen=True)
class OptimizerConfig:
    """Adam schedule: lr decays by `decay` after every scheduled epoch."""

    learning_rate: float = 1e-4
    decay: float = 0.1
    epochs: int = 5
    batch_per_category: int = 8  # split half clean / half augmented when possible
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0.0 or self.decay <= 0.0:
            raise ValueError("learning_rate and decay must be positive")
        if self.epochs < 1 or self.batch_per_category < 1:
            raise ValueError("epochs and batch_per_category must be >= 1")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0 and self.eps > 0.0):
            raise ValueError("invalid Adam moments")


@dataclasses.dataclass(frozen=True)
class DataConfig:
    categories: int = 12
    train_samples: int = 2000
    val_samples: int = 500
    test_samples: int = 500
    feature_dim: int = 64
    noise: float = 0.05
    modes: int = 4
    mode_spread: float = 0.7  # tangent-space std around each mode, radians
    augmentation: str = "none"
    # pose offsets (degrees) used to synthesize augmented samples, mirroring
    # the image-warp grid
    jitter_az: tuple = (-1.0, 0.0, 1.0)
    jitter_el: tuple = (-1.0, 0.0, 1.0)
    jitter_ct: tuple = (-4.0, -2.0, 0.0, 2.0, 4.0)

    def __post_init__(self):
        if min(self.categories, self.train_samples, self.val_samples, self.test_samples) < 1:
            raise ValueError("all split sizes and the category count must be >= 1")
        if self.feature_dim < 9:
            raise ValueError("feature_dim must be at least 9 to disambiguate poses")
        if self.noise < 0.0:
            raise ValueError("noise must be non-negative")
        if self.modes < 1 or self.mode_spread <= 0.0:
            raise ValueError("modes >= 1 and mode_spread > 0 required")
        if self.augmentation not in AUGMENTATIONS:
            raise ValueError(f"augmentation must be one of {AUGMENTATIONS}")
        for name in ("jitter_az", "jitter_el", "jitter_ct"):
            vals = tuple(float(v) for v in getattr(self, name))
            if not vals:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, vals)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    objective: losses.ObjectiveSpec = dataclasses.field(
        default_factory=lambda: losses.ObjectiveSpec("M_G")
    )
    dictionary_size: int = 100
    dictionary_seed: int = 0
    hidden: tuple = (64, 32)
    optimizer: OptimizerConfig = dataclasses.field(default_factory=OptimizerConfig)
    data: DataConfig = dataclasses.field(default_factory=DataConfig)
    seed: int = 0
    trials: int = 3

    def __post_init__(self):
        if self.dictionary_size < 1 or self.trials < 1:
            raise ValueError("dictionary_size and trials must be >= 1")
        hidden = tuple(int(h) for h in self.hidden)
        if not hidden or min(hidden) < 1:
            raise ValueError("hidden sizes must be positive")
        object.__setattr__(self, "hidden", hidden)


def config_to_json(cfg: ExperimentConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True)


def config_from_json(text: str) -> ExperimentConfig:
    doc = json.loads(text)
    return ExperimentConfig(
        objective=losses.ObjectiveSpec(**doc["objective"]),
        dictionary_size=doc["dictionary_size"],
        dictionary_seed=doc["dictionary_seed"],
        hidden=tuple(doc["hidden"]),
        optimizer=OptimizerConfig(**doc["optimizer"]),
        data=DataConfig(**doc["data"]),
        seed=doc["seed"],
        trials=doc["trials"],
    )


def load_config(path) -> ExperimentConfig:
    """Read a config file; ORIENT_GEO_SEED (when set) overrides its seed."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = config_from_json(fh.read())
    return apply_seed_override(cfg)


def apply_seed_override(cfg: ExperimentConfig) -> ExperimentConfig:
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return cfg
    return dataclasses.replace(cfg, seed=int(env))


def respec(spec: losses.ObjectiveSpec, **overrides) -> losses.ObjectiveSpec:
    """Rebuild an objective spec with overrides, re-resolving the combination
    rule unless one is given explicitly (dataclasses.replace would carry a
    stale resolved rule across a representation change)."""
    fields = {
        "family": spec.family,
        "representation": spec.representation,
        "alpha": spec.alpha,
        "gamma": spec.gamma,
    }
    fields.update(overrides)
    return losses.ObjectiveSpec(**fields)


# ---------------------------------------------------------------------------
# synthetic data


@dataclasses.dataclass(frozen=True, eq=False)
class CategorySplit:
    features: np.ndarray  # (n, feature_dim)
    targets: np.ndarray  # (n, 3, 3)
    aug_features: np.ndarray = None  # augmented pool, train split only
    aug_targets: np.ndarray = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite features")
        if self.features.shape[0] != self.targets.shape[0]:
            raise ValueError("feature/target counts disagree")

    @property
    def size(self) -> int:
        return self.features.shape[0]


@dataclasses.dataclass(frozen=True, eq=False)
class SyntheticDataset:
    categories: tuple
    train: dict
    val: dict
    test: dict
    hidden_maps: dict  # category -> (W (feature_dim, 9), b (feature_dim,))
    modes: dict  # category -> (M, 3, 3) mode rotations


def category_names(n: int):
    return tuple(f"cat{i + 1:02d}" for i in range(n))


def _features_of(rotations: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return rotations.reshape(rotations.shape[0], 9) @ w.T + b


def _sample_targets(rng, modes: np.ndarray, n: int, spread: float) -> np.ndarray:
    """Mixture draw: pick a mode, perturb it by a tangent Gaussian.  Samples
    whose total rotation angle lands within 1e-3 of pi are redrawn so the
    axis-angle pose vector is always well-defined."""
    out = np.empty((n, 3, 3))
    pending = np.arange(n)
    while pending.size:
        idx = rng.integers(0, modes.shape[0], size=pending.size)
        eps = rng.normal(scale=spread, size=(pending.size, 3))
        norms = np.linalg.norm(eps, axis=1)
        big = norms >= math.pi - 1e-3
        if np.any(big):
            eps[big] *= (math.pi - 1e-3) / norms[big, None] * 0.999
        r = modes[idx] @ so3.rodrigues(eps)
        redraw = np.trace(r, axis1=1, axis2=2) <= -1.0 + 2e-6  # angle within ~1e-3 of pi
        out[pending[~redraw]] = r[~redraw]
        pending = pending[redraw]
    return out


def _jittered_copy(rng, targets: np.ndarray, data_cfg: DataConfig) -> np.ndarray:
    """Perturb each pose by one random cell of the augmentation offset grid.
    Poses in gimbal lock, or moved onto the pi shell, keep their target."""
    grids = (data_cfg.jitter_az, data_cfg.jitter_el, data_cfg.jitter_ct)
    offsets = np.stack([rng.choice(grid, size=targets.shape[0]) for grid in grids], axis=1)
    angles, locked = so3.matrix_to_euler(targets)
    moved = so3.euler_to_matrix(angles + np.radians(offsets))
    keep = locked | (np.trace(moved, axis1=1, axis2=2) <= -1.0 + 2e-6)
    return np.where(keep[:, None, None], targets, moved)


def generate_synthetic(cfg: ExperimentConfig, seed=None) -> SyntheticDataset:
    seed = cfg.seed if seed is None else seed
    data = cfg.data
    names = category_names(data.categories)
    train, val, test, hidden_maps, mode_sets = {}, {}, {}, {}, {}
    for c, name in enumerate(names):
        streams = [
            np.random.default_rng(np.random.SeedSequence([int(seed), c, which]))
            for which in range(5)
        ]
        gen_rng, train_rng, val_rng, test_rng, aug_rng = streams
        w = gen_rng.normal(size=(data.feature_dim, 9)) / 3.0
        b = gen_rng.normal(size=data.feature_dim) * 0.1
        modes = np.stack(
            [so3.random_rotation(gen_rng).matrix for _ in range(data.modes)]
        )
        hidden_maps[name] = (w, b)
        mode_sets[name] = modes

        def _split(rng, n):
            targets = _sample_targets(rng, modes, n, data.mode_spread)
            feats = _features_of(targets, w, b)
            if data.noise > 0.0:
                feats = feats + data.noise * rng.normal(size=feats.shape)
            return feats, targets

        tr_feats, tr_targets = _split(train_rng, data.train_samples)
        copies = _AUG_COPIES[data.augmentation]
        aug_feats = aug_targets = None
        if copies:
            pools_f, pools_t = [], []
            for _ in range(copies):
                jt = _jittered_copy(aug_rng, tr_targets, data)
                jf = _features_of(jt, w, b)
                if data.noise > 0.0:
                    jf = jf + data.noise * aug_rng.normal(size=jf.shape)
                pools_f.append(jf)
                pools_t.append(jt)
            aug_feats = np.concatenate(pools_f)
            aug_targets = np.concatenate(pools_t)
        train[name] = CategorySplit(tr_feats, tr_targets, aug_feats, aug_targets)
        val[name] = CategorySplit(*_split(val_rng, data.val_samples))
        test[name] = CategorySplit(*_split(test_rng, data.test_samples))
    return SyntheticDataset(names, train, val, test, hidden_maps, mode_sets)


# ---------------------------------------------------------------------------
# dictionary + targets


def pose_vector(rotation_matrix: np.ndarray, representation: str) -> np.ndarray:
    """Pose vector (..., d) of each rotation matrix (..., 3, 3): its log, or
    the unit quaternion that UnitQuaternion stores for it."""
    if representation == dct.AXIS_ANGLE:
        return so3.log_rotation(rotation_matrix)
    return so3.matrix_to_quaternion(rotation_matrix)


def fit_shared_dictionary(cfg: ExperimentConfig, dataset: SyntheticDataset) -> dct.PoseDictionary:
    """One dictionary for all categories, fit on the pooled train targets."""
    rep = cfg.objective.representation
    mats = np.concatenate([dataset.train[name].targets for name in dataset.categories])
    return dct.fit_kmeans(pose_vector(mats, rep), cfg.dictionary_size, cfg.dictionary_seed, rep)


def _make_targets(spec, dictionary, target_mats, gamma) -> losses.TargetBatch:
    """Objective targets for a stack of rotation matrices, built once per split."""
    y = pose_vector(target_mats, spec.representation)
    label = soft = None
    if dictionary is not None:
        label = dct.hard_labels(y, dictionary)
        if spec.family in losses.SOFT_TARGET_FAMILIES:
            soft = dct.soft_assign_probs(y, dictionary.keys, gamma)
    ref = losses.target_references(spec.representation, y)
    return losses.TargetBatch(y=y, label=label, soft=soft, ref=ref)


def discretization_floor(dataset: SyntheticDataset, dictionary: dct.PoseDictionary,
                         split: str = "test") -> float:
    """Mean over categories of the median nearest-key geodesic distance in
    degrees: the best MedErr a pure classifier over these keys can reach."""
    splits = getattr(dataset, split)
    keys = dct.pose_matrices(dictionary.keys, dictionary.representation)
    per_cat = []
    for name in dataset.categories:
        dists = so3.geodesic_distance_matrices(splits[name].targets[:, None], keys)  # (n, K)
        per_cat.append(statistics.median(np.degrees(dists.min(axis=1)).tolist()))
    return sum(per_cat) / len(per_cat)


# ---------------------------------------------------------------------------
# models


def build_category_model(cfg: ExperimentConfig, seed: int) -> dict:
    """Networks for one category, keyed by role.  Direct regression uses one
    pose head; Bin & Delta uses a logit network plus either a shared delta
    network or, as the stacked "deltas" network, one small head per
    dictionary key."""
    spec = cfg.objective
    fdim = cfg.data.feature_dim
    hidden = list(cfg.hidden)
    pose_act = ["relu"] * len(hidden) + [
        "pi_tanh" if spec.representation == dct.AXIS_ANGLE else "linear"
    ]
    nets = {}
    if spec.family in ("R_G", "R_E"):
        nets["pose"] = models.init_pose_network(
            [fdim] + hidden + [spec.pose_dim], seed, pose_act
        )
        return nets
    nets["logits"] = models.init_pose_network(
        [fdim] + hidden + [cfg.dictionary_size], seed
    )
    if spec.family == "C":
        return nets
    if spec.per_bin:
        head_act = ["relu", pose_act[-1]]
        nets["deltas"] = models.stack([
            models.init_pose_network(
                [fdim, hidden[-1], spec.pose_dim], seed + 1 + k, head_act
            )
            for k in range(cfg.dictionary_size)
        ])
    else:
        nets["delta"] = models.init_pose_network(
            [fdim] + hidden + [spec.pose_dim], seed + 1, pose_act
        )
    return nets


def _checkpoint_networks(nets):
    """(file role, network) pairs of one category as checkpoints store them:
    one file per per-bin head, named delta_head_{k:03d}."""
    for role, net in nets.items():
        if role == "deltas":
            for k in range(net.layers[0].weight.shape[0]):
                yield f"delta_head_{k:03d}", models.unstack(net, k)
        else:
            yield role, net


def predict_rotation(spec, nets, dictionary, x: np.ndarray) -> np.ndarray:
    """Feature rows (n, in) to rotation matrices (n, 3, 3), by the family's
    decoding rule."""
    if spec.family in ("R_G", "R_E"):
        y = models.forward(nets["pose"], x)
        if spec.representation == dct.QUATERNION and np.any(np.linalg.norm(y, axis=-1) < 1e-12):
            raise models.ZeroSum("quaternion head collapsed to zero")
        return dct.pose_matrices(y, spec.representation)
    label = np.argmax(models.forward(nets["logits"], x), axis=-1)  # ties take the lowest index
    if spec.family == "C":
        return dct.pose_matrices(dictionary.keys[label], dictionary.representation)
    if spec.per_bin:  # each row through the head of its own label
        delta = models.forward(models.unstack(nets["deltas"], label), x[:, None])[:, 0]
    else:
        delta = models.forward(nets["delta"], x)
    return models.compose_rotation(spec.combination, dictionary.keys[label], delta)


# ---------------------------------------------------------------------------
# optimizer


class _Adam:
    """Adam state for one stacked MLP's (..., P) parameter buffer.  Each
    stack entry keeps its own step count and moves only on the steps that
    select it, so a head no sample touched keeps its weights and moments."""

    def __init__(self, net: models.MLP, opt: OptimizerConfig):
        self.opt = opt
        self.t = np.zeros(net.params.shape[:-1], dtype=int)
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)
        self._scratch = np.empty_like(net.params)

    def step(self, params, grad, lr: float, sel=None):
        """Update params in place from grad, both (..., P), and use grad as
        scratch.  params is the whole buffer, or with `sel` (np.nonzero of a
        mask over the stack axes) its rows at sel, which the caller gathered
        and writes back; m, v and t then move at sel only."""
        o = self.opt
        m, v, a = self.m, self.v, self._scratch
        if sel is None:
            self.t += 1
            t = self.t
        else:
            m, v = m[sel], v[sel]
            a = a.reshape(-1, a.shape[-1])[: len(grad)]
            self.t[sel] += 1
            t = self.t[sel]
        c1 = (1.0 - o.beta1**t)[..., None]
        c2 = (1.0 - o.beta2**t)[..., None]
        # m*b1 + (1-b1)*g, v*b2 + ((1-b2)*g)*g, lr*(m/c1) / (sqrt(v/c2) + eps)
        np.multiply(m, o.beta1, out=m)
        m += np.multiply(grad, 1.0 - o.beta1, out=a)
        np.multiply(v, o.beta2, out=v)
        np.multiply(grad, 1.0 - o.beta2, out=a)
        v += np.multiply(a, grad, out=a)
        np.multiply(np.divide(m, c1, out=a), lr, out=a)
        np.sqrt(np.divide(v, c2, out=grad), out=grad)
        a /= np.add(grad, o.eps, out=grad)
        params -= a
        if sel is not None:
            self.m[sel], self.v[sel] = m, v


# ---------------------------------------------------------------------------
# training


@dataclasses.dataclass(frozen=True)
class TrainLog:
    lines: tuple  # one human-readable line per scheduled epoch
    epoch_losses: tuple  # mean loss per scheduled epoch
    step_losses: tuple  # tuple per scheduled epoch of per-step mean losses
    epoch_non_smooth: tuple = ()  # samples per scheduled epoch flagged non-smooth

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _training_rows(spec, dictionary, dataset, gamma):
    """Every category's train rows: features (G, rows, feature_dim) and the
    G * rows targets in category order, each category's clean rows first,
    then its augmented pool."""
    feats, parts = [], []
    for name in dataset.categories:
        split = dataset.train[name]
        mats, f = split.targets, split.features
        if split.aug_targets is not None:
            mats = np.concatenate([mats, split.aug_targets])
            f = np.concatenate([f, split.aug_features])
        feats.append(f)
        parts.append(_make_targets(spec, dictionary, mats, gamma))
    fields = zip(*((t.y, t.label, t.soft, t.ref) for t in parts))
    targets = losses.TargetBatch(*(None if f[0] is None else np.concatenate(f) for f in fields))
    return np.stack(feats), targets


def _step(spec, nets, adams, dictionary, feats, targets, lr) -> losses.BatchLoss:
    """One optimizer step of the stacked networks on feats (G, n, in), n
    samples of each of G categories, and their G * n targets in category
    order.  Per-bin heads read the shared features and give (G, K, n, d)."""
    g, n = feats.shape[:2]
    cached, rows = {}, {}
    for role, net in nets.items():
        out, cached[role] = models.forward_cached(net, feats[:, None] if role == "deltas" else feats)
        if role == "deltas":
            out = out.swapaxes(1, 2)
        rows[role] = out.reshape(g * n, *out.shape[2:])
    if spec.family in ("R_G", "R_E"):
        prediction = rows["pose"]
    elif spec.family == "C":
        prediction = rows["logits"]
    else:
        prediction = (rows["logits"], rows["deltas" if spec.per_bin else "delta"])
    batch = losses.objective_batch(spec, prediction, targets, dictionary)

    for role, grad in batch.grads.items():
        net, cache = nets[role], cached[role]
        grad = grad.reshape(g, n, *grad.shape[1:])
        params, sel = net.params, None
        if role == "deltas":  # back-propagate through the heads some sample selected
            grad = grad.swapaxes(1, 2)
            sel = np.nonzero(grad.any(axis=(2, 3)))
            params = net.params[sel]
            net = models.on_buffer(params, net)
            cache = [("input", feats[sel[0]])] + [(tag, h[sel]) for tag, h in cache[1:]]
            grad = grad[sel]
        grads, _ = models.backward(net, cache, grad / n)
        adams[role].step(params, models.flatten(grads), lr, sel)
        if sel is not None:
            nets[role].params[sel] = params
    return batch


def train(cfg: ExperimentConfig, dataset: SyntheticDataset,
          dictionary: dct.PoseDictionary = None, seed=None):
    """Balanced-batch Adam training of one network set per category, all
    categories at once: each role is one network stacked over them.

    Every batch takes the same per-category quota; with augmentation the
    quota is split half clean, half from the augmented pool.  The learning
    rate decays by cfg.optimizer.decay after every scheduled epoch, and the
    geodesic/riemannian Bin & Delta families spend one warm-start epoch on
    their Simple counterpart (fresh optimizer state when the objective
    switches).  Returns (models_by_category, dictionary, TrainLog); the
    per-category networks are views of the stacked parameters.
    """
    seed = cfg.seed if seed is None else seed
    spec = cfg.objective
    opt = cfg.optimizer
    if dictionary is None and spec.family != "R_G" and spec.family != "R_E":
        dictionary = fit_shared_dictionary(cfg, dataset)
    schedule = losses.simple_init_schedule(spec, opt.epochs)
    gamma = (
        losses.resolve_gamma(spec, dictionary)
        if spec.family in losses.SOFT_TARGET_FAMILIES
        else None
    )

    names = dataset.categories
    per_cat = [build_category_model(cfg, seed + 1000 * (c + 1)) for c in range(len(names))]
    nets = {role: models.stack([m[role] for m in per_cat]) for role in per_cat[0]}
    del per_cat  # the stacks' buffers hold copies
    nets_by_cat = {name: {role: models.unstack(net, c) for role, net in nets.items()}
                   for c, name in enumerate(names)}
    batch_rngs = [np.random.default_rng(np.random.SeedSequence([int(seed), c, 10]))
                  for c in range(len(names))]
    feats, targets = _training_rows(spec, dictionary, dataset, gamma)

    size = dataset.train[names[0]].size
    pool = feats.shape[1] - size  # augmented rows per category
    clean_quota = max(1, opt.batch_per_category // 2) if pool else opt.batch_per_category
    aug_quota = opt.batch_per_category - clean_quota if pool else 0
    steps = size // clean_quota
    if steps < 1:
        raise ValueError("batch_per_category exceeds the train split")
    aug_draws = -(-(steps * aug_quota + pool) // pool) if aug_quota else 0
    cats = np.arange(len(names))[:, None]

    lines, epoch_losses, step_losses, epoch_non_smooth = [], [], [], []
    for epoch, epoch_spec in enumerate(schedule):
        if epoch == 0 or epoch_spec.family != schedule[epoch - 1].family:
            adams = None  # release the old moments before allocating fresh ones
            adams = {role: _Adam(net, opt) for role, net in nets.items()}
        lr = opt.learning_rate * opt.decay**epoch

        # row indices (G, steps, batch_per_category): clean rows, then pool rows
        idx = []
        for rng in batch_rngs:
            rows = [rng.permutation(size)[: steps * clean_quota].reshape(steps, clean_quota)]
            if aug_quota:
                draws = np.concatenate([rng.permutation(pool) for _ in range(aug_draws)])
                rows.append(size + draws[: steps * aug_quota].reshape(steps, aug_quota))
            idx.append(np.concatenate(rows, axis=1))
        idx = np.stack(idx)

        per_step, non_smooth = [], 0
        for t in range(steps):
            try:
                # divergence is reported via NonFiniteLoss, not warnings
                with np.errstate(over="ignore", invalid="ignore"):
                    batch = _step(epoch_spec, nets, adams, dictionary, feats[cats, idx[:, t]],
                                  targets.rows((cats * feats.shape[1] + idx[:, t]).ravel()), lr)
            except (losses.NonFiniteObjective, models.ZeroSum) as exc:
                name = names[exc.row // opt.batch_per_category]
                raise NonFiniteLoss(f"category {name} epoch {epoch} step {t}: {exc}") from exc
            cat_losses = batch.values.reshape(len(names), -1).sum(axis=1) / opt.batch_per_category
            per_step.append(float(cat_losses.sum()) / len(names))
            non_smooth += int(batch.non_smooth.sum())
        epoch_mean = sum(per_step) / len(per_step)
        epoch_losses.append(epoch_mean)
        step_losses.append(tuple(per_step))
        epoch_non_smooth.append(non_smooth)
        lines.append(
            f"epoch {epoch} objective {epoch_spec.family} lr {lr:.3e} "
            f"loss {epoch_mean:.6f} non_smooth {non_smooth}"
        )
    log = TrainLog(
        tuple(lines), tuple(epoch_losses), tuple(step_losses), tuple(epoch_non_smooth)
    )
    return nets_by_cat, dictionary, log


# ---------------------------------------------------------------------------
# end-to-end runs


@dataclasses.dataclass(frozen=True, eq=False)
class RunResult:
    config: ExperimentConfig
    seed: int
    report: metrics.MetricReport  # test split
    val_report: metrics.MetricReport
    log: TrainLog
    models: dict
    dictionary: dct.PoseDictionary
    out_dir: str = None


def evaluate_split(spec, nets_by_cat, dictionary, dataset, split: str) -> metrics.PoseRecords:
    """Pose records for one split, in category-then-index order, each
    rotation checked as so3.Rotation checks one."""
    names = dataset.categories
    data = [getattr(dataset, split)[n] for n in names]
    preds = [predict_rotation(spec, nets_by_cat[n], dictionary, d.features)
             for n, d in zip(names, data)]
    return metrics.PoseRecords(
        np.repeat(np.array(names, dtype=str), [d.size for d in data]),
        so3.check_rotations(np.concatenate([d.targets for d in data])),
        so3.check_rotations(np.concatenate(preds)),
    )


def _dump_tables(records: metrics.PoseRecords):
    """records.txt as (detections, ground truths) tables.  Every record gets
    its own unit-IoU box at a distinct location with score 1.0, so the
    matcher pairs dump lines back exactly.  Each rotation is the one
    metrics.read_records rebuilds from the quaternion written (pose_matrices
    of it), so a report of the tables' pairs is exactly recomputable from
    the file."""
    n = len(records)
    written = so3.matrix_to_quaternion(np.concatenate([records.r_pred, records.r_true]))
    stored = so3.check_rotations(dct.pose_matrices(written, dct.QUATERNION))
    x = 20.0 * np.arange(n)
    box = np.stack([x, np.zeros(n), x + 10.0, np.full(n, 10.0)], axis=1)
    return tuple(metrics.RecordTable(records.category, box, np.ones(n), stored[rows], written[rows])
                 for rows in (slice(None, n), slice(n, None)))


def run_experiment(cfg: ExperimentConfig, out_dir=None, seed=None) -> RunResult:
    seed = cfg.seed if seed is None else seed
    dataset = generate_synthetic(cfg, seed)
    dictionary = fit_shared_dictionary(cfg, dataset)
    nets_by_cat, dictionary, log = train(cfg, dataset, dictionary, seed=seed)
    spec = cfg.objective
    test_records = evaluate_split(spec, nets_by_cat, dictionary, dataset, "test")
    val_records = evaluate_split(spec, nets_by_cat, dictionary, dataset, "val")
    dump_dets, dump_gts = _dump_tables(test_records)
    report = metrics.pose_report(
        metrics.PoseRecords(dump_gts.category, dump_gts.rotation, dump_dets.rotation))
    val_report = metrics.pose_report(val_records)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        effective = dataclasses.replace(cfg, seed=seed)
        with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
            fh.write(config_to_json(effective) + "\n")
        for name, rep in (("report", report), ("val_report", val_report)):
            metrics.write_report(rep, os.path.join(out_dir, f"{name}.csv"),
                                 os.path.join(out_dir, f"{name}.json"))
        metrics.write_records(os.path.join(out_dir, "records.txt"), dump_dets, dump_gts)
        dct.save_dictionary(dictionary, os.path.join(out_dir, "dictionary.txt"))
        ck_dir = os.path.join(out_dir, "checkpoint")
        os.makedirs(ck_dir, exist_ok=True)
        for name, nets in nets_by_cat.items():
            for role, net in _checkpoint_networks(nets):
                models.save_mlp(net, os.path.join(ck_dir, f"{name}.{role}.json"))
        with open(os.path.join(out_dir, "train_log.txt"), "w", encoding="utf-8") as fh:
            fh.write(log.text)
    return RunResult(cfg, seed, report, val_report, log, nets_by_cat, dictionary, out_dir)


@dataclasses.dataclass(frozen=True)
class TrialSummary:
    metric_means: dict  # metric -> mean of per-trial means
    metric_stds: dict
    seeds: tuple

    def mean(self, metric: str) -> float:
        return self.metric_means[metric]


def run_trials(cfg: ExperimentConfig, out_dir=None, trials=None) -> TrialSummary:
    """Repeat the experiment on consecutive seeds; report mean/std per metric."""
    trials = cfg.trials if trials is None else trials
    seeds = tuple(cfg.seed + t for t in range(trials))
    results = []
    for t, s in enumerate(seeds):
        sub = os.path.join(out_dir, f"trial_{t}") if out_dir is not None else None
        results.append(run_experiment(cfg, out_dir=sub, seed=s))
    names = results[0].report.metrics
    means = {m: sum(r.report.mean[m] for r in results) / trials for m in names}
    stds = {
        m: statistics.pstdev([r.report.mean[m] for r in results]) for m in names
    }
    if out_dir is not None:
        lines = ["metric,mean,std"]
        for m in names:
            lines.append(f"{m},{means[m]!r},{stds[m]!r}")
        with open(os.path.join(out_dir, "trials.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return TrialSummary(means, stds, seeds)


# ---------------------------------------------------------------------------
# ablations


ABLATION_KS = (50, 100, 200, 400)
ABLATION_ALPHAS = (0.1, 1.0, 10.0)


@dataclasses.dataclass(frozen=True, eq=False)
class AblationCell:
    sweep: str
    value: str
    config: ExperimentConfig
    result: RunResult


@dataclasses.dataclass(frozen=True, eq=False)
class AblationResult:
    cells: tuple
    best_alpha: float  # chosen by validation MedErr

    def table(self) -> str:
        lines = ["sweep,value,MedErr,Acc_pi6,ValMedErr,selected"]
        for cell in self.cells:
            selected = (
                cell.sweep == "alpha" and float(cell.value) == self.best_alpha
            )
            lines.append(
                ",".join(
                    [
                        cell.sweep,
                        cell.value,
                        repr(cell.result.report.mean["MedErr"]),
                        repr(cell.result.report.mean["Acc_pi6"]),
                        repr(cell.result.val_report.mean["MedErr"]),
                        "1" if selected else "0",
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def ablation_cells(base: ExperimentConfig):
    """The fixed sweep grid: representation, dictionary size, alpha weight,
    augmentation setting.  Cells reuse the base seed so rows are comparable.
    Representations a family cannot express (the tangent-space models are
    axis-angle only) are left out of its sweep."""
    cells = []
    for rep in dct.REPRESENTATIONS:
        try:
            cfg = dataclasses.replace(
                base, objective=respec(base.objective, representation=rep)
            )
        except losses.FamilyMismatch:
            continue
        cells.append(("representation", rep, cfg))
    for k in ABLATION_KS:
        cells.append(("dictionary_size", str(k), dataclasses.replace(base, dictionary_size=k)))
    for alpha in ABLATION_ALPHAS:
        cfg = dataclasses.replace(base, objective=respec(base.objective, alpha=alpha))
        cells.append(("alpha", str(alpha), cfg))
    for aug in AUGMENTATIONS:
        cfg = dataclasses.replace(base, data=dataclasses.replace(base.data, augmentation=aug))
        cells.append(("augmentation", aug, cfg))
    return cells


def ablation_suite(base: ExperimentConfig, out_dir=None) -> AblationResult:
    cells = []
    for sweep, value, cfg in ablation_cells(base):
        sub = None
        if out_dir is not None:
            sub = os.path.join(out_dir, f"{sweep}_{value.replace('+', '_')}")
        cells.append(AblationCell(sweep, value, cfg, run_experiment(cfg, out_dir=sub)))
    alpha_cells = [c for c in cells if c.sweep == "alpha"]
    best = min(alpha_cells, key=lambda c: (c.result.val_report.mean["MedErr"], c.value))
    result = AblationResult(tuple(cells), float(best.value))
    if out_dir is not None:
        with open(os.path.join(out_dir, "ablation.csv"), "w", encoding="utf-8") as fh:
            fh.write(result.table())
    return result
