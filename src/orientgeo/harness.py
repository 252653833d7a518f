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
import shutil
import statistics

import numpy as np

from . import dictionary as dct
from . import _checks, jitter, losses, metrics, models, so3

AUGMENTATIONS = ("none", "jittered", "jittered+extra")

# extra augmented copies of the train split per setting
_AUG_COPIES = {"none": 0, "jittered": 1, "jittered+extra": 2}

SEED_ENV_VAR = "ORIENT_GEO_SEED"


class NonFiniteLoss(RuntimeError):
    """Training aborted because an objective value or gradient left the
    finite floats, or a quaternion head collapsed to zero."""


# ---------------------------------------------------------------------------
# configuration


def _set_counts(cfg, least: int, *names) -> None:
    """Store each named field of a frozen config as _checks.count of its value."""
    for name in names:
        object.__setattr__(cfg, name, _checks.count(getattr(cfg, name), name, least))


@dataclasses.dataclass(frozen=True)
class OptimizerConfig:
    """Adam schedule: lr decays by `decay` after every scheduled epoch."""

    learning_rate: float = 1e-4
    decay: float = 0.1
    epochs: int = 5
    batch_per_category: int = 8  # split half clean / half augmented when possible

    def __post_init__(self):
        if not all(_checks.real(x) and x > 0.0 for x in (self.learning_rate, self.decay)):
            raise ValueError("learning_rate and decay must be positive and finite")
        _set_counts(self, 1, "epochs", "batch_per_category")


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

    def __post_init__(self):
        _set_counts(self, 1, "categories", "train_samples", "val_samples", "test_samples", "modes")
        _set_counts(self, 9, "feature_dim")  # fewer features cannot disambiguate poses
        if not (_checks.real(self.noise) and self.noise >= 0.0):
            raise ValueError("noise must be non-negative and finite")
        if not (_checks.real(self.mode_spread) and self.mode_spread > 0.0):
            raise ValueError("mode_spread must be positive and finite")
        if self.augmentation not in AUGMENTATIONS:
            raise ValueError(f"augmentation must be one of {AUGMENTATIONS}")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    objective: losses.ObjectiveSpec = dataclasses.field(
        default_factory=lambda: losses.ObjectiveSpec("M_G")
    )
    dictionary_size: int = 100
    hidden: tuple = (64, 32)
    optimizer: OptimizerConfig = dataclasses.field(default_factory=OptimizerConfig)
    data: DataConfig = dataclasses.field(default_factory=DataConfig)
    seed: int = 0

    def __post_init__(self):
        _set_counts(self, 1, "dictionary_size")
        _set_counts(self, 0, "seed")
        if not isinstance(self.hidden, (list, tuple)) or not self.hidden:
            raise ValueError(f"hidden must be a non-empty list of layer sizes, got {self.hidden!r}")
        object.__setattr__(self, "hidden", tuple(_checks.count(h, "each hidden size")
                                                 for h in self.hidden))


def config_to_json(cfg: ExperimentConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True)


def _section(cls, doc, name: str) -> dict:
    """doc, the JSON object of the config section that cls reads; ValueError
    naming the section unless doc is an object, and naming each key that
    is not a cls field or that doc lacks and cls has no default for."""
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = sorted(doc.keys() - {f.name for f in fields})
    if unknown:
        raise ValueError(f"unknown {name} keys: {', '.join(unknown)}")
    missing = [f.name for f in fields if f.name not in doc
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{name} lacks {', '.join(missing)}")
    return doc


def config_from_json(text: str) -> ExperimentConfig:
    """The config of a config_to_json document.  Every section is read by
    _section's rule, and a key it leaves out takes its default."""
    sections = {"objective": losses.ObjectiveSpec, "optimizer": OptimizerConfig, "data": DataConfig}
    doc = _section(ExperimentConfig, json.loads(text), "config")
    return ExperimentConfig(**{key: sections[key](**_section(sections[key], value, key))
                               if key in sections else value for key, value in doc.items()})


def load_config(path) -> ExperimentConfig:
    """Read a config file; ORIENT_GEO_SEED (when set) overrides its seed."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = config_from_json(fh.read())
    return apply_seed_override(cfg)


def apply_seed_override(cfg: ExperimentConfig) -> ExperimentConfig:
    """cfg with ORIENT_GEO_SEED (when set) as its seed; ValueError naming
    the variable unless it is an integer >= 0."""
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return cfg
    try:
        return dataclasses.replace(cfg, seed=int(env))
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer >= 0, got {env!r}") from None


# ---------------------------------------------------------------------------
# synthetic data


@dataclasses.dataclass(frozen=True, eq=False)
class Split:
    """One split of every category, stacked: category c at index c."""

    features: np.ndarray  # (G, n, feature_dim)
    targets: np.ndarray  # (G, n, 3, 3)

    def __post_init__(self):
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite features")
        if self.features.shape[:2] != self.targets.shape[:2]:
            raise ValueError("feature/target counts disagree")


@dataclasses.dataclass(frozen=True, eq=False)
class SyntheticDataset:
    categories: tuple
    train: Split  # each category's clean rows, then its aug_rows jittered ones
    val: Split
    test: Split
    hidden_maps: dict  # category -> (W (feature_dim, 9), b (feature_dim,))
    aug_rows: int = 0


def category_names(n: int):
    return tuple(f"cat{i + 1:02d}" for i in range(n))


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


def _jittered_copy(rng, targets: np.ndarray) -> np.ndarray:
    """Perturb each pose by one random cell of the image-warp offset grid,
    jitter.JitterSpec's default (degrees).  Poses in gimbal lock, or moved
    onto the pi shell, keep their target."""
    spec = jitter.JitterSpec()
    grids = (spec.d_az, spec.d_el, spec.d_ct)
    offsets = np.stack([rng.choice(grid, size=targets.shape[0]) for grid in grids], axis=1)
    angles, locked = so3.matrix_to_euler(targets)
    moved = so3.euler_to_matrix(angles + np.radians(offsets))
    keep = locked | (np.trace(moved, axis1=1, axis2=2) <= -1.0 + 2e-6)
    return np.where(keep[:, None, None], targets, moved)


def generate_synthetic(cfg: ExperimentConfig) -> SyntheticDataset:
    """Every split of every category, written once into its stacked arrays.
    Each category draws its map, its modes and each split from streams of
    its own, seeded by cfg.seed, so its rows do not depend on the other
    categories."""
    data = cfg.data
    names = category_names(data.categories)
    clean = data.train_samples
    sizes = (clean, data.val_samples, data.test_samples)
    aug_rows = _AUG_COPIES[data.augmentation] * clean
    splits = [(np.empty((len(names), rows, data.feature_dim)), np.empty((len(names), rows, 3, 3)))
              for rows in (clean + aug_rows,) + sizes[1:]]
    hidden_maps = {}
    for c, name in enumerate(names):
        gen_rng, *split_rngs, aug_rng = (
            np.random.default_rng(np.random.SeedSequence([cfg.seed, c, which]))
            for which in range(5)
        )
        w = gen_rng.normal(size=(data.feature_dim, 9)) / 3.0
        b = gen_rng.normal(size=data.feature_dim) * 0.1
        q = gen_rng.standard_normal((data.modes, 4))  # Haar-uniform mode rotations
        modes = so3.check_rotations(dct.pose_matrices(q, dct.QUATERNION))
        hidden_maps[name] = (w, b)

        def observe(rng, feats, targets):
            """Write the features of targets (n, 3, 3), plus noise drawn
            from rng, into feats (n, feature_dim)."""
            np.matmul(targets.reshape(-1, 9), w.T, out=feats)
            feats += b
            if data.noise > 0.0:
                noise = rng.normal(size=feats.shape)
                noise *= data.noise
                feats += noise

        for (feats, targets), rng, n in zip(splits, split_rngs, sizes):
            targets[c, :n] = _sample_targets(rng, modes, n, data.mode_spread)
            observe(rng, feats[c, :n], targets[c, :n])
        feats, targets = splits[0]
        for start in range(clean, clean + aug_rows, clean):
            rows = slice(start, start + clean)
            targets[c, rows] = _jittered_copy(aug_rng, targets[c, :clean])
            observe(aug_rng, feats[c, rows], targets[c, rows])
    return SyntheticDataset(names, *(Split(*s) for s in splits), hidden_maps, aug_rows)


# ---------------------------------------------------------------------------
# dictionary + targets

DICTIONARY_SEED = 0  # k-means++ seed of every run's shared dictionary


def pose_vector(rotation_matrix: np.ndarray, representation: str) -> np.ndarray:
    """Pose vector (..., d) of each rotation matrix (..., 3, 3): its log, or
    the unit quaternion that UnitQuaternion stores for it."""
    if representation == dct.AXIS_ANGLE:
        return so3.log_rotation(rotation_matrix)
    return so3.matrix_to_quaternion(rotation_matrix)


def pooled_train_targets(cfg: ExperimentConfig, dataset: SyntheticDataset) -> np.ndarray:
    """Pose vectors (n, d) of every category's clean train targets, in
    category order: the points the shared dictionary is fit on."""
    clean = dataset.train.targets.shape[1] - dataset.aug_rows
    mats = dataset.train.targets[:, :clean].reshape(-1, 3, 3)
    return pose_vector(mats, cfg.objective.representation)


def fit_shared_dictionary(cfg: ExperimentConfig, dataset: SyntheticDataset) -> dct.PoseDictionary:
    """One dictionary for all categories, fit on the pooled train targets."""
    return dct.fit_kmeans(pooled_train_targets(cfg, dataset), cfg.dictionary_size,
                          DICTIONARY_SEED, cfg.objective.representation)


def _make_targets(spec, dictionary, target_mats, gamma) -> losses.TargetBatch:
    """Objective targets for a stack of rotation matrices, built once per split."""
    y = pose_vector(target_mats, spec.representation)
    label = soft = None
    if spec.family not in losses.DIRECT_FAMILIES:  # direct regression reads only y and ref
        label = dct.hard_labels(y, dictionary)
        if spec.family in losses.SOFT_TARGET_FAMILIES:
            soft = dct.soft_assign_probs(y, dictionary.keys, gamma)
    ref = losses.target_references(spec.representation, y)
    return losses.TargetBatch(y=y, label=label, soft=soft, ref=ref)


def discretization_floor(dataset: SyntheticDataset, dictionary: dct.PoseDictionary) -> float:
    """Mean over categories of the median nearest-key geodesic distance in
    degrees on the test split: the best MedErr a pure classifier over these
    keys can reach."""
    keys = dct.pose_matrices(dictionary.keys, dictionary.representation)
    dists = so3.geodesic_distance_matrices(dataset.test.targets[:, :, None], keys)  # (G, n, K)
    per_cat = [statistics.median(d) for d in np.degrees(dists.min(axis=-1)).tolist()]
    return sum(per_cat) / len(per_cat)


# ---------------------------------------------------------------------------
# models


def init_networks(cfg: ExperimentConfig) -> dict:
    """Every role's network, stacked over the cfg.data.categories
    categories (G, ...).  Direct regression uses one pose head; Bin & Delta
    uses a logit network plus either a shared delta network or, as the
    (G, K, ...) "deltas" stack, one small head per dictionary key.
    Category c draws from seed cfg.seed + 1000 * (c + 1), its shared delta
    network from that seed + 1 and its head k from that seed + 1 + k."""
    spec, k = cfg.objective, cfg.dictionary_size
    seeds = [cfg.seed + 1000 * (c + 1) for c in range(cfg.data.categories)]
    trunk = [cfg.data.feature_dim, *cfg.hidden]
    head_act = "pi_tanh" if spec.representation == dct.AXIS_ANGLE else "linear"
    pose_act = ["relu"] * len(cfg.hidden) + [head_act]
    if spec.family in losses.DIRECT_FAMILIES:
        return {"pose": models.init_pose_network(trunk + [spec.pose_dim], seeds, pose_act)}
    nets = {"logits": models.init_pose_network(trunk + [k], seeds)}
    if spec.per_bin:
        nets["deltas"] = models.init_pose_network(
            [trunk[0], trunk[-1], spec.pose_dim], [[s + 1 + key for key in range(k)] for s in seeds],
            ["relu", head_act])
    elif spec.family != "C":
        nets["delta"] = models.init_pose_network(
            trunk + [spec.pose_dim], [s + 1 for s in seeds], pose_act)
    return nets


def _checkpoint_networks(nets, names):
    """(file stem, view of a role stack) pairs as checkpoints store them:
    {cat}.{role}, and one {cat}.delta_head_{k:03d} per per-bin head."""
    for c, name in enumerate(names):
        for role, net in nets.items():
            if role == "deltas":
                for k in range(net.layers[0].weight.shape[1]):
                    yield f"{name}.delta_head_{k:03d}", models.on_buffer(net.params[c, k], net)
            else:
                yield f"{name}.{role}", models.on_buffer(net.params[c], net)


_DECODE_BLOCK = 512  # flat rows per gather of per-bin heads: bounds its (rows, P) copies


def predict_rotation(spec, nets, dictionary, x: np.ndarray) -> np.ndarray:
    """Feature rows (G, n, in) of G categories to rotation matrices (G, n, 3, 3)
    by the family's decoding rule, with one forward per role stack.  A
    quaternion head that outputs zero raises models.ZeroSum naming the
    category (as category_names names category c) and its row; `.row` is
    the flat row c * n + i, as training sets it for a batch."""
    if spec.family in losses.DIRECT_FAMILIES:
        y = models.forward(nets["pose"], x)
        if spec.representation == dct.QUATERNION:
            collapsed = np.flatnonzero(np.linalg.norm(y, axis=-1) < 1e-12)
            if collapsed.size:
                row = int(collapsed[0])
                c, i = divmod(row, x.shape[1])
                raise models.ZeroSum(f"category {category_names(len(x))[c]} row {i}: "
                                     "quaternion head collapsed to zero", row)
        return dct.pose_matrices(y, spec.representation)
    label = np.argmax(models.forward(nets["logits"], x), axis=-1)  # ties take the lowest index
    if spec.family == "C":
        return dct.pose_matrices(dictionary.keys[label], dictionary.representation)
    if spec.per_bin:  # each row through the head of its own (category, label)
        heads, cat = nets["deltas"], np.repeat(np.arange(len(x)), x.shape[1])
        flat, rows = label.ravel(), x.reshape(-1, 1, x.shape[-1])
        delta = np.concatenate([
            models.forward(models.on_buffer(heads.params[cat[s], flat[s]], heads), rows[s])[:, 0]
            for s in (slice(i, i + _DECODE_BLOCK) for i in range(0, len(rows), _DECODE_BLOCK))
        ]).reshape(label.shape + (-1,))
    else:
        delta = models.forward(nets["delta"], x)
    return models.compose_rotation(spec.combination, dictionary.keys[label], delta)


# ---------------------------------------------------------------------------
# optimizer

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


@dataclasses.dataclass(eq=False)
class _RoleState:
    """One role's training state: its stacked network, whose (..., P) buffer
    Adam steps, the moments (2, ..., P), m then v, and each stack entry's
    step count t (...).  A role whose every entry the objective reads is
    stepped in place; the per-bin heads of the hard-label families are
    stepped as a gather of the heads a step reads, scattered back after."""

    net: models.MLP
    moments: np.ndarray
    t: np.ndarray

    @classmethod
    def fresh(cls, net: models.MLP) -> "_RoleState":
        return cls(net, np.zeros((2,) + net.params.shape), np.zeros(net.params.shape[:-1], dtype=int))

    def gather(self, sel) -> "_RoleState":
        """A copy of the entries at sel (index arrays over the stack axes), to
        step as one block.  Its moments are taken by flat index, C-contiguous:
        moments[:, *sel] is strided, and the update runs at half speed on it."""
        at = np.ravel_multi_index(sel, self.t.shape)
        moments = np.take(self.moments.reshape(2, -1, self.moments.shape[-1]), at, axis=1)
        return _RoleState(models.on_buffer(self.net.params[sel], self.net), moments, self.t[sel])

    def scatter(self, sel, block: "_RoleState") -> None:
        """Write a gather(sel) block back."""
        self.net.params[sel], self.moments[(slice(None), *sel)], self.t[sel] = (
            block.net.params, block.moments, block.t)


def _adam_update(state: _RoleState, grad, lr: float) -> None:
    """Step every entry of state once from grad (..., P), in place, using
    grad as scratch, in Kingma & Ba's efficient form (ICLR 2015, section
    2): both bias corrections fold into the step size, alpha_t = lr
    sqrt(1 - b2^t) / (1 - b1^t), and eps into eps_t = eps sqrt(1 - b2^t),
    which equals the textbook update up to rounding with one divide instead
    of three.  The moments are kept as m~ = m / (1 - b1) and v~ = v / (1 -
    b2), so alpha_t m / (sqrt(v) + eps_t) is rate m~ / (sqrt(v~) + eps_v),
    with rate = alpha_t (1 - b1) / sqrt(1 - b2) and eps_v = eps_t / sqrt(1 - b2)."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v = state.moments
    state.t += 1
    root_c2 = np.sqrt((1.0 - b2**state.t) / (1.0 - b2))
    rate = (lr * (1.0 - b1) * root_c2 / (1.0 - b1**state.t))[..., None]
    eps_v = (ADAM_EPS * root_c2)[..., None]
    m *= b1  # m~ b1 + g, v~ b2 + g g, rate * (m~ / (sqrt(v~) + eps_v))
    m += grad
    v *= b2
    v += np.multiply(grad, grad, out=grad)
    np.sqrt(v, out=grad)
    grad += eps_v
    np.divide(m, grad, out=grad)
    grad *= rate
    state.net.params -= grad


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
    """The train split's own features (G, rows, feature_dim), not a copy,
    and its G * rows targets in category order: each category's clean rows
    first, then its aug_rows jittered ones."""
    mats = dataset.train.targets.reshape(-1, 3, 3)
    return dataset.train.features, _make_targets(spec, dictionary, mats, gamma)


def _step(spec, state, dictionary, feats, targets, lr) -> losses.BatchLoss:
    """One optimizer step of the role states on feats (G, n, in), n samples
    of each of G categories, and their G * n targets in category order.
    Every role steps in place on its whole stack, except the per-bin heads
    of the hard-label families: row (c, i) reads only head (c, argmax of
    its logits), so the heads some row reads are gathered once, with their
    moments and step counts, run on their category's n rows (the whole
    (G, K) stack's products, so its bits), stepped and scattered back.
    Either way a step moves exactly the entries the objective reads."""
    g, n = feats.shape[:2]
    stepped, cached, rows = dict(state), {}, {}
    for role, s in state.items():
        if role != "deltas":
            out, cached[role] = models.forward_cached(s.net, feats)
            rows[role] = out.reshape(g * n, -1)
    if spec.every_head:  # row (c, i) reads sample i of every head of c, as (G * n, K, d) rows:
        # a copy, C-contiguous, because the expectation einsum's bits follow the layout
        out, cached["deltas"] = models.forward_cached(state["deltas"].net, feats[:, None])
        rows["deltas"] = out.swapaxes(1, 2).reshape(g * n, *out.shape[1::2])
    elif spec.per_bin:  # row (c, i) reads sample i of head (c, argmax(logits))
        shape = state["deltas"].t.shape
        read = np.ravel_multi_index((np.arange(g * n) // n, np.argmax(rows["logits"], axis=1)), shape)
        read, slot = np.unique(read, return_inverse=True)  # slot: each row's head in sel
        sel = np.unravel_index(read, shape)  # in buffer order
        block = stepped["deltas"] = state["deltas"].gather(sel)
        out, cached["deltas"] = models.forward_cached(block.net, feats[sel[0]])  # (S, n, d)
        at = slot, np.arange(g * n) % n
        rows["deltas"] = out[at]
    if spec.family in losses.DIRECT_FAMILIES:
        prediction = rows["pose"]
    elif spec.family == "C":
        prediction = rows["logits"]
    else:
        prediction = (rows["logits"], rows["deltas" if spec.per_bin else "delta"])
    batch = losses.objective_batch(spec, prediction, targets, dictionary)

    for role, grad in batch.grads.items():
        s = stepped[role]
        if role != "deltas":
            grad = grad.reshape(g, n, -1)
        elif spec.every_head:  # (G, K, n, d), C-contiguous, as the forward's rows are
            grad = np.ascontiguousarray(grad.reshape(g, n, *grad.shape[1:]).swapaxes(1, 2))
        else:  # each row's gradient at its sample of its gathered head
            grad, row_grads = np.zeros_like(out), grad
            grad[at] = row_grads
        _adam_update(s, models.backward(s.net, cached[role], grad / n), lr)
        if s is not state[role]:
            state[role].scatter(sel, s)
    return batch


def train(cfg: ExperimentConfig, dataset: SyntheticDataset,
          dictionary: dct.PoseDictionary = None):
    """Balanced-batch Adam training of one network set per category, all
    categories at once: each role is one network stacked over them.

    Every batch takes the same per-category quota; with augmentation the
    quota is split half clean, half from the augmented pool.  The learning
    rate decays by cfg.optimizer.decay after every scheduled epoch, and the
    geodesic/riemannian Bin & Delta families spend one warm-start epoch on
    their Simple counterpart (Adam moments and step counts zeroed when the
    objective switches).  Returns (nets, dictionary, TrainLog): nets maps
    each role to its network stacked over the categories, whose (G, ..., P)
    buffer Adam stepped; no optimizer state stays reachable from them.
    """
    spec = cfg.objective
    opt = cfg.optimizer
    if len(dataset.categories) != cfg.data.categories:
        raise ValueError(f"a dataset of {len(dataset.categories)} categories for a config of "
                         f"{cfg.data.categories}")
    if dictionary is None and spec.family not in losses.DIRECT_FAMILIES:
        dictionary = fit_shared_dictionary(cfg, dataset)
    schedule = losses.simple_init_schedule(spec, opt.epochs)
    soft = spec.family in losses.SOFT_TARGET_FAMILIES
    gamma = losses.resolve_gamma(spec, dictionary) if soft else None
    # before the training state, so its moments are not live through the targets' temporaries
    feats, targets = _training_rows(spec, dictionary, dataset, gamma)

    names = dataset.categories
    state = {role: _RoleState.fresh(net) for role, net in init_networks(cfg).items()}
    batch_rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, c, 10]))
                  for c in range(len(names))]

    pool = dataset.aug_rows
    size = feats.shape[1] - pool
    clean_quota = max(1, opt.batch_per_category // 2) if pool else opt.batch_per_category
    aug_quota = opt.batch_per_category - clean_quota if pool else 0
    steps = size // clean_quota
    if steps < 1:
        raise ValueError("batch_per_category exceeds the train split")
    aug_draws = -(-(steps * aug_quota + pool) // pool) if aug_quota else 0
    g, n, width = len(names), opt.batch_per_category, feats.shape[1]
    flat = feats.reshape(g * width, -1)  # row c * width + i is category c's row i

    lines, epoch_losses, step_losses, epoch_non_smooth = [], [], [], []
    for epoch, epoch_spec in enumerate(schedule):
        if epoch and epoch_spec.family != schedule[epoch - 1].family:
            for s in state.values():  # fresh Adam state for the new objective
                s.moments.fill(0.0)
                s.t.fill(0)
        lr = opt.learning_rate * opt.decay**epoch

        # epoch plan (steps, G * n) of flat rows: per category, clean rows then pool rows
        idx = []
        for c, rng in enumerate(batch_rngs):
            parts = [rng.permutation(size)[: steps * clean_quota].reshape(steps, clean_quota)]
            if aug_quota:
                draws = np.concatenate([rng.permutation(pool) for _ in range(aug_draws)])
                parts.append(size + draws[: steps * aug_quota].reshape(steps, aug_quota))
            idx.append(c * width + np.concatenate(parts, axis=1))
        plan = np.stack(idx, axis=1).reshape(steps, g * n)

        values = np.empty((steps, g * n))
        non_smooth = np.empty((steps, g * n), dtype=bool)
        # divergence is reported via NonFiniteLoss, not warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for t, rows in enumerate(plan):
                try:
                    batch = _step(epoch_spec, state, dictionary,
                                  flat[rows].reshape(g, n, -1), targets.rows(rows), lr)
                except (losses.NonFiniteObjective, models.ZeroSum) as exc:
                    name = names[exc.row // n]
                    raise NonFiniteLoss(f"category {name} epoch {epoch} step {t}: {exc}") from exc
                values[t], non_smooth[t] = batch.values, batch.non_smooth
            # each step's mean, summed as one step sums it: by category, then over them
            per_step = ((values.reshape(steps, g, n).sum(axis=2) / n).sum(axis=1) / g).tolist()
        epoch_mean = sum(per_step) / len(per_step)
        epoch_losses.append(epoch_mean)
        step_losses.append(tuple(per_step))
        epoch_non_smooth.append(int(non_smooth.sum()))
        lines.append(f"epoch {epoch} objective {epoch_spec.family} lr {lr:.3e} "
                     f"loss {epoch_mean:.6f} non_smooth {epoch_non_smooth[-1]}")
    log = TrainLog(tuple(lines), tuple(epoch_losses), tuple(step_losses), tuple(epoch_non_smooth))
    return {role: s.net for role, s in state.items()}, dictionary, log


# ---------------------------------------------------------------------------
# end-to-end runs


@dataclasses.dataclass(frozen=True, eq=False)
class RunResult:
    config: ExperimentConfig
    report: metrics.MetricReport  # test split
    val_report: metrics.MetricReport
    log: TrainLog
    models: dict  # role -> network stacked over the categories
    dictionary: dct.PoseDictionary
    out_dir: str = None


def evaluate_split(spec, nets, dictionary, dataset, split: str) -> metrics.PoseRecords:
    """Pose records for one split from one predict_rotation call, in
    category-then-index order, each rotation checked as so3.Rotation does."""
    data = getattr(dataset, split)
    pred = predict_rotation(spec, nets, dictionary, data.features)
    return metrics.PoseRecords(
        np.repeat(np.array(dataset.categories, dtype=str), data.features.shape[1]),
        so3.check_rotations(data.targets.reshape(-1, 3, 3)),
        so3.check_rotations(pred.reshape(-1, 3, 3)),
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


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> RunResult:
    dataset = generate_synthetic(cfg)
    dictionary = fit_shared_dictionary(cfg, dataset)
    nets, dictionary, log = train(cfg, dataset, dictionary)
    spec = cfg.objective
    test_records = evaluate_split(spec, nets, dictionary, dataset, "test")
    val_records = evaluate_split(spec, nets, dictionary, dataset, "val")
    dump_dets, dump_gts = _dump_tables(test_records)
    report = metrics.pose_report(
        metrics.PoseRecords(dump_gts.category, dump_gts.rotation, dump_dets.rotation))
    val_report = metrics.pose_report(val_records)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
            fh.write(config_to_json(cfg) + "\n")
        for name, rep in (("report", report), ("val_report", val_report)):
            metrics.write_report(rep, os.path.join(out_dir, f"{name}.csv"),
                                 os.path.join(out_dir, f"{name}.json"))
        metrics.write_records(os.path.join(out_dir, "records.txt"), dump_dets, dump_gts)
        dct.save_dictionary(dictionary, os.path.join(out_dir, "dictionary.txt"))
        ck_dir = os.path.join(out_dir, "checkpoint")
        os.makedirs(ck_dir, exist_ok=True)
        for stem, net in _checkpoint_networks(nets, dataset.categories):
            models.save_mlp(net, os.path.join(ck_dir, f"{stem}.json"))
        with open(os.path.join(out_dir, "train_log.txt"), "w", encoding="utf-8") as fh:
            fh.write(log.text)
    return RunResult(cfg, report, val_report, log, nets, dictionary, out_dir)


@dataclasses.dataclass(frozen=True)
class TrialSummary:
    metric_means: dict  # metric -> mean of per-trial means
    metric_stds: dict
    seeds: tuple


def run_trials(cfg: ExperimentConfig, trials: int, out_dir=None) -> TrialSummary:
    """Repeat the experiment on `trials` consecutive seeds from cfg.seed;
    report mean/std per metric.  ValueError unless trials is an integer >= 1."""
    trials = _checks.count(trials, "trials")
    seeds = tuple(cfg.seed + t for t in range(trials))
    results = []
    for t, s in enumerate(seeds):
        sub = os.path.join(out_dir, f"trial_{t}") if out_dir is not None else None
        results.append(run_experiment(dataclasses.replace(cfg, seed=s), out_dir=sub))
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
                base, objective=dataclasses.replace(base.objective, representation=rep)
            )
        except losses.FamilyMismatch:
            continue
        cells.append(("representation", rep, cfg))
    for k in ABLATION_KS:
        cells.append(("dictionary_size", str(k), dataclasses.replace(base, dictionary_size=k)))
    for alpha in ABLATION_ALPHAS:
        cfg = dataclasses.replace(base, objective=dataclasses.replace(base.objective, alpha=alpha))
        cells.append(("alpha", str(alpha), cfg))
    for aug in AUGMENTATIONS:
        cfg = dataclasses.replace(base, data=dataclasses.replace(base.data, augmentation=aug))
        cells.append(("augmentation", aug, cfg))
    return cells


def ablation_suite(base: ExperimentConfig, out_dir=None) -> AblationResult:
    """Run every ablation cell.  A cell whose config equals an earlier
    cell's reuses that run, and with out_dir a copy of its files."""
    cells = []
    for sweep, value, cfg in ablation_cells(base):
        sub = None
        if out_dir is not None:
            sub = os.path.join(out_dir, f"{sweep}_{value.replace('+', '_')}")
        done = next((c.result for c in cells if c.config == cfg), None)
        if done is None:
            result = run_experiment(cfg, out_dir=sub)
        else:
            if sub is not None:
                shutil.copytree(done.out_dir, sub, dirs_exist_ok=True)
            result = dataclasses.replace(done, out_dir=sub)
        cells.append(AblationCell(sweep, value, cfg, result))
    alpha_cells = [c for c in cells if c.sweep == "alpha"]
    best = min(alpha_cells, key=lambda c: (c.result.val_report.mean["MedErr"], c.value))
    result = AblationResult(tuple(cells), float(best.value))
    if out_dir is not None:
        with open(os.path.join(out_dir, "ablation.csv"), "w", encoding="utf-8") as fh:
            fh.write(result.table())
    return result
