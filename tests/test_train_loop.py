"""harness.train's epoch plan against the per-step loop it replaced: the
same rows in the same order, the same step arithmetic and the same sums, so
logs and weights agree bit for bit.  Also how a diverging run is reported."""

import tracemalloc
import warnings

import numpy as np
import pytest

from orientgeo import dictionary as dct
from orientgeo import harness, losses, models


def reference_train(cfg, dataset):
    """The per-step training loop as harness.train ran it before the epoch
    plan: one gather, one errstate and one loss sum per step."""
    spec, opt = cfg.objective, cfg.optimizer
    dictionary = None
    if spec.family not in losses.DIRECT_FAMILIES:
        dictionary = harness.fit_shared_dictionary(cfg, dataset)
    schedule = losses.simple_init_schedule(spec, opt.epochs)
    gamma = (losses.resolve_gamma(spec, dictionary)
             if spec.family in losses.SOFT_TARGET_FAMILIES else None)
    names = dataset.categories
    nets = harness.init_networks(cfg)
    batch_rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, c, 10]))
                  for c in range(len(names))]
    feats, targets = harness._training_rows(spec, dictionary, dataset, gamma)

    pool = dataset.aug_rows
    size = feats.shape[1] - pool
    clean_quota = max(1, opt.batch_per_category // 2) if pool else opt.batch_per_category
    aug_quota = opt.batch_per_category - clean_quota if pool else 0
    steps = size // clean_quota
    aug_draws = -(-(steps * aug_quota + pool) // pool) if aug_quota else 0
    cats = np.arange(len(names))[:, None]

    lines, epoch_losses, step_losses, epoch_non_smooth = [], [], [], []
    for epoch, epoch_spec in enumerate(schedule):
        if epoch == 0 or epoch_spec.family != schedule[epoch - 1].family:
            state = {role: harness._RoleState.fresh(net) for role, net in nets.items()}
        lr = opt.learning_rate * opt.decay**epoch
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
                with np.errstate(over="ignore", invalid="ignore"):
                    batch = harness._step(
                        epoch_spec, state, dictionary, feats[cats, idx[:, t]],
                        targets.rows((cats * feats.shape[1] + idx[:, t]).ravel()), lr)
            except (losses.NonFiniteObjective, models.ZeroSum) as exc:
                name = names[exc.row // opt.batch_per_category]
                raise harness.NonFiniteLoss(
                    f"category {name} epoch {epoch} step {t}: {exc}") from exc
            cat_losses = batch.values.reshape(len(names), -1).sum(axis=1) / opt.batch_per_category
            per_step.append(float(cat_losses.sum()) / len(names))
            non_smooth += int(batch.non_smooth.sum())
        epoch_mean = sum(per_step) / len(per_step)
        epoch_losses.append(epoch_mean)
        step_losses.append(tuple(per_step))
        epoch_non_smooth.append(non_smooth)
        lines.append(f"epoch {epoch} objective {epoch_spec.family} lr {lr:.3e} "
                     f"loss {epoch_mean:.6f} non_smooth {non_smooth}")
    log = harness.TrainLog(tuple(lines), tuple(epoch_losses), tuple(step_losses),
                           tuple(epoch_non_smooth))
    return nets, log


def _config(family, batch, augmentation="none", lr=1e-3, representation=dct.AXIS_ANGLE):
    return harness.ExperimentConfig(
        objective=losses.ObjectiveSpec(family, representation),
        dictionary_size=8,
        hidden=(16, 8),
        optimizer=harness.OptimizerConfig(learning_rate=lr, epochs=2, batch_per_category=batch),
        data=harness.DataConfig(categories=3, train_samples=64, val_samples=8,
                                test_samples=8, feature_dim=16, augmentation=augmentation),
        seed=3,
    )


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


# 8 and 16 rows per category: numpy's pairwise sum takes its unrolled path
# from 8 elements on, so both sides of that switch are summed
@pytest.mark.parametrize("batch", [8, 16])
@pytest.mark.parametrize("family, augmentation", [
    ("R_G", "jittered"),  # the regress workload's family, half its rows from the pool
    ("M_Gp", "none"),  # a warm-start M_Sp epoch, then fresh Adam state; per-bin heads
    ("M_X", "none"),  # soft targets, a shared delta network
])
def test_epoch_plan_equals_the_per_step_loop(family, augmentation, batch):
    cfg = _config(family, batch, augmentation)
    dataset = harness.generate_synthetic(cfg)
    nets, _, log = harness.train(cfg, dataset)
    ref_nets, ref_log = reference_train(cfg, dataset)

    assert log.lines == ref_log.lines
    assert np.array(log.step_losses).tobytes() == np.array(ref_log.step_losses).tobytes()
    assert np.array(log.epoch_losses).tobytes() == np.array(ref_log.epoch_losses).tobytes()
    assert log.epoch_non_smooth == ref_log.epoch_non_smooth
    assert len(log.lines) == len(losses.simple_init_schedule(cfg.objective, 2))
    assert list(nets) == list(ref_nets)
    for role, net in nets.items():  # every layer is a view of its role's buffer
        assert _bits(net.params) == _bits(ref_nets[role].params)


def _diverging(cause):
    """An R_E run whose loss leaves the finite floats after some steps:
    every category at a step size of 1e200, or cat02 alone at the step that
    draws its train row 17, whose features are scaled up to 1e200 (the
    quaternion head is linear, so its squared error overflows)."""
    if cause == "step size":
        cfg = _config("R_E", 8, lr=1e200)
    else:
        cfg = _config("R_E", 8, representation=dct.QUATERNION)
    dataset = harness.generate_synthetic(cfg)
    if cause == "feature row":
        dataset.train.features[1, 17] *= 1e200  # cat02
    return cfg, dataset


def test_non_finite_loss_names_category_epoch_and_step_as_the_loop_did():
    cfg, dataset = _diverging("feature row")
    with pytest.raises(harness.NonFiniteLoss) as ref:
        reference_train(cfg, dataset)
    with pytest.raises(harness.NonFiniteLoss) as got:
        harness.train(cfg, dataset)
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith("category cat02 epoch 0 step ")
    assert not str(got.value).startswith("category cat02 epoch 0 step 0:")
    assert isinstance(got.value.__cause__, losses.NonFiniteObjective)


@pytest.mark.parametrize("cause", ["step size", "feature row"])
def test_a_diverging_run_lets_no_warning_escape(cause):
    cfg, dataset = _diverging(cause)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(harness.NonFiniteLoss, match="epoch 0 step"):
            harness.train(cfg, dataset)


def test_the_epoch_plan_holds_row_indices_not_a_feature_copy():
    """The plan gathers each step's rows from the train split's stacked
    features, which the dataset holds once; a (steps, G, n, in) copy of
    them, or a second stack of the train rows, would double the peak of a
    run whose features are most of its memory."""
    cfg = harness.ExperimentConfig(
        objective=losses.ObjectiveSpec("R_G"), hidden=(16, 8),
        optimizer=harness.OptimizerConfig(epochs=1),
        data=harness.DataConfig(categories=2, train_samples=256, val_samples=8, test_samples=8,
                                feature_dim=512, augmentation="jittered"),
    )
    stacked = 2 * (256 + 256) * 512 * 8  # bytes of the (G, rows + pool, in) training rows
    np.random.default_rng()  # numpy imports numpy.random on first use: not data, so not traced
    tracemalloc.start()
    try:
        harness.train(cfg, harness.generate_synthetic(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stacked < peak < 1.5 * stacked
