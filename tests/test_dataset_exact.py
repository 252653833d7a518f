"""harness.generate_synthetic's stacked splits against the per-category
generator they replaced: the same draws from the same streams, so every
array agrees bit for bit, and training reads the train split in place."""

import numpy as np
import pytest

from orientgeo import harness, losses

from so3_helpers import random_rotation


def reference_generate(cfg, seed):
    """The per-category generator as it stood before the stacked splits:
    {split: {category: (features, targets)}}, the train pairs with the
    jittered copies concatenated after the clean rows, and the hidden maps."""
    data = cfg.data
    splits, hidden_maps = {"train": {}, "val": {}, "test": {}}, {}
    for c, name in enumerate(harness.category_names(data.categories)):
        gen_rng, train_rng, val_rng, test_rng, aug_rng = [
            np.random.default_rng(np.random.SeedSequence([int(seed), c, which]))
            for which in range(5)
        ]
        w = gen_rng.normal(size=(data.feature_dim, 9)) / 3.0
        b = gen_rng.normal(size=data.feature_dim) * 0.1
        modes = np.stack([random_rotation(gen_rng).matrix for _ in range(data.modes)])
        hidden_maps[name] = (w, b)

        def features(rng, targets):
            feats = targets.reshape(targets.shape[0], 9) @ w.T + b
            if data.noise > 0.0:
                feats = feats + data.noise * rng.normal(size=feats.shape)
            return feats

        def split(rng, n):
            targets = harness._sample_targets(rng, modes, n, data.mode_spread)
            return features(rng, targets), targets

        feats, targets = split(train_rng, data.train_samples)
        pools = [(feats, targets)]
        for _ in range(harness._AUG_COPIES[data.augmentation]):
            jittered = harness._jittered_copy(aug_rng, targets)
            pools.append((features(aug_rng, jittered), jittered))
        splits["train"][name] = tuple(np.concatenate(p) for p in zip(*pools))
        splits["val"][name] = split(val_rng, data.val_samples)
        splits["test"][name] = split(test_rng, data.test_samples)
    return splits, hidden_maps


def _config(augmentation, modes, noise=0.05, seed=0):
    return harness.ExperimentConfig(
        objective=losses.ObjectiveSpec("R_G"),
        data=harness.DataConfig(categories=3, train_samples=24, val_samples=8, test_samples=10,
                                feature_dim=12, noise=noise, modes=modes,
                                augmentation=augmentation),
        seed=seed,
    )


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("augmentation", harness.AUGMENTATIONS)
@pytest.mark.parametrize("seed", [0, 7, 331])
@pytest.mark.parametrize("modes", [1, 4])
def test_stacked_splits_equal_the_per_category_generator(augmentation, seed, modes):
    cfg = _config(augmentation, modes, seed=seed)
    dataset = harness.generate_synthetic(cfg)
    want, want_maps = reference_generate(cfg, seed)
    assert dataset.categories == ("cat01", "cat02", "cat03")
    assert dataset.aug_rows == harness._AUG_COPIES[augmentation] * 24
    for split in ("train", "val", "test"):
        got = getattr(dataset, split)
        rows = want[split]["cat01"][0].shape[0]
        assert got.features.shape[:2] == got.targets.shape[:2] == (3, rows)
        for c, name in enumerate(dataset.categories):
            feats, targets = want[split][name]
            assert _bits(got.features[c]) == _bits(feats), (split, name)
            assert _bits(got.targets[c]) == _bits(targets), (split, name)
    for name, (w, b) in want_maps.items():
        assert _bits(dataset.hidden_maps[name][0]) == _bits(w)
        assert _bits(dataset.hidden_maps[name][1]) == _bits(b)


def test_noiseless_stacked_splits_equal_the_per_category_generator():
    cfg = _config("jittered+extra", 4, noise=0.0, seed=5)
    dataset = harness.generate_synthetic(cfg)
    want, _ = reference_generate(cfg, 5)
    for c, name in enumerate(dataset.categories):
        assert _bits(dataset.train.features[c]) == _bits(want["train"][name][0])
        assert _bits(dataset.train.targets[c]) == _bits(want["train"][name][1])


@pytest.mark.parametrize("augmentation", ["none", "jittered"])
def test_training_rows_are_the_train_split_itself(augmentation):
    cfg = _config(augmentation, 4)
    dataset = harness.generate_synthetic(cfg)
    feats, targets = harness._training_rows(cfg.objective, None, dataset, None)
    assert feats is dataset.train.features
    assert targets.y.shape[0] == feats.shape[0] * feats.shape[1]
