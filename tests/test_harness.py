"""Harness behavior: config serialization, synthetic-data contracts,
deterministic training, artifact layout, and the ablation sweeps."""

import dataclasses
import json
import math
import os
import pathlib

import numpy as np
import pytest

from orientgeo import dictionary as dct
from orientgeo import harness, losses, metrics, models, so3

import record_golden_report
import record_golden_training
from so3_helpers import random_axis_angle, random_rotation


def tiny_config(family="M_G", **overrides):
    data = overrides.pop(
        "data",
        harness.DataConfig(
            categories=2,
            train_samples=60,
            val_samples=24,
            test_samples=24,
            feature_dim=16,
            noise=0.01,
        ),
    )
    opt = overrides.pop(
        "optimizer", harness.OptimizerConfig(learning_rate=1e-3, epochs=2)
    )
    return harness.ExperimentConfig(
        objective=losses.ObjectiveSpec(family),
        dictionary_size=overrides.pop("dictionary_size", 8),
        hidden=overrides.pop("hidden", (16, 8)),
        optimizer=opt,
        data=data,
        **overrides,
    )


# ---------------------------------------------------------------------------
# configuration


def test_config_json_roundtrip_all_fields():
    cfg = tiny_config(
        "M_Xp",
        data=harness.DataConfig(
            categories=3, train_samples=50, val_samples=10, test_samples=10,
            feature_dim=16, noise=0.2, modes=2, mode_spread=0.3,
            augmentation="jittered",
        ),
        seed=7,
    )
    assert harness.config_from_json(harness.config_to_json(cfg)) == cfg


def test_config_keys_are_pinned():
    """Every settable option of a config file; adding or removing one is a
    deliberate edit of this list."""
    doc = json.loads(harness.config_to_json(harness.ExperimentConfig()))
    assert sorted(doc) == ["data", "dictionary_size", "hidden", "objective", "optimizer",
                           "seed"]
    assert sorted(doc["objective"]) == ["alpha", "family", "gamma", "representation"]
    assert sorted(doc["optimizer"]) == ["batch_per_category", "decay", "epochs",
                                        "learning_rate"]
    assert sorted(doc["data"]) == ["augmentation", "categories", "feature_dim", "mode_spread",
                                   "modes", "noise", "test_samples", "train_samples",
                                   "val_samples"]


def test_default_config_roundtrips():
    cfg = harness.ExperimentConfig()
    assert harness.config_from_json(harness.config_to_json(cfg)) == cfg


def test_config_with_unknown_top_level_keys_is_rejected():
    doc = json.loads(harness.config_to_json(tiny_config(seed=5)))
    doc["sede"] = 5
    doc["Trials"] = 2
    with pytest.raises(ValueError, match="^unknown config keys: Trials, sede$"):
        harness.config_from_json(json.dumps(doc))


@pytest.mark.parametrize("section, name, error", [
    (None, "dictionary_seed", ValueError), ("optimizer", "beta1", TypeError),
    ("optimizer", "beta2", TypeError), ("optimizer", "eps", TypeError),
])
def test_config_with_a_removed_leaf_is_refused(section, name, error):
    # a config file written while these were settable names the key it
    # still carries instead of loading with it ignored
    doc = json.loads(harness.config_to_json(tiny_config()))
    (doc if section is None else doc[section])[name] = 0.5
    with pytest.raises(error, match=name):
        harness.config_from_json(json.dumps(doc))


def test_config_must_be_a_json_object():
    with pytest.raises(ValueError, match="JSON object"):
        harness.config_from_json("[1, 2]")


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        harness.OptimizerConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        harness.OptimizerConfig(epochs=0)
    with pytest.raises(ValueError):
        harness.DataConfig(feature_dim=4)
    with pytest.raises(ValueError):
        harness.DataConfig(augmentation="mirror")
    with pytest.raises(ValueError):
        harness.ExperimentConfig(dictionary_size=0)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
        harness.ExperimentConfig(seed=seed)


COUNTS = [
    ("optimizer", "epochs"), ("optimizer", "batch_per_category"), ("data", "categories"),
    ("data", "train_samples"), ("data", "val_samples"), ("data", "test_samples"),
    ("data", "feature_dim"), ("data", "modes"), (None, "dictionary_size"),
]


@pytest.mark.parametrize("section, name", COUNTS)
@pytest.mark.parametrize("value", [16.0, 16.5, "16"])
def test_counts_must_be_integers(section, name, value):
    doc = json.loads(harness.config_to_json(tiny_config()))
    (doc if section is None else doc[section])[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        harness.config_from_json(json.dumps(doc))


NON_FINITE_FLOATS = [
    ("optimizer", "learning_rate"), ("optimizer", "decay"),
    ("data", "noise"), ("data", "mode_spread"), ("objective", "alpha"), ("objective", "gamma"),
]


@pytest.mark.parametrize("section, name", NON_FINITE_FLOATS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_floats_must_be_finite(section, name, value):
    # a comparison alone lets NaN through: "noise": NaN trained on noiseless features
    doc = json.loads(harness.config_to_json(tiny_config()))
    doc[section][name] = value
    with pytest.raises(ValueError, match=name):
        harness.config_from_json(json.dumps(doc))


@pytest.mark.parametrize("section, name", COUNTS + NON_FINITE_FLOATS + [(None, "seed")])
@pytest.mark.parametrize("value", [True, False])
def test_config_numbers_refuse_json_booleans(section, name, value):
    # Python's bool is an int subclass: true would load as 1 and false as 0,
    # and a float leaf would be written back to config.json as a boolean
    doc = json.loads(harness.config_to_json(tiny_config()))
    (doc if section is None else doc[section])[name] = value
    with pytest.raises(ValueError, match=name):
        harness.config_from_json(json.dumps(doc))


def test_config_constructors_refuse_booleans():
    with pytest.raises(ValueError, match="^epochs must be an integer >= 1, got True"):
        harness.OptimizerConfig(epochs=True)
    with pytest.raises(ValueError, match="^noise must be non-negative and finite"):
        harness.DataConfig(noise=True)
    with pytest.raises(ValueError, match="^dictionary_size must be an integer >= 1, got True"):
        harness.ExperimentConfig(dictionary_size=True)
    with pytest.raises(ValueError, match="^each hidden size must be an integer >= 1"):
        tiny_config(hidden=(16, True))
    with pytest.raises(ValueError, match="^gamma must be positive and finite"):
        losses.ObjectiveSpec("M_X", gamma=True)


@pytest.mark.parametrize("make, message", [
    (lambda: harness.OptimizerConfig(learning_rate="1e-3"),
     "^learning_rate and decay must be positive and finite"),
    (lambda: harness.DataConfig(noise="0.1"), "^noise must be non-negative and finite"),
    (lambda: harness.DataConfig(mode_spread=None), "^mode_spread must be positive and finite"),
    (lambda: losses.ObjectiveSpec("M_G", alpha="1"), "^alpha must be positive and finite"),
    (lambda: losses.ObjectiveSpec("M_X", gamma=[1.0]), "^gamma must be positive and finite"),
])
def test_config_floats_refuse_values_that_are_not_numbers(make, message):
    with pytest.raises(ValueError, match=message):
        make()


# alpha and gamma take null as "use the default"; the other floats have no such meaning
@pytest.mark.parametrize("section, name, value", [
    (section, name, value) for section, name in NON_FINITE_FLOATS
    for value in ["0.5", [0.5], {"value": 0.5}] + ([] if section == "objective" else [None])
])
def test_config_floats_given_as_json_strings_or_null_name_their_field(section, name, value):
    doc = json.loads(harness.config_to_json(tiny_config()))
    doc[section][name] = value
    with pytest.raises(ValueError, match=name):
        harness.config_from_json(json.dumps(doc))


@pytest.mark.parametrize("hidden", [[8.7], [16, 8.0], [0], []])
def test_hidden_sizes_must_be_positive_integers(hidden):
    with pytest.raises(ValueError, match="hidden"):
        tiny_config(hidden=hidden)


def test_seed_accepts_any_index_and_stores_an_int():
    cfg = harness.ExperimentConfig(seed=np.int64(7))
    assert type(cfg.seed) is int and cfg.seed == 7
    assert harness.config_from_json(harness.config_to_json(cfg)) == cfg


def test_seed_env_var_overrides_config(monkeypatch, tmp_path):
    cfg = tiny_config(seed=3)
    path = tmp_path / "config.json"
    path.write_text(harness.config_to_json(cfg))
    monkeypatch.setenv(harness.SEED_ENV_VAR, "41")
    assert harness.load_config(path).seed == 41
    monkeypatch.delenv(harness.SEED_ENV_VAR)
    assert harness.load_config(path).seed == 3


def test_replace_rederives_combination_rule():
    spec = losses.ObjectiveSpec("M_G")
    assert spec.combination == models.ADDITIVE
    requat = dataclasses.replace(spec, representation=dct.QUATERNION)
    assert requat.combination == models.QUATERNION_RENORM
    # the warm-start swap of a riemannian family onto its Simple counterpart
    warm = dataclasses.replace(losses.ObjectiveSpec("M_R"), family="M_S")
    assert warm.combination == models.ADDITIVE


# ---------------------------------------------------------------------------
# synthetic data


def test_generate_is_deterministic():
    cfg = tiny_config()
    a = harness.generate_synthetic(cfg, 5)
    b = harness.generate_synthetic(cfg, 5)
    assert np.array_equal(a.train.features, b.train.features)
    assert np.array_equal(a.test.targets, b.test.targets)


def test_generate_targets_are_rotations_and_features_finite():
    ds = harness.generate_synthetic(tiny_config(), 0)
    for split in (ds.train, ds.val, ds.test):
        assert np.all(np.isfinite(split.features))
        for per_cat in split.targets:
            for m in per_cat[:10]:
                so3.Rotation(m)  # validates orthonormality


def test_splits_are_disjoint():
    ds = harness.generate_synthetic(tiny_config(), 0)
    for c in range(len(ds.categories)):
        seen = {m.tobytes() for m in ds.train.targets[c]}
        assert not seen & {m.tobytes() for m in ds.val.targets[c]}
        assert not seen & {m.tobytes() for m in ds.test.targets[c]}


def test_noise_zero_features_are_exact_map_of_targets():
    cfg = tiny_config(data=harness.DataConfig(
        categories=1, train_samples=30, val_samples=8, test_samples=8,
        feature_dim=16, noise=0.0,
    ))
    ds = harness.generate_synthetic(cfg, 0)
    name = ds.categories[0]
    w, b = ds.hidden_maps[name]
    expected = ds.train.targets[0].reshape(-1, 9) @ w.T + b
    assert np.array_equal(ds.train.features[0], expected)


def test_two_tight_modes_give_bimodal_label_histogram():
    cfg = tiny_config(data=harness.DataConfig(
        categories=1, train_samples=300, val_samples=8, test_samples=8,
        feature_dim=16, noise=0.0, modes=2, mode_spread=0.05,
    ))
    ds = harness.generate_synthetic(cfg, 1)
    vectors = [harness.pose_vector(m, dct.AXIS_ANGLE) for m in ds.train.targets[0]]
    # keys fit on unrelated uniform rotations, so the histogram reflects the
    # data distribution instead of the clustering chasing it
    rng = np.random.default_rng(0)
    uniform = [so3.log_rotation(random_rotation(rng).matrix) for _ in range(400)]
    dictionary = dct.fit_kmeans(uniform, 8, seed=0)
    counts = np.bincount(dct.hard_labels(np.array(vectors), dictionary), minlength=8)
    top2 = np.sort(counts)[-2:].sum()
    assert top2 >= 0.9 * len(vectors)
    assert np.sum(counts >= 0.05 * len(vectors)) == 2


def test_augmented_pool_sizes():
    for aug, copies in (("none", 0), ("jittered", 1), ("jittered+extra", 2)):
        cfg = tiny_config(data=harness.DataConfig(
            categories=1, train_samples=40, val_samples=8, test_samples=8,
            feature_dim=16, noise=0.0, augmentation=aug,
        ))
        ds = harness.generate_synthetic(cfg, 0)
        assert ds.aug_rows == copies * 40
        assert ds.train.features.shape[:2] == ds.train.targets.shape[:2] == (1, 40 + copies * 40)
        for m in ds.train.targets[0, 40:45]:
            so3.Rotation(m)


def test_augmented_poses_stay_near_originals():
    cfg = tiny_config(data=harness.DataConfig(
        categories=1, train_samples=40, val_samples=8, test_samples=8,
        feature_dim=16, noise=0.0, augmentation="jittered",
    ))
    ds = harness.generate_synthetic(cfg, 0)
    # offsets are at most |daz|+|del|+|dct| <= 6 degrees of combined motion
    for orig, jit in zip(ds.train.targets[0, :40], ds.train.targets[0, 40:]):
        d = so3.geodesic_distance_matrices(so3.Rotation(orig).matrix, so3.Rotation(jit).matrix)
        assert np.degrees(d) <= 6.0 + 1e-6


# ---------------------------------------------------------------------------
# training


def test_train_is_deterministic():
    cfg = tiny_config("M_G")
    ds = harness.generate_synthetic(cfg, 0)
    nets_a, _, log_a = harness.train(cfg, ds, seed=0)
    nets_b, _, log_b = harness.train(cfg, ds, seed=0)
    assert log_a.lines == log_b.lines
    assert list(nets_a) == list(nets_b)
    for role, net in nets_a.items():
        assert np.array_equal(net.params, nets_b[role].params)


def test_simple_init_prepends_warm_epoch():
    cfg = tiny_config("M_G")
    ds = harness.generate_synthetic(cfg, 0)
    _, _, log = harness.train(cfg, ds, seed=0)
    assert len(log.lines) == cfg.optimizer.epochs + 1
    assert "M_S" in log.lines[0] and "M_G" in log.lines[1]
    cfg_plain = tiny_config("C")
    _, _, log_plain = harness.train(cfg_plain, ds, seed=0)
    assert len(log_plain.lines) == cfg_plain.optimizer.epochs


def test_first_epoch_loss_trend_decreases_on_clean_data():
    cfg = tiny_config(
        "R_G",
        data=harness.DataConfig(
            categories=1, train_samples=240, val_samples=8, test_samples=8,
            feature_dim=16, noise=0.0,
        ),
        optimizer=harness.OptimizerConfig(learning_rate=1e-3, epochs=1),
    )
    ds = harness.generate_synthetic(cfg, 0)
    _, _, log = harness.train(cfg, ds, seed=0)
    steps = log.step_losses[0]
    assert len(steps) == 30
    head = sum(steps[:10]) / 10
    tail = sum(steps[-10:]) / 10
    assert tail < head


def test_non_finite_loss_reports_location():
    cfg = tiny_config(
        "R_E",
        data=harness.DataConfig(
            categories=1, train_samples=40, val_samples=8, test_samples=8,
            feature_dim=16, noise=0.0,
        ),
        optimizer=harness.OptimizerConfig(learning_rate=1e200, epochs=1),
    )
    ds = harness.generate_synthetic(cfg, 0)
    with pytest.raises(harness.NonFiniteLoss, match="cat01 epoch 0"):
        harness.train(cfg, ds, seed=0)


def test_wrong_feature_width_raises_dimension_mismatch():
    cfg = tiny_config("R_G")
    narrow = dataclasses.replace(cfg, data=dataclasses.replace(cfg.data, feature_dim=12))
    ds = harness.generate_synthetic(narrow, 0)
    with pytest.raises(models.DimensionMismatch) as info:
        harness.train(cfg, ds, seed=0)
    assert not isinstance(info.value, harness.NonFiniteLoss)


def test_collapsed_quaternion_head_reports_non_finite_loss(monkeypatch):
    cfg = tiny_config("R_G", data=harness.DataConfig(
        categories=1, train_samples=40, val_samples=8, test_samples=8, feature_dim=16,
    ))
    cfg = dataclasses.replace(
        cfg, objective=dataclasses.replace(cfg.objective, representation=dct.QUATERNION)
    )
    build = harness.build_category_model

    def zero_head(cfg, seed):
        nets = build(cfg, seed)
        head = nets["pose"].layers[-1]
        head.weight[:] = 0.0
        head.bias[:] = 0.0
        return nets

    monkeypatch.setattr(harness, "build_category_model", zero_head)
    with pytest.raises(harness.NonFiniteLoss, match="cat01 epoch 0 step 0") as info:
        harness.train(cfg, harness.generate_synthetic(cfg, 0), seed=0)
    assert isinstance(info.value.__cause__, models.ZeroSum)


def test_non_finite_loss_names_the_failing_category(monkeypatch):
    cfg = tiny_config("R_G", data=harness.DataConfig(
        categories=2, train_samples=40, val_samples=8, test_samples=8, feature_dim=16,
    ))
    cfg = dataclasses.replace(
        cfg, objective=dataclasses.replace(cfg.objective, representation=dct.QUATERNION)
    )
    build = harness.build_category_model

    def zero_cat02_head(cfg, seed):
        nets = build(cfg, seed)
        if seed == cfg.seed + 2000:  # cat02
            nets["pose"].layers[-1].weight[:] = 0.0
            nets["pose"].layers[-1].bias[:] = 0.0
        return nets

    monkeypatch.setattr(harness, "build_category_model", zero_cat02_head)
    with pytest.raises(harness.NonFiniteLoss, match="cat02 epoch 0 step 0") as info:
        harness.train(cfg, harness.generate_synthetic(cfg, 0), seed=0)
    assert isinstance(info.value.__cause__, models.ZeroSum)


GOLDEN_TRAINING = os.path.join(os.path.dirname(__file__), "golden_training.json")
GOLDEN_TRAINING_TOL = 1e-10


@pytest.mark.parametrize("case", sorted(record_golden_training.CASES))
def test_train_matches_golden_weights(case):
    with open(GOLDEN_TRAINING, encoding="utf-8") as fh:
        golden = json.load(fh)["cases"][case]
    cfg = record_golden_training.case_config(case)
    dataset = harness.generate_synthetic(cfg, 0)
    nets, _, log = harness.train(cfg, dataset, seed=0)
    assert list(log.lines) == golden["log"]
    weights = record_golden_training.network_weights(nets, dataset.categories)
    assert list(weights) == list(golden["weights"])
    for cat, got in weights.items():
        assert list(got) == list(golden["weights"][cat])
        for name, layers in got.items():
            for (w, b), want in zip(layers, golden["weights"][cat][name]):
                np.testing.assert_allclose(w, want["weight"], rtol=0, atol=GOLDEN_TRAINING_TOL)
                np.testing.assert_allclose(b, want["bias"], rtol=0, atol=GOLDEN_TRAINING_TOL)


GOLDEN_REPORT = os.path.join(os.path.dirname(__file__), "golden_report.json")
GOLDEN_DEGREES_TOL = 1e-9


@pytest.mark.parametrize("case", sorted(record_golden_report.CASES))
def test_run_matches_golden_report(case):
    with open(GOLDEN_REPORT, encoding="utf-8") as fh:
        golden = json.load(fh)["cases"][case]
    got = record_golden_report.golden_case(case)
    for split in ("test", "val"):
        acc, med = got[split]["Acc_pi6"], got[split]["MedErr"]
        assert acc == golden[split]["Acc_pi6"], split
        assert med["per_category"].keys() == golden[split]["MedErr"]["per_category"].keys()
        for cat, want in golden[split]["MedErr"]["per_category"].items():
            assert abs(med["per_category"][cat] - want) <= GOLDEN_DEGREES_TOL, (split, cat)
        assert abs(med["mean"] - golden[split]["MedErr"]["mean"]) <= GOLDEN_DEGREES_TOL, split
    assert abs(got["floor_deg"] - golden["floor_deg"]) <= GOLDEN_DEGREES_TOL


def test_perturbing_one_category_leaves_the_others_bit_identical():
    cfg = tiny_config("M_Gp")
    ds = harness.generate_synthetic(cfg, 0)
    nets_a, _, _ = harness.train(cfg, ds, seed=0)
    feats = ds.train.features.copy()
    feats[1] += 1e-3  # cat02
    train = harness.Split(feats, ds.train.targets)
    nets_b, _, _ = harness.train(cfg, dataclasses.replace(ds, train=train), seed=0)
    for role, net in nets_a.items():
        assert np.array_equal(net.params[0], nets_b[role].params[0])  # cat01
    assert not np.array_equal(
        nets_a["logits"].layers[0].weight[1], nets_b["logits"].layers[0].weight[1]
    )


def test_head_no_sample_selected_keeps_initial_weights(monkeypatch):
    cfg = tiny_config("M_Gp")
    build = harness.build_category_model

    def favour_key_zero(cfg, seed):
        nets = build(cfg, seed)
        nets["logits"].layers[-1].bias[0] = 1e3  # argmax is always key 0
        return nets

    monkeypatch.setattr(harness, "build_category_model", favour_key_zero)
    nets, _, _ = harness.train(cfg, harness.generate_synthetic(cfg, 0), seed=0)
    for c in range(2):
        init = build(cfg, cfg.seed + 1000 * (c + 1))["deltas"]
        for li, lt in zip(init.layers, nets["deltas"].layers):
            assert not np.array_equal(li.weight[0], lt.weight[c, 0])
            assert np.array_equal(li.weight[1:], lt.weight[c, 1:])
            assert np.array_equal(li.bias[1:], lt.bias[c, 1:])


def test_step_with_no_head_selected_leaves_the_heads_untouched(monkeypatch):
    # a batch whose per-bin gradient is zero everywhere selects no head:
    # the empty gather must step nothing and keep every head's weights
    cfg = tiny_config("M_Gp", optimizer=harness.OptimizerConfig(learning_rate=1e-3, epochs=1))
    objective_batch = losses.objective_batch

    def no_delta_gradient(*args):
        batch = objective_batch(*args)
        batch.grads["deltas"] = np.zeros_like(batch.grads["deltas"])
        return batch

    monkeypatch.setattr(losses, "objective_batch", no_delta_gradient)
    nets, _, _ = harness.train(cfg, harness.generate_synthetic(cfg, 0), seed=0)
    for c in range(2):
        init = harness.build_category_model(cfg, cfg.seed + 1000 * (c + 1))
        for role, moved in (("deltas", False), ("logits", True)):
            same = [np.array_equal(a.weight, b.weight[c])
                    for a, b in zip(init[role].layers, nets[role].layers)]
            assert same == [not moved] * len(same), role


def _step_case(family, categories=2):
    """A tiny config, its role stacks and Adam state as train builds them,
    and the first batch_per_category train rows of each category with
    their targets and the shared dictionary, for a direct _step call."""
    cfg = tiny_config(family)
    cfg = dataclasses.replace(cfg, data=dataclasses.replace(cfg.data, categories=categories))
    spec, dataset = cfg.objective, harness.generate_synthetic(cfg, 0)
    dictionary = harness.fit_shared_dictionary(cfg, dataset)
    soft = spec.family in losses.SOFT_TARGET_FAMILIES
    gamma = losses.resolve_gamma(spec, dictionary) if soft else None
    feats, targets = harness._training_rows(spec, dictionary, dataset, gamma)
    g, n, width = cfg.data.categories, cfg.optimizer.batch_per_category, feats.shape[1]
    per_cat = [harness.build_category_model(cfg, cfg.seed + 1000 * (c + 1)) for c in range(g)]
    nets = {role: models.stack([m[role] for m in per_cat]) for role in per_cat[0]}
    adams = {role: harness._Adam(net) for role, net in nets.items()}
    rows = (np.arange(g)[:, None] * width + np.arange(n)).ravel()
    batch = np.ascontiguousarray(feats[:, :n]), targets.rows(rows)
    return cfg, nets, adams, dictionary, batch


@pytest.mark.parametrize("categories", [1, 2])
@pytest.mark.parametrize("family", losses.PER_BIN_FAMILIES)
def test_step_hands_the_objective_the_heads_of_the_whole_stack(monkeypatch, family, categories):
    # with logit ties, each row reads the head argmax(logits) takes (the
    # lowest index), bit for bit as the whole (G, K) stack's forward gives
    # it, or every head for the expectation families, laid out as that
    # forward's rows are (their einsum's bits follow the layout, and one
    # category's rows are a head-major view); the step moves exactly the
    # heads read
    cfg, nets, adams, dictionary, (feats, targets) = _step_case(family, categories)
    g, n = feats.shape[:2]
    k = cfg.dictionary_size
    last = nets["logits"].layers[-1]
    level = np.median(np.delete(models.forward(nets["logits"], feats)[0], [2, 5], axis=1).max(axis=1))
    last.weight[0, [2, 5]] = 0.0  # category 0: keys 2 and 5 tie, at the others' median top
    last.bias[0, [2, 5]] = level
    last.weight[1:] = 0.0  # category 1: every key ties
    logits = models.forward(nets["logits"], feats)
    label = np.argmax(logits, axis=-1)
    assert np.all(logits[0, :, 2] == logits[0, :, 5]) and 0 < np.sum(label[0] == 2) < n
    assert np.all(label[1:] == 0)
    whole = models.forward(nets["deltas"], feats[:, None]).swapaxes(1, 2)  # (G, n, K, d)
    every = family in losses.EXPECTATION_FAMILIES
    if every:
        want, read = whole.reshape(g * n, k, -1), np.ones((g, k), dtype=bool)
    else:
        cats = np.arange(g)[:, None]
        want, read = whole[cats, np.arange(n), label].reshape(g * n, -1), np.zeros((g, k), bool)
        read[cats, label] = True
    seen, objective = [], losses.objective_batch
    monkeypatch.setattr(losses, "objective_batch", lambda *args: seen.append(args[1]) or objective(*args))
    before = nets["deltas"].params.copy()
    harness._step(cfg.objective, nets, adams, dictionary, feats, targets, 1e-3)
    (_, deltas), = seen
    assert deltas.shape == want.shape and deltas.tobytes() == want.tobytes()
    assert deltas.strides == want.strides
    assert np.array_equal(np.any(nets["deltas"].params != before, axis=-1), read)
    assert np.array_equal(adams["deltas"].t, read.astype(int))


def test_step_keeps_the_weights_and_adam_state_of_heads_it_does_not_step(monkeypatch):
    # unselected heads, and a selected head whose gradient is zero, keep
    # their weights and their m, v and t bit for bit; the others step once
    cfg, nets, adams, dictionary, (feats, targets) = _step_case("M_Gp")
    g, n = feats.shape[:2]
    bias = nets["logits"].layers[-1].bias
    bias[0, [1, 5]] += 1e3  # category 0 reads heads 1 and 5, category 1 head 6
    bias[1, 6] += 1e3
    label = np.argmax(models.forward(nets["logits"], feats), axis=-1)
    assert set(label[0].tolist()) == {1, 5} and set(label[1].tolist()) == {6}
    rng = np.random.default_rng(3)  # moments and step counts as after earlier steps
    adam = adams["deltas"]
    adam.m[:], adam.v[:] = rng.standard_normal(adam.m.shape), rng.random(adam.v.shape)
    adam.t[:] = rng.integers(1, 5, size=adam.t.shape)
    objective = losses.objective_batch

    def no_gradient_for_head_5(*args):
        batch = objective(*args)
        batch.grads["deltas"][:n][label[0] == 5] = 0.0
        return batch

    monkeypatch.setattr(losses, "objective_batch", no_gradient_for_head_5)
    state = [a.copy() for a in (nets["deltas"].params, adam.m, adam.v)]
    t = adam.t.copy()
    harness._step(cfg.objective, nets, adams, dictionary, feats, targets, 1e-3)
    stepped = np.zeros(t.shape, dtype=bool)
    stepped[0, 1] = stepped[1, 6] = True
    for old, new in zip(state, (nets["deltas"].params, adam.m, adam.v)):
        kept = np.all(old.view(np.int64) == new.view(np.int64), axis=-1)
        assert np.array_equal(kept, ~stepped)
    assert np.array_equal(adam.t, t + stepped)


def test_adam_steps_only_the_entries_the_mask_selects():
    # entry 1 was stepped once; a later step that leaves it out must not
    # move it on its remaining momentum
    net = models.stack([models.init_pose_network([3, 2], seed=s) for s in range(2)])
    adam = harness._Adam(net)
    adam.step(net.params, np.ones_like(net.params), 0.1)
    before = net.layers[0].weight.copy(), net.layers[0].bias.copy()
    sel = np.nonzero([True, False])
    rows = net.params[sel]
    adam.step(rows, np.ones_like(rows), 0.1, sel)
    net.params[sel] = rows
    assert adam.t.tolist() == [2, 1]
    for param, old in zip((net.layers[0].weight, net.layers[0].bias), before):
        assert np.array_equal(param[1], old[1])
        assert not np.any(param[0] == old[0])


def _textbook_adam_step(theta, m, v, t, grad, lr):
    """Kingma & Ba's Algorithm 1, bias-corrected moments and all, on rows
    (n, P) with their own step counts t (n,)."""
    b1, b2 = harness.ADAM_BETA1, harness.ADAM_BETA2
    m[:] = b1 * m + (1.0 - b1) * grad
    v[:] = b2 * v + (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1 ** t)[:, None]
    v_hat = v / (1.0 - b2 ** t)[:, None]
    theta -= lr * m_hat / (np.sqrt(v_hat) + harness.ADAM_EPS)


@pytest.mark.parametrize("masked", [False, True])
def test_adam_tracks_the_textbook_algorithm(masked):
    # 2,000 steps of the efficient form against Algorithm 1, with gradient
    # scales from below eps (where eps_t matters) to 1e3, the learning
    # rate decaying as across epochs, and with `masked` a random subset of
    # the entries stepping each time, as per-bin heads do
    net = models.stack([models.init_pose_network([6, 5, 3], seed=s) for s in range(4)])
    adam = harness._Adam(net)
    start = net.params.copy()
    theta, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
    t = np.zeros(len(start), dtype=int)
    scales = np.array([1e-10, 1e-6, 1.0, 1e3])[:, None]
    g = np.random.default_rng(7)
    for step in range(2000):
        lr = 1e-3 * 0.1 ** (step // 500)
        grad = g.standard_normal(start.shape) * scales
        mask = g.random(len(start)) < 0.5 if masked else np.ones(len(start), dtype=bool)
        t[mask] += 1
        rows = (theta[mask], m[mask], v[mask])
        _textbook_adam_step(*rows, t[mask], grad[mask], lr)
        theta[mask], m[mask], v[mask] = rows
        if masked:
            sel = np.nonzero(mask)
            params = net.params[sel]
            adam.step(params, grad[sel], lr, sel)
            net.params[sel] = params
        else:
            adam.step(net.params, grad.copy(), lr)
    assert adam.t.tolist() == t.tolist()
    moved = np.abs(theta - start).max(axis=1)
    assert np.all(moved > 0.0)
    rel = np.abs(net.params - theta).max(axis=1) / moved
    assert np.all(rel <= 1e-12), rel


@pytest.mark.parametrize("name, value", [
    ("ADAM_BETA1", 0.5), ("ADAM_BETA2", 0.9), ("ADAM_EPS", 1e-3),
])
def test_adam_reads_each_constant_as_it_steps(monkeypatch, name, value):
    # an _Adam built before the constant changes steps with the new value
    net = models.stack([models.init_pose_network([6, 5, 3], seed=s) for s in range(3)])
    adam = harness._Adam(net)
    start = net.params.copy()
    monkeypatch.setattr(harness, name, value)
    theta, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
    t = np.zeros(len(start), dtype=int)
    g = np.random.default_rng(11)
    for _ in range(20):
        grad = g.standard_normal(start.shape) * 1e-3
        t += 1
        _textbook_adam_step(theta, m, v, t, grad, 1e-2)
        adam.step(net.params, grad.copy(), 1e-2)
    rel = np.abs(net.params - theta).max(axis=1) / np.abs(theta - start).max(axis=1)
    assert np.all(rel <= 1e-12), rel
    monkeypatch.undo()
    default = models.stack([models.init_pose_network([6, 5, 3], seed=s) for s in range(3)])
    default_adam = harness._Adam(default)
    g = np.random.default_rng(11)
    for _ in range(20):
        default_adam.step(default.params, g.standard_normal(start.shape) * 1e-3, 1e-2)
    assert not np.allclose(default.params, net.params, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("family", ["R_G", "M_Gp"])
def test_trained_networks_are_views_of_the_stacked_buffers(monkeypatch, family):
    # the role stacks train returns, and the per-category and per-head
    # views that checkpoints write, read the stacked buffers Adam stepped,
    # never a stale copy
    buffers = []
    stack = models.stack

    def recording_stack(nets):
        net = stack(nets)
        buffers.append(net.params)
        return net

    monkeypatch.setattr(models, "stack", recording_stack)
    cfg = tiny_config(family)
    dataset = harness.generate_synthetic(cfg, 0)
    nets, _, _ = harness.train(cfg, dataset, seed=0)
    stacked = dict(zip(nets, buffers[-len(nets):]))  # train stacks the roles last
    for role, net in nets.items():
        buf = stacked[role]
        assert net.params is buf, role
        assert buf.shape[0] == len(dataset.categories)
        assert all(np.shares_memory(a, buf) for l in net.layers for a in (l.weight, l.bias)), role
    for stem, net in harness._checkpoint_networks(nets, dataset.categories):
        cat, name = stem.split(".")
        c = dataset.categories.index(cat)
        buf = stacked[name if name in nets else "deltas"]
        views = [a for l in net.layers for a in (l.weight, l.bias)]
        assert all(np.shares_memory(a, buf) for a in views), stem
        row = buf[c] if name in nets else buf[c, int(name.removeprefix("delta_head_"))]
        assert np.array_equal(np.concatenate([a.ravel() for a in views]), row), stem


def test_train_log_counts_non_smooth_samples_per_epoch():
    cfg = tiny_config("M_G")
    _, _, log = harness.train(cfg, harness.generate_synthetic(cfg, 0), seed=0)
    assert len(log.epoch_non_smooth) == len(log.lines)
    for line, count in zip(log.lines, log.epoch_non_smooth):
        assert line.endswith(f" non_smooth {count}")
        assert count >= 0


def test_shared_dictionary_is_fit_with_the_dictionary_seed(monkeypatch):
    cfg = tiny_config()
    dataset = harness.generate_synthetic(cfg)
    pooled = harness.pooled_train_targets(cfg, dataset)
    default = harness.fit_shared_dictionary(cfg, dataset)
    np.testing.assert_array_equal(
        default.keys, dct.fit_kmeans(pooled, cfg.dictionary_size, 0).keys)
    monkeypatch.setattr(harness, "DICTIONARY_SEED", 5)
    moved = harness.fit_shared_dictionary(cfg, dataset)
    np.testing.assert_array_equal(
        moved.keys, dct.fit_kmeans(pooled, cfg.dictionary_size, 5).keys)
    assert not np.array_equal(moved.keys, default.keys)


@pytest.mark.parametrize("family", ["R_G", "R_E", "C", "M_S", "M_X"])
def test_training_rows_carry_only_the_targets_the_family_reads(family):
    cfg = tiny_config(family)
    dataset = harness.generate_synthetic(cfg)
    dictionary = harness.fit_shared_dictionary(cfg, dataset)
    soft = family in losses.SOFT_TARGET_FAMILIES
    gamma = losses.resolve_gamma(cfg.objective, dictionary) if soft else None
    _, targets = harness._training_rows(cfg.objective, dictionary, dataset, gamma)
    assert (targets.label is None) == (family in losses.DIRECT_FAMILIES)
    assert (targets.soft is None) == (not soft)
    assert targets.y.shape[0] == targets.ref.shape[0] == 2 * 60


def test_training_uses_augmented_pool():
    data = harness.DataConfig(
        categories=1, train_samples=40, val_samples=8, test_samples=8,
        feature_dim=16, noise=0.0, augmentation="jittered",
    )
    cfg = tiny_config("C", data=data)
    ds = harness.generate_synthetic(cfg, 0)
    nets, _, log = harness.train(cfg, ds, seed=0)
    # 40 clean samples at 4 clean per step: ten steps per epoch
    assert len(log.step_losses[0]) == 10
    plain = tiny_config("C", data=dataclasses.replace(data, augmentation="none"))
    _, _, log_plain = harness.train(plain, harness.generate_synthetic(plain, 0), seed=0)
    assert len(log_plain.step_losses[0]) == 5


def test_shared_seed_gives_identical_dataset_across_objectives():
    a = harness.generate_synthetic(tiny_config("R_G"), 4)
    b = harness.generate_synthetic(tiny_config("R_E"), 4)
    assert np.array_equal(a.test.targets, b.test.targets)
    assert np.array_equal(a.test.features, b.test.features)


# ---------------------------------------------------------------------------
# decoding


def _fixed_decoder(logits, deltas, fdim=4):
    """Role stacks of one category (G = 1) whose networks ignore the
    features: the given logits, and the given delta of each key (K, 3) or
    shared delta (3,)."""
    def fixed(out):  # a linear layer of zero weights outputs its bias
        out = np.asarray(out, dtype=float)
        layer = models.Layer(np.zeros(out.shape + (fdim,)), out, "linear")
        return models.stack([models.MLP([layer])])

    return {"logits": fixed(logits), "deltas" if np.ndim(deltas) == 2 else "delta": fixed(deltas)}


def _keys(seed, k=8):
    g = np.random.default_rng(seed)
    keys = np.array([random_axis_angle(g) for _ in range(k)])
    return dct.PoseDictionary(keys, dct.AXIS_ANGLE)


def test_predict_rotation_one_hot():
    d = _keys(10)
    logits = np.zeros(8)
    logits[3] = 1.0
    r = harness.predict_rotation(
        losses.ObjectiveSpec("M_G"), _fixed_decoder(logits, np.zeros(3)), d, np.ones((1, 1, 4))
    )
    np.testing.assert_allclose(r[0, 0], so3.rodrigues(d.keys[3]), atol=1e-15)


def test_predict_rotation_tie_breaks_to_first():
    d = _keys(11)
    decoder = _fixed_decoder(np.full(8, 0.5), np.zeros((8, 3)))
    r = harness.predict_rotation(losses.ObjectiveSpec("M_Gp"), decoder, d, np.ones((1, 1, 4)))
    np.testing.assert_allclose(r[0, 0], so3.rodrigues(d.keys[0]), atol=1e-15)


def test_predict_rotation_matches_argmax_compose_oracle():
    g = np.random.default_rng(12)
    d = _keys(12)
    for _ in range(100):
        logits = g.normal(size=8)
        per_bin = g.uniform(-0.2, 0.2, size=(8, 3))
        got = harness.predict_rotation(
            losses.ObjectiveSpec("M_Gp"), _fixed_decoder(logits, per_bin), d,
            g.normal(size=(1, 1, 4))
        )
        lbl = int(np.argmax(logits))
        want = so3.rodrigues(so3.clip_axis_angle_norm(d.keys[lbl] + per_bin[lbl]))
        np.testing.assert_allclose(got[0, 0], want, atol=1e-15)


def test_predict_rotation_invariant_to_monotone_logit_transform():
    g = np.random.default_rng(13)
    d = _keys(13)
    spec = losses.ObjectiveSpec("M_G")
    logits = g.uniform(0.05, 1.0, size=8)
    delta = g.uniform(-0.1, 0.1, size=3)
    base = harness.predict_rotation(spec, _fixed_decoder(logits, delta), d, np.ones((1, 1, 4)))
    for transform in (np.sqrt, np.square, lambda x: np.exp(3.0 * x)):
        decoder = _fixed_decoder(transform(logits), delta)
        r = harness.predict_rotation(spec, decoder, d, np.ones((1, 1, 4)))
        np.testing.assert_array_equal(r, base)


def _predict_one_category(spec, nets, dictionary, x):
    """predict_rotation as it ran per category before the role stacks: one
    category's networks, features (n, in), rotations (n, 3, 3)."""
    if spec.family in losses.DIRECT_FAMILIES:
        y = models.forward(nets["pose"], x)
        if spec.representation == dct.QUATERNION and np.any(np.linalg.norm(y, axis=-1) < 1e-12):
            raise models.ZeroSum("quaternion head collapsed to zero")
        return dct.pose_matrices(y, spec.representation)
    label = np.argmax(models.forward(nets["logits"], x), axis=-1)
    if spec.family == "C":
        return dct.pose_matrices(dictionary.keys[label], dictionary.representation)
    if spec.per_bin:
        delta = models.forward(models.on_buffer(nets["deltas"].params[label], nets["deltas"]),
                               x[:, None])[:, 0]
    else:
        delta = models.forward(nets["delta"], x)
    return models.compose_rotation(spec.combination, dictionary.keys[label], delta)


# every family/representation pair: the tangent-space families are axis-angle only
DECODE_SPECS = [losses.ObjectiveSpec(f, r) for f in losses.FAMILIES for r in dct.REPRESENTATIONS
                if not (f in losses.RIEMANNIAN_FAMILIES and r == dct.QUATERNION)]


@pytest.mark.parametrize("block", [1, 7, harness._DECODE_BLOCK])
@pytest.mark.parametrize("spec", DECODE_SPECS, ids=lambda s: f"{s.family}-{s.representation}")
def test_stacked_decode_equals_the_per_category_calls(monkeypatch, spec, block):
    # three categories with their own networks, ten rows each: blocks of 1
    # and 7 flat rows split categories.  cat02's top logits tie on keys 1,
    # 3 and 6, and cat03's logits all tie, so the tie-break is checked too
    monkeypatch.setattr(harness, "_DECODE_BLOCK", block)
    cfg = dataclasses.replace(tiny_config(spec.family), objective=spec)
    g = np.random.default_rng(21)
    per_cat = [harness.build_category_model(cfg, 7 + 1000 * c) for c in range(3)]
    nets = {role: models.stack([m[role] for m in per_cat]) for role in per_cat[0]}
    if "logits" in nets:
        last = nets["logits"].layers[-1]
        last.weight[1, [3, 6]], last.bias[1, [3, 6]] = last.weight[1, 1], last.bias[1, 1]
        last.bias[1, 1] = last.bias[1, 3] = last.bias[1, 6] = 50.0
        last.weight[2], last.bias[2] = 0.0, 0.0
    keys = g.normal(size=(cfg.dictionary_size, spec.pose_dim))
    if spec.representation == dct.AXIS_ANGLE:
        keys = so3.clip_axis_angle_norm(keys)
    d = dct.PoseDictionary(keys, spec.representation)
    x = g.normal(size=(3, 10, cfg.data.feature_dim))
    got = harness.predict_rotation(spec, nets, d, x)
    want = np.stack([
        _predict_one_category(spec, {role: models.on_buffer(net.params[c], net)
                                     for role, net in nets.items()}, d, x[c])
        for c in range(3)
    ])
    assert got.shape == (3, 10, 3, 3)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# end-to-end runs


def test_run_experiment_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = tiny_config("M_G")
    result = harness.run_experiment(cfg, out_dir=str(out))
    for artifact in (
        "config.json", "report.csv", "report.json", "val_report.csv",
        "records.txt", "dictionary.txt", "train_log.txt",
    ):
        assert (out / artifact).exists()
    echoed = harness.config_from_json((out / "config.json").read_text())
    assert echoed == cfg
    assert set(result.report.metrics) == {"MedErr", "Acc_pi6"}


def test_run_experiment_csv_byte_identical(tmp_path):
    cfg = tiny_config("M_G")
    harness.run_experiment(cfg, out_dir=str(tmp_path / "a"))
    harness.run_experiment(cfg, out_dir=str(tmp_path / "b"))
    for name in ("report.csv", "report.json", "records.txt", "train_log.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_report_recomputable_from_records_dump(tmp_path):
    # the seeds and families cover runs whose MedErr and Acc_pi6 moved when
    # the dump's quaternions were read back into slightly different matrices
    for family in ("R_G", "C", "M_G"):
        for seed in range(12):
            out = tmp_path / f"{family}_{seed}"
            result = harness.run_experiment(tiny_config(family, seed=seed), out_dir=str(out))
            dets, gts = metrics.read_records(out / "records.txt")
            pairs = metrics.Matching(dets, gts).pairs
            for metric, fn in (("MedErr", metrics.med_err), ("Acc_pi6", metrics.acc_pi6)):
                per, mean = fn(pairs)
                assert mean == result.report.mean[metric], (family, seed, metric)
                assert per == result.report.values[metric], (family, seed, metric)


def test_per_bin_checkpoint_has_one_head_per_key(tmp_path):
    out = tmp_path / "run"
    cfg = tiny_config("M_Gp")
    result = harness.run_experiment(cfg, out_dir=str(out))
    heads = sorted(
        f for f in os.listdir(out / "checkpoint")
        if f.startswith("cat01.delta_head_")
    )
    assert len(heads) == cfg.dictionary_size
    assert len(os.listdir(out / "checkpoint")) == cfg.data.categories * (1 + cfg.dictionary_size)
    stacked = result.models["deltas"]
    for k, name in enumerate(heads):
        assert name == f"cat01.delta_head_{k:03d}.json"
        net = models.load_mlp(out / "checkpoint" / name)
        assert net.out_dim == 3
        for layer, s in zip(net.layers, stacked.layers):
            assert np.array_equal(layer.weight, s.weight[0, k])
            assert np.array_equal(layer.bias, s.bias[0, k])


def test_classification_run_respects_discretization_floor():
    cfg = tiny_config(
        "C",
        dictionary_size=8,
        data=harness.DataConfig(
            categories=1, train_samples=200, val_samples=20, test_samples=60,
            feature_dim=16, noise=0.0,
        ),
        optimizer=harness.OptimizerConfig(learning_rate=3e-3, epochs=3),
    )
    result = harness.run_experiment(cfg)
    floor = harness.discretization_floor(
        harness.generate_synthetic(cfg, cfg.seed), result.dictionary
    )
    assert result.report.mean["MedErr"] >= floor - 0.1


def test_quaternion_family_runs_end_to_end():
    cfg = tiny_config("M_G")
    cfg = dataclasses.replace(
        cfg, objective=dataclasses.replace(cfg.objective, representation=dct.QUATERNION)
    )
    result = harness.run_experiment(cfg)
    assert np.isfinite(result.report.mean["MedErr"])


def test_run_trials_mean_and_std(tmp_path):
    cfg = tiny_config("C")
    summary = harness.run_trials(cfg, 2, out_dir=str(tmp_path))
    assert summary.seeds == (0, 1)
    a = harness.run_experiment(cfg, seed=0).report.mean["MedErr"]
    b = harness.run_experiment(cfg, seed=1).report.mean["MedErr"]
    assert summary.metric_means["MedErr"] == (a + b) / 2
    lines = (tmp_path / "trials.csv").read_text().strip().split("\n")
    assert lines[0] == "metric,mean,std"
    assert len(lines) == 3
    assert (tmp_path / "trial_0" / "report.csv").exists()


@pytest.mark.parametrize("trials", [0, -1, 1.5])
def test_run_trials_needs_a_positive_count(trials):
    with pytest.raises(ValueError, match="^trials must be an integer >= 1"):
        harness.run_trials(tiny_config("C"), trials)


# ---------------------------------------------------------------------------
# ablations


def ablation_base():
    return tiny_config(
        "M_G",
        data=harness.DataConfig(
            categories=2, train_samples=210, val_samples=16, test_samples=16,
            feature_dim=16, noise=0.01,
        ),
        optimizer=harness.OptimizerConfig(learning_rate=1e-3, epochs=1),
    )


def test_ablation_grid_cardinality_and_selection(tmp_path):
    base = ablation_base()
    cells = harness.ablation_cells(base)
    sweeps = [c[0] for c in cells]
    assert sweeps.count("representation") == 2
    assert sweeps.count("dictionary_size") == 4
    assert sweeps.count("alpha") == 3
    assert sweeps.count("augmentation") == 3

    result = harness.ablation_suite(base, out_dir=str(tmp_path))
    assert result.best_alpha in harness.ABLATION_ALPHAS
    table = (tmp_path / "ablation.csv").read_text().strip().split("\n")
    assert table[0] == "sweep,value,MedErr,Acc_pi6,ValMedErr,selected"
    assert len(table) == 1 + len(cells)
    assert sum(row.endswith(",1") for row in table[1:]) == 1


def test_ablation_suite_trains_each_distinct_config_once(tmp_path, monkeypatch):
    """At K = 100 the representation, dictionary-size, alpha and
    augmentation sweeps each hold the base config: one run serves all four,
    and each of their directories holds the same bytes."""
    base = dataclasses.replace(ablation_base(), dictionary_size=100)
    calls, run = [], harness.run_experiment
    monkeypatch.setattr(harness, "run_experiment",
                        lambda cfg, **kw: calls.append(cfg) or run(cfg, **kw))
    result = harness.ablation_suite(base, out_dir=str(tmp_path))
    assert len(result.cells) == 12 and len(calls) == 9
    assert len({harness.config_to_json(c) for c in calls}) == 9
    repeats = [c for c in result.cells if c.config == base]
    assert [(c.sweep, c.value) for c in repeats] == [
        ("representation", dct.AXIS_ANGLE), ("dictionary_size", "100"), ("alpha", "1.0"),
        ("augmentation", "none"),
    ]

    def tree(path):
        return {p.relative_to(path): p.read_bytes() for p in pathlib.Path(path).rglob("*")
                if p.is_file()}

    first = tree(repeats[0].result.out_dir)
    assert len(first) > 8
    for cell in repeats[1:]:
        assert cell.result.out_dir == str(tmp_path / f"{cell.sweep}_{cell.value}")
        assert tree(cell.result.out_dir) == first
        assert cell.result.report is repeats[0].result.report


def test_ablation_cell_reproducible_from_echoed_config(tmp_path):
    base = ablation_base()
    result = harness.ablation_suite(base, out_dir=str(tmp_path))
    cell = result.cells[0]
    echoed = harness.load_config(
        os.path.join(cell.result.out_dir, "config.json")
    )
    rerun = harness.run_experiment(echoed)
    assert rerun.report.mean["MedErr"] == cell.result.report.mean["MedErr"]


def test_riemannian_family_skips_quaternion_representation_cell():
    base = tiny_config("M_LE")
    sweeps = [c for c in harness.ablation_cells(base) if c[0] == "representation"]
    assert [c[1] for c in sweeps] == [dct.AXIS_ANGLE]
