"""Harness behavior: config serialization, synthetic-data contracts,
deterministic training, artifact layout, and the ablation sweeps."""

import dataclasses
import json
import os

import numpy as np
import pytest

from orientgeo import dictionary as dct
from orientgeo import harness, losses, metrics, models, so3

import record_golden_report
import record_golden_training


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
        trials=2,
    )
    assert harness.config_from_json(harness.config_to_json(cfg)) == cfg


def test_default_config_roundtrips():
    cfg = harness.ExperimentConfig()
    assert harness.config_from_json(harness.config_to_json(cfg)) == cfg


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


def test_seed_env_var_overrides_config(monkeypatch, tmp_path):
    cfg = tiny_config(seed=3)
    path = tmp_path / "config.json"
    path.write_text(harness.config_to_json(cfg))
    monkeypatch.setenv(harness.SEED_ENV_VAR, "41")
    assert harness.load_config(path).seed == 41
    monkeypatch.delenv(harness.SEED_ENV_VAR)
    assert harness.load_config(path).seed == 3


def test_respec_rebuilds_combination_rule():
    spec = losses.ObjectiveSpec("M_G")
    assert spec.combination == models.ADDITIVE
    requat = harness.respec(spec, representation=dct.QUATERNION)
    assert requat.combination == models.QUATERNION_RENORM


# ---------------------------------------------------------------------------
# synthetic data


def test_generate_is_deterministic():
    cfg = tiny_config()
    a = harness.generate_synthetic(cfg, 5)
    b = harness.generate_synthetic(cfg, 5)
    for name in a.categories:
        assert np.array_equal(a.train[name].features, b.train[name].features)
        assert np.array_equal(a.test[name].targets, b.test[name].targets)


def test_generate_targets_are_rotations_and_features_finite():
    ds = harness.generate_synthetic(tiny_config(), 0)
    for name in ds.categories:
        for split in (ds.train, ds.val, ds.test):
            assert np.all(np.isfinite(split[name].features))
            for m in split[name].targets[:10]:
                so3.Rotation(m)  # validates orthonormality


def test_splits_are_disjoint():
    ds = harness.generate_synthetic(tiny_config(), 0)
    for name in ds.categories:
        seen = {m.tobytes() for m in ds.train[name].targets}
        assert not seen & {m.tobytes() for m in ds.val[name].targets}
        assert not seen & {m.tobytes() for m in ds.test[name].targets}


def test_noise_zero_features_are_exact_map_of_targets():
    cfg = tiny_config(data=harness.DataConfig(
        categories=1, train_samples=30, val_samples=8, test_samples=8,
        feature_dim=16, noise=0.0,
    ))
    ds = harness.generate_synthetic(cfg, 0)
    name = ds.categories[0]
    w, b = ds.hidden_maps[name]
    split = ds.train[name]
    expected = split.targets.reshape(-1, 9) @ w.T + b
    assert np.array_equal(split.features, expected)


def test_two_tight_modes_give_bimodal_label_histogram():
    cfg = tiny_config(data=harness.DataConfig(
        categories=1, train_samples=300, val_samples=8, test_samples=8,
        feature_dim=16, noise=0.0, modes=2, mode_spread=0.05,
    ))
    ds = harness.generate_synthetic(cfg, 1)
    name = ds.categories[0]
    vectors = [harness.pose_vector(m, dct.AXIS_ANGLE) for m in ds.train[name].targets]
    # keys fit on unrelated uniform rotations, so the histogram reflects the
    # data distribution instead of the clustering chasing it
    rng = np.random.default_rng(0)
    uniform = [so3.log_map(so3.random_rotation(rng)).vector for _ in range(400)]
    dictionary = dct.fit_kmeans(uniform, 8, seed=0)
    counts = np.bincount(
        [dct.hard_label(v, dictionary) for v in vectors], minlength=8
    )
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
        split = ds.train[ds.categories[0]]
        if copies == 0:
            assert split.aug_features is None
        else:
            assert split.aug_features.shape[0] == copies * 40
            for m in split.aug_targets[:5]:
                so3.Rotation(m)


def test_augmented_poses_stay_near_originals():
    cfg = tiny_config(data=harness.DataConfig(
        categories=1, train_samples=40, val_samples=8, test_samples=8,
        feature_dim=16, noise=0.0, augmentation="jittered",
    ))
    ds = harness.generate_synthetic(cfg, 0)
    split = ds.train[ds.categories[0]]
    # offsets are at most |daz|+|del|+|dct| <= 6 degrees of combined motion
    for orig, jit in zip(split.targets, split.aug_targets):
        d = so3.geodesic_distance(so3.Rotation(orig), so3.Rotation(jit))
        assert np.degrees(d) <= 6.0 + 1e-6


# ---------------------------------------------------------------------------
# training


def test_train_is_deterministic():
    cfg = tiny_config("M_G")
    ds = harness.generate_synthetic(cfg, 0)
    nets_a, _, log_a = harness.train(cfg, ds, seed=0)
    nets_b, _, log_b = harness.train(cfg, ds, seed=0)
    assert log_a.lines == log_b.lines
    for name in ds.categories:
        for role in nets_a[name]:
            for la, lb in zip(nets_a[name][role].layers, nets_b[name][role].layers):
                assert np.array_equal(la.weight, lb.weight)
                assert np.array_equal(la.bias, lb.bias)


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
        cfg, objective=harness.respec(cfg.objective, representation=dct.QUATERNION)
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
        cfg, objective=harness.respec(cfg.objective, representation=dct.QUATERNION)
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
    nets_by_cat, _, log = harness.train(cfg, harness.generate_synthetic(cfg, 0), seed=0)
    assert list(log.lines) == golden["log"]
    assert list(nets_by_cat) == list(golden["weights"])
    for cat, nets in nets_by_cat.items():
        got = record_golden_training.network_weights(nets)
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
    split = ds.train["cat02"]
    train = dict(ds.train, cat02=harness.CategorySplit(split.features + 1e-3, split.targets))
    nets_b, _, _ = harness.train(cfg, dataclasses.replace(ds, train=train), seed=0)
    for role, net in nets_a["cat01"].items():
        for la, lb in zip(net.layers, nets_b["cat01"][role].layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)
    assert not np.array_equal(
        nets_a["cat02"]["logits"].layers[0].weight, nets_b["cat02"]["logits"].layers[0].weight
    )


def test_head_no_sample_selected_keeps_initial_weights(monkeypatch):
    cfg = tiny_config("M_Gp")
    build = harness.build_category_model

    def favour_key_zero(cfg, seed):
        nets = build(cfg, seed)
        nets["logits"].layers[-1].bias[0] = 1e3  # argmax is always key 0
        return nets

    monkeypatch.setattr(harness, "build_category_model", favour_key_zero)
    nets_by_cat, _, _ = harness.train(cfg, harness.generate_synthetic(cfg, 0), seed=0)
    for c, name in enumerate(("cat01", "cat02")):
        init = build(cfg, cfg.seed + 1000 * (c + 1))["deltas"]
        trained = nets_by_cat[name]["deltas"]
        for li, lt in zip(init.layers, trained.layers):
            assert not np.array_equal(li.weight[0], lt.weight[0])
            assert np.array_equal(li.weight[1:], lt.weight[1:])
            assert np.array_equal(li.bias[1:], lt.bias[1:])


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
    nets_by_cat, _, _ = harness.train(cfg, harness.generate_synthetic(cfg, 0), seed=0)
    for c, name in enumerate(("cat01", "cat02")):
        init = harness.build_category_model(cfg, cfg.seed + 1000 * (c + 1))
        for role, moved in (("deltas", False), ("logits", True)):
            same = [np.array_equal(a.weight, b.weight)
                    for a, b in zip(init[role].layers, nets_by_cat[name][role].layers)]
            assert same == [not moved] * len(same), role


def test_adam_steps_only_the_entries_the_mask_selects():
    # entry 1 was stepped once; a later step that leaves it out must not
    # move it on its remaining momentum
    net = models.stack([models.init_pose_network([3, 2], seed=s) for s in range(2)])
    adam = harness._Adam(net, harness.OptimizerConfig())
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


@pytest.mark.parametrize("family", ["R_G", "M_Gp"])
def test_trained_networks_are_views_of_the_stacked_buffers(monkeypatch, family):
    # the per-category networks train returns, and unstack views of them,
    # read the stacked buffers Adam stepped, never a stale copy
    buffers = []
    stack = models.stack

    def recording_stack(nets):
        net = stack(nets)
        buffers.append(net.params)
        return net

    monkeypatch.setattr(models, "stack", recording_stack)
    cfg = tiny_config(family)
    nets_by_cat, _, _ = harness.train(cfg, harness.generate_synthetic(cfg, 0), seed=0)
    for c, nets in enumerate(nets_by_cat.values()):
        stacked = dict(zip(nets, buffers[-len(nets):]))  # train stacks the roles last
        for role, net in nets.items():
            buf = stacked[role]
            views = [a for l in net.layers for a in (l.weight, l.bias)]
            if role == "deltas":
                views += [a for l in models.unstack(net, 1).layers for a in (l.weight, l.bias)]
            assert all(np.shares_memory(a, buf) for a in views), role
            assert buf.shape[0] == len(nets_by_cat)
            assert np.array_equal(models.flatten((l.weight, l.bias) for l in net.layers),
                                  buf[c])


def test_train_log_counts_non_smooth_samples_per_epoch():
    cfg = tiny_config("M_G")
    _, _, log = harness.train(cfg, harness.generate_synthetic(cfg, 0), seed=0)
    assert len(log.epoch_non_smooth) == len(log.lines)
    for line, count in zip(log.lines, log.epoch_non_smooth):
        assert line.endswith(f" non_smooth {count}")
        assert count >= 0


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
    for name in a.categories:
        assert np.array_equal(a.test[name].targets, b.test[name].targets)
        assert np.array_equal(a.test[name].features, b.test[name].features)


# ---------------------------------------------------------------------------
# decoding


def _fixed_decoder(logits, deltas, fdim=4):
    """Networks that ignore the features: the given logits, and the given
    delta of each key (K, 3) or shared delta (3,)."""
    logits = np.asarray(logits, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    role = "deltas" if deltas.ndim == 2 else "delta"
    return {
        "logits": models.MLP([models.Layer(np.zeros((len(logits), fdim)), logits, "linear")]),
        role: models.MLP([models.Layer(np.zeros(deltas.shape + (fdim,)), deltas, "linear")]),
    }


def _keys(seed, k=8):
    g = np.random.default_rng(seed)
    keys = np.array([so3.random_axis_angle(g).vector for _ in range(k)])
    return dct.PoseDictionary(keys, dct.AXIS_ANGLE)


def test_predict_rotation_one_hot():
    d = _keys(10)
    logits = np.zeros(8)
    logits[3] = 1.0
    r = harness.predict_rotation(
        losses.ObjectiveSpec("M_G"), _fixed_decoder(logits, np.zeros(3)), d, np.ones((1, 4))
    )
    np.testing.assert_allclose(r[0], so3.rodrigues(d.keys[3]), atol=1e-15)


def test_predict_rotation_tie_breaks_to_first():
    d = _keys(11)
    decoder = _fixed_decoder(np.full(8, 0.5), np.zeros((8, 3)))
    r = harness.predict_rotation(losses.ObjectiveSpec("M_Gp"), decoder, d, np.ones((1, 4)))
    np.testing.assert_allclose(r[0], so3.rodrigues(d.keys[0]), atol=1e-15)


def test_predict_rotation_matches_argmax_compose_oracle():
    g = np.random.default_rng(12)
    d = _keys(12)
    for _ in range(100):
        logits = g.normal(size=8)
        per_bin = g.uniform(-0.2, 0.2, size=(8, 3))
        got = harness.predict_rotation(
            losses.ObjectiveSpec("M_Gp"), _fixed_decoder(logits, per_bin), d, g.normal(size=(1, 4))
        )
        lbl = int(np.argmax(logits))
        want = so3.rodrigues(so3.clip_axis_angle_norm(d.keys[lbl] + per_bin[lbl]))
        np.testing.assert_allclose(got[0], want, atol=1e-15)


def test_predict_rotation_invariant_to_monotone_logit_transform():
    g = np.random.default_rng(13)
    d = _keys(13)
    spec = losses.ObjectiveSpec("M_G")
    logits = g.uniform(0.05, 1.0, size=8)
    delta = g.uniform(-0.1, 0.1, size=3)
    base = harness.predict_rotation(spec, _fixed_decoder(logits, delta), d, np.ones((1, 4)))
    for transform in (np.sqrt, np.square, lambda x: np.exp(3.0 * x)):
        decoder = _fixed_decoder(transform(logits), delta)
        r = harness.predict_rotation(spec, decoder, d, np.ones((1, 4)))
        np.testing.assert_array_equal(r[0], base[0])


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
            pairs = metrics.paired_records(dets, gts)
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
    stacked = result.models["cat01"]["deltas"]
    for k, name in enumerate(heads):
        assert name == f"cat01.delta_head_{k:03d}.json"
        net = models.load_mlp(out / "checkpoint" / name)
        assert net.out_dim == 3
        for layer, s in zip(net.layers, stacked.layers):
            assert np.array_equal(layer.weight, s.weight[k])
            assert np.array_equal(layer.bias, s.bias[k])


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
        cfg, objective=harness.respec(cfg.objective, representation=dct.QUATERNION)
    )
    result = harness.run_experiment(cfg)
    assert np.isfinite(result.report.mean["MedErr"])


def test_run_trials_mean_and_std(tmp_path):
    cfg = tiny_config("C", trials=2)
    summary = harness.run_trials(cfg, out_dir=str(tmp_path), trials=2)
    assert summary.seeds == (0, 1)
    a = harness.run_experiment(cfg, seed=0).report.mean["MedErr"]
    b = harness.run_experiment(cfg, seed=1).report.mean["MedErr"]
    assert summary.mean("MedErr") == (a + b) / 2
    lines = (tmp_path / "trials.csv").read_text().strip().split("\n")
    assert lines[0] == "metric,mean,std"
    assert len(lines) == 3
    assert (tmp_path / "trial_0" / "report.csv").exists()


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
