"""CLI surface: every subcommand runs, prints parseable output, and the
gradcheck command's exit code reflects failures."""

import json

import pytest

from orientgeo import cli, gradcheck, harness, jitter, losses, metrics


@pytest.fixture()
def tiny_config_path(tmp_path):
    cfg = harness.ExperimentConfig(
        objective=losses.ObjectiveSpec("M_G"),
        dictionary_size=8,
        hidden=(16, 8),
        optimizer=harness.OptimizerConfig(learning_rate=1e-3, epochs=1),
        data=harness.DataConfig(
            categories=2, train_samples=40, val_samples=16, test_samples=16,
            feature_dim=16, noise=0.01,
        ),
    )
    path = tmp_path / "config.json"
    path.write_text(harness.config_to_json(cfg))
    return path


def test_run_command_writes_artifacts(tiny_config_path, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(tiny_config_path), "--out", str(out)])
    assert rc == 0
    assert (out / "report.csv").exists()
    printed = capsys.readouterr().out
    assert "MedErr" in printed and "Acc_pi6" in printed


def test_run_command_trials(tiny_config_path, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main([
        "run", "--config", str(tiny_config_path), "--out", str(out), "--trials", "2",
    ])
    assert rc == 0
    assert (out / "trials.csv").exists()
    assert "MedErr mean" in capsys.readouterr().out


def test_run_command_seed_env_override(tiny_config_path, tmp_path, monkeypatch):
    monkeypatch.setenv(harness.SEED_ENV_VAR, "99")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(tiny_config_path), "--out", str(out)]) == 0
    echoed = harness.config_from_json((out / "config.json").read_text())
    assert echoed.seed == 99


def test_eval_command_matches_library(tmp_path, capsys):
    cfg = harness.config_from_json(
        harness.config_to_json(harness.ExperimentConfig(
            objective=losses.ObjectiveSpec("C"),
            dictionary_size=8,
            hidden=(16, 8),
            optimizer=harness.OptimizerConfig(learning_rate=1e-3, epochs=1),
            data=harness.DataConfig(
                categories=1, train_samples=40, val_samples=8, test_samples=12,
                feature_dim=16, noise=0.0,
            ),
        ))
    )
    out = tmp_path / "run"
    result = harness.run_experiment(cfg, out_dir=str(out))
    rc = cli.main([
        "eval", "--records", str(out / "records.txt"),
        "--metric", "med,acc,arp,avp", "--bins", "8",
    ])
    assert rc == 0
    lines = dict(
        line.split(" ", 1) for line in capsys.readouterr().out.strip().split("\n")
    )
    assert float(lines["med"]) == result.report.mean["MedErr"]
    assert float(lines["acc"]) == result.report.mean["Acc_pi6"]
    dets, gts = metrics.read_records(out / "records.txt")
    assert float(lines["arp"]) == metrics.arp(dets, gts)
    assert float(lines["avp"]) == metrics.avp(dets, gts, 8)


def test_eval_rejects_unknown_metric(tmp_path, capsys):
    path = tmp_path / "records.txt"
    path.write_text("")
    assert cli.main(["eval", "--records", str(path), "--metric", "iou"]) == 2


GOOD_LINE = "car gt 0.0 0.0 10.0 10.0 1.0 1.0 0.0 0.0 0.0\n"


@pytest.mark.parametrize("bad_line", [
    "car gt 0.0 0.0 10.0 10.0 1.0 1.0 0.0 0.0\n",  # ten columns
    "car box 0.0 0.0 10.0 10.0 1.0 1.0 0.0 0.0 0.0\n",  # unknown tag
    "car det 5.0 0.0 1.0 10.0 0.5 1.0 0.0 0.0 0.0\n",  # x1 > x2
    "car det 0.0 0.0 10.0 10.0 0.5 2.0 0.0 0.0 0.0\n",  # quaternion norm 2
    "car det 0.0 0.0 10.0 10.0 0.5 nan 0.0 0.0 0.0\n",  # quaternion not finite
    "car det 0.0 0.0 10.0 10.0 nan 1.0 0.0 0.0 0.0\n",  # score not finite
    "car gt 0.0 0.0 inf 10.0 1.0 1.0 0.0 0.0 0.0\n",  # box not finite
])
def test_eval_rejects_bad_records_file(tmp_path, capsys, bad_line):
    path = tmp_path / "records.txt"
    path.write_text(GOOD_LINE + bad_line)
    assert cli.main(["eval", "--records", str(path), "--metric", "med,arp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot read {path}: ") and captured.err.count("\n") == 1


def test_eval_without_matches_exits_two(tmp_path, capsys):
    path = tmp_path / "records.txt"
    # the detection overlaps the ground truth with IoU 1/3 only
    path.write_text(GOOD_LINE + "car det 5.0 0.0 15.0 10.0 0.5 1.0 0.0 0.0 0.0\n")
    for metric in ("med", "acc", "arp,acc"):
        assert cli.main(["eval", "--records", str(path), "--metric", metric]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot evaluate {path}: no records matched\n"
    assert cli.main(["eval", "--records", str(path), "--metric", "arp,avp"]) == 0
    assert capsys.readouterr().out == "arp 0.0\navp 0.0\n"


def _rejected(argv, capsys, option):
    """argv exits with code 2, prints nothing on stdout and names the
    option and its bad value on stderr."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    value = argv[argv.index(option) + 1]
    assert f"argument {option}: must be a positive count, got {value}" in captured.err


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_eval_rejects_non_positive_bins(tmp_path, capsys, bins):
    path = tmp_path / "records.txt"
    path.write_text("")
    _rejected(["eval", "--records", str(path), "--metric", "avp", "--bins", bins], capsys, "--bins")


def test_gradcheck_rejects_zero_trials(capsys):
    _rejected(["gradcheck", "--family", "R_G", "--trials", "0"], capsys, "--trials")


def test_run_rejects_zero_trials(tiny_config_path, tmp_path, capsys):
    out = tmp_path / "out"
    _rejected(["run", "--config", str(tiny_config_path), "--out", str(out), "--trials", "0"],
              capsys, "--trials")
    assert not out.exists()


def test_gradcheck_single_family_exit_zero(capsys):
    rc = cli.main(["gradcheck", "--family", "R_G", "--trials", "3"])
    assert rc == 0
    assert "R_G/axis_angle ok" in capsys.readouterr().out


def test_gradcheck_unknown_family(capsys):
    assert cli.main(["gradcheck", "--family", "R_Q"]) == 2


def test_gradcheck_failure_exits_nonzero(monkeypatch, capsys):
    def fake_check(spec, instances=100, seed=0, k=8):
        return gradcheck.FamilyReport(
            family=spec.family, representation=spec.representation,
            instances=instances, max_rel_error=1.0, passed=False,
        )

    monkeypatch.setattr(gradcheck, "check_family", fake_check)
    rc = cli.main(["gradcheck", "--family", "R_G", "--trials", "2"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_jitter_command_manifest_roundtrip(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "d_az": [0.0], "d_el": [0.0], "d_ct": [-2.0, 0.0, 2.0],
        "flip": False, "euler_deg": [5.0, 88.0, 2.0],
    }))
    manifest = tmp_path / "manifest.txt"
    rc = cli.main([
        "jitter", "--manifest", str(manifest), "--spec", str(spec_path),
    ])
    assert rc == 0
    assert "wrote 3 jittered cells" in capsys.readouterr().out
    entries = jitter.read_manifest(manifest)
    assert len(entries) == 3
    assert all(not item.flipped for _, item in entries)


def test_jitter_command_sphere_default_grid(tmp_path):
    manifest = tmp_path / "manifest.txt"
    rc = cli.main(["jitter", "--manifest", str(manifest), "--shape", "sphere"])
    assert rc == 0
    assert len(jitter.read_manifest(manifest)) == 90


BAD_JSON_FILES = [None, "{not json", "[1, 2]"]  # None: the file does not exist


def _unreadable(tmp_path, contents):
    path = tmp_path / "input.json"
    if contents is not None:
        path.write_text(contents)
    return path


def _exits_two_naming(path, argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot read {path}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("contents", BAD_JSON_FILES + ['{"seed": 1}'])
def test_run_rejects_unreadable_config(tmp_path, capsys, contents):
    path = _unreadable(tmp_path, contents)
    _exits_two_naming(path, ["run", "--config", str(path), "--out", str(tmp_path / "o")], capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("contents", BAD_JSON_FILES + ['{"seed": 1}'])
def test_ablate_rejects_unreadable_config(tmp_path, capsys, contents):
    path = _unreadable(tmp_path, contents)
    _exits_two_naming(path, ["ablate", "--config", str(path), "--out", str(tmp_path / "o")], capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("contents", BAD_JSON_FILES + ['{"euler_deg": [1.0, 2.0]}'])
def test_jitter_rejects_unreadable_spec(tmp_path, capsys, contents):
    path = _unreadable(tmp_path, contents)
    manifest = tmp_path / "manifest.txt"
    _exits_two_naming(path, ["jitter", "--manifest", str(manifest), "--spec", str(path)], capsys)
    assert not manifest.exists()
