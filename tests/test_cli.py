"""CLI surface: every subcommand runs, prints parseable output, and the
gradcheck command's exit code reflects failures."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from orientgeo import cli, gradcheck, harness, jitter, losses, metrics
from orientgeo import dictionary as dct


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
    matching = metrics.Matching(dets, gts)
    assert float(lines["arp"]) == matching.arp()
    assert float(lines["avp"]) == matching.avp(8)


def test_eval_rejects_unknown_metric(tmp_path, capsys):
    path = tmp_path / "records.txt"
    path.write_text("")
    assert cli.main(["eval", "--records", str(path), "--metric", "iou"]) == 2


GOOD_LINE = "car gt 0.0 0.0 10.0 10.0 1.0 1.0 0.0 0.0 0.0\n"


@pytest.mark.parametrize("metric", [",", "", " , "])
def test_eval_rejects_a_list_naming_no_metric(tmp_path, capsys, metric):
    path = tmp_path / "records.txt"
    path.write_text(GOOD_LINE)
    assert cli.main(["eval", "--records", str(path), "--metric", metric]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"unknown metric {metric!r}; choose from med,acc,arp,avp\n"


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
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["R_G/axis_angle", "ok"],
                                                    ["R_G/quaternion", "ok"]]


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
    grid = jitter.read_manifest(manifest)
    assert len(grid) == 3
    assert not grid.flipped.any()


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


@pytest.mark.parametrize("contents", BAD_JSON_FILES + ['{"seed": 1, "data": null}'])
def test_run_rejects_unreadable_config(tmp_path, capsys, contents):
    path = _unreadable(tmp_path, contents)
    _exits_two_naming(path, ["run", "--config", str(path), "--out", str(tmp_path / "o")], capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("contents", BAD_JSON_FILES + ['{"seed": 1, "data": null}'])
def test_ablate_rejects_unreadable_config(tmp_path, capsys, contents):
    path = _unreadable(tmp_path, contents)
    _exits_two_naming(path, ["ablate", "--config", str(path), "--out", str(tmp_path / "o")], capsys)
    assert not (tmp_path / "o").exists()


# a misspelt key, a flip that is not a JSON boolean, offsets that are not a
# list of numbers, and Euler angles that are not 3 numbers
BAD_SPECS = [
    '{"euler_deg": [1.0, 2.0]}', '{"fllip": false, "d_ct": [0]}', '{"flip": "false"}',
    '{"d_ct": "12"}', '{"d_az": [0, true]}', '{"euler_deg": [5, 88, "2"]}',
    # integers too large for a float
    pytest.param('{"d_az": [1%s]}' % ("0" * 400), id="d_az-1e400"),
    pytest.param('{"euler_deg": [5, 88, 1%s]}' % ("0" * 400), id="euler_deg-1e400"),
]


@pytest.mark.parametrize("contents", BAD_JSON_FILES + BAD_SPECS)
def test_jitter_rejects_unreadable_spec(tmp_path, capsys, contents):
    path = _unreadable(tmp_path, contents)
    manifest = tmp_path / "manifest.txt"
    _exits_two_naming(path, ["jitter", "--manifest", str(manifest), "--spec", str(path)], capsys)
    assert not manifest.exists()


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("with_config", [False, True])
@pytest.mark.parametrize("value", ["abc", "-1"])
def test_bad_seed_variable_exits_two_naming_it(
    tiny_config_path, tmp_path, capsys, monkeypatch, command, with_config, value
):
    monkeypatch.setenv(harness.SEED_ENV_VAR, value)
    argv = [command, "--out", str(tmp_path / "o")]
    if with_config:
        argv += ["--config", str(tiny_config_path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{harness.SEED_ENV_VAR} must be an integer >= 0, got {value!r}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_negative_config_seed_exits_two(tiny_config_path, tmp_path, capsys, command):
    doc = json.loads(tiny_config_path.read_text())
    doc["seed"] = -1
    tiny_config_path.write_text(json.dumps(doc))
    argv = [command, "--config", str(tiny_config_path), "--out", str(tmp_path / "o")]
    _exits_two_naming(tiny_config_path, argv, capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_config_with_an_unknown_key_exits_two(tiny_config_path, tmp_path, capsys, command):
    doc = json.loads(tiny_config_path.read_text())
    doc["sede"] = 5  # a misspelled seed must not run with the default seed
    tiny_config_path.write_text(json.dumps(doc))
    argv = [command, "--config", str(tiny_config_path), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"cannot read {tiny_config_path}: unknown config keys: sede\n")
    assert not (tmp_path / "o").exists()



def _edit_config(path, section, name, value):
    doc = json.loads(path.read_text())
    (doc if section is None else doc[section])[name] = value
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("section, name, value", [
    ("optimizer", "epochs", 1.5), ("data", "categories", 1.5), ("data", "train_samples", 40.5),
    (None, "dictionary_size", 4.0), (None, "hidden", [8.7]),
])
def test_config_with_a_non_integer_count_exits_two(tiny_config_path, tmp_path, capsys,
                                                    section, name, value):
    _edit_config(tiny_config_path, section, name, value)
    argv = ["run", "--config", str(tiny_config_path), "--out", str(tmp_path / "o")]
    _exits_two_naming(tiny_config_path, argv, capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, name, value", [
    ("data", "noise", True), (None, "dictionary_size", True), ("optimizer", "epochs", True),
    ("optimizer", "decay", False), ("objective", "alpha", True), (None, "hidden", [16, True]),
])
def test_config_with_a_json_boolean_number_exits_two(tiny_config_path, tmp_path, capsys,
                                                     section, name, value):
    _edit_config(tiny_config_path, section, name, value)
    argv = ["run", "--config", str(tiny_config_path), "--out", str(tmp_path / "o")]
    _exits_two_naming(tiny_config_path, argv, capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, name", [("data", "noise"), ("optimizer", "learning_rate")])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_with_a_non_finite_float_exits_two(tiny_config_path, tmp_path, capsys,
                                                  section, name, value):
    _edit_config(tiny_config_path, section, name, value)  # written as NaN / Infinity
    argv = ["run", "--config", str(tiny_config_path), "--out", str(tmp_path / "o")]
    _exits_two_naming(tiny_config_path, argv, capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, name, value", [
    ("data", "noise", "0.1"), ("optimizer", "learning_rate", "1e-3"),
    ("data", "mode_spread", None), ("objective", "alpha", "1"),
])
def test_config_float_that_is_not_a_number_exits_two(tiny_config_path, tmp_path, capsys,
                                                     section, name, value):
    _edit_config(tiny_config_path, section, name, value)
    argv = ["run", "--config", str(tiny_config_path), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot read {tiny_config_path}: ") and name in captured.err
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, name, value", [
    (None, "trials", 3), ("objective", "combination", "additive"),
    (None, "dictionary_seed", 0), ("optimizer", "beta1", 0.9), ("optimizer", "beta2", 0.999),
    ("optimizer", "eps", 1e-8),
])
def test_config_with_a_removed_option_exits_two(tiny_config_path, tmp_path, capsys,
                                                 section, name, value):
    _edit_config(tiny_config_path, section, name, value)
    argv = ["run", "--config", str(tiny_config_path), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {tiny_config_path}: ") and name in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _script(name):
    """The module of scripts/<name>.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SCRIPTS) if f.endswith(".py")))
def test_every_script_prints_its_help(name):
    # a script whose imports or argparse set-up break fails here
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, name), "--help"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ")


def test_bench_times_each_training_step_part_at_a_tiny_config():
    # scripts/bench.py wraps harness internals (_step, _adam_update and the
    # role state's gather and scatter), which no other test runs it against
    bench = _script("bench")
    regress = bench.workloads._training_config("regress", 0, tiny=True)
    step = bench._step_timings(regress, 1)
    assert all(step[k] > 0.0 for k in ("forward_cached_s", "objective_batch_s",
                                       "geodesic_kernel_s", "backward_s", "adam_step_s"))
    loop = bench._loop_overhead(regress, 1)
    assert loop["steps"] > 0 and 0.0 < loop["step_s"] < loop["train_s"]
    # M_Gp gathers the heads its rows read; M_Pp steps every head in place
    gathered = bench.workloads._training_config("bindelta_perbin", 0, tiny=True)
    in_place = dataclasses.replace(gathered, objective=losses.ObjectiveSpec("M_Pp"))
    for cfg in (gathered, in_place):
        perbin = bench._perbin_step_timings(cfg)
        epochs = len(losses.simple_init_schedule(cfg.objective, cfg.optimizer.epochs))
        steps = cfg.data.train_samples // cfg.optimizer.batch_per_category
        assert perbin["steps"] == epochs * steps
        heads = cfg.data.categories * cfg.dictionary_size
        assert 1 <= perbin["heads_forwarded_max"] <= heads
        assert all(perbin[k] > 0.0 for k in ("logits_forward_s", "heads_forward_s",
                                             "objective_batch_s", "backward_s", "adam_step_s"))
        assert (perbin["gather_scatter_s"] > 0.0) == (cfg is gathered)
        assert (perbin["heads_forwarded_mean"] == heads) == (cfg is in_place)
        assert perbin["step_s"] > perbin["adam_step_s"] + perbin["gather_scatter_s"]


def test_bench_runs_every_other_section_once():
    # each section once at one repeat: the keys it reports, and every
    # library attribute it wraps back in place afterwards
    bench = _script("bench")
    patched = [(dct, "_sq_distances"), (dct, "_renormalize_centroids"),
               (losses, "_geodesic_axis_angle"), (gradcheck, "_draw"), (metrics, "iou"),
               (metrics, "write_records")]
    before = [getattr(owner, name) for owner, name in patched]
    regress = bench.workloads._training_config("regress", 0, tiny=True)
    targets = harness.pooled_train_targets(regress, harness.generate_synthetic(regress))
    counts = bench._counted_fit(targets, 4, 0, regress.objective.representation)
    assert counts["iterations"] >= 1 and counts["distance_rows"] >= len(targets)
    kernel = bench._kernel_timings(1)
    assert kernel.keys() == {"m_pp_block_keys", "m_pp_block_targets", "m_pp_block_kernel_s"}
    assert kernel["m_pp_block_keys"][1:] == [8, 3]
    stages = bench._stage_split(regress, 1)
    assert {"runs", "run_experiment_s", "generate_s", "dictionary_s", "train_s",
            "train.forward_cached_s", "train.objective_batch_s", "train.backward_s",
            "train.self_s", "eval_s", "rest_s", "shares", "calls"} == stages.keys()
    assert stages["calls"]["models.backward"] > 0
    jitter_times = bench._jitter_timings(1)
    assert jitter_times.keys() == {"jitter_sample_cuboid_s", "jitter_sample_sphere_s",
                                   "manifest_round_trip_s", "cells"}
    draws = bench._draw_timings(1, losses.ObjectiveSpec("M_G"))
    assert draws.keys() == {"draw_s", "candidates_drawn"} and draws["candidates_drawn"] > 0
    tools = bench._tools_timings(1)
    assert {"detections", "ground_truths", "read_records_s", "matching_s", "iou_calls_per_matching",
            "check_family", "check_family_total_s", "draw_total_s"} == tools.keys()
    assert tools["iou_calls_per_matching"] > 0
    assert len(tools["check_family"]) == len(gradcheck.default_specs())
    for entry in tools["check_family"].values():
        assert entry.keys() == {"check_family_s", "probe_rows_per_instance", "draw_s",
                                "candidates_drawn"}
    memory = bench._records_memory(categories=2, per_category=20)
    assert memory.keys() == {"detections", "ground_truths", "file_bytes", "generate_peak_bytes",
                             "write_objects_peak_bytes", "write_objects_peak_per_file_byte",
                             "write_tables_peak_bytes", "write_tables_peak_per_file_byte"}
    assert memory["ground_truths"] == 40 and memory["detections"] > 0
    assert 0 < memory["write_tables_peak_bytes"] < memory["generate_peak_bytes"]
    assert [getattr(owner, name) for owner, name in patched] == before


@pytest.mark.parametrize("repeats", ["0", "-2"])
def test_bench_refuses_a_repeat_count_below_one(monkeypatch, capsys, repeats):
    # no call would be timed: the best of none is inf, written as Infinity
    monkeypatch.setattr(sys, "argv", ["bench.py", "--repeats", repeats])
    with pytest.raises(SystemExit) as info:
        _script("bench").main()
    assert info.value.code == 2
    assert "must be a positive count" in capsys.readouterr().err


def _reproduce(monkeypatch, *args):
    """main()'s exit code from scripts/reproduce.py with args."""
    monkeypatch.setattr(sys, "argv", ["reproduce.py", *args])
    return _script("reproduce").main()


def test_reproduce_small_prints_the_three_scripts_tables(monkeypatch, capsys):
    # tests/golden_reproduce.txt is the --small output of the three scripts
    # reproduce.py replaced, one empty line between tables
    assert _reproduce(monkeypatch, "--small") == 0
    with open(os.path.join(os.path.dirname(__file__), "golden_reproduce.txt"),
              encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_reproduce_prints_only_the_tables_asked_for(monkeypatch, capsys, tmp_path):
    with open(os.path.join(os.path.dirname(__file__), "golden_reproduce.txt"),
              encoding="utf-8") as fh:
        regression, _, _ = fh.read().split("\n\n")
    assert _reproduce(monkeypatch, "regression", "--small", "--out", str(tmp_path)) == 0
    assert capsys.readouterr().out == regression + "\n"
    assert sorted(os.listdir(tmp_path)) == ["regression"]
    assert sorted(os.listdir(tmp_path / "regression")) == ["R_E", "R_G"]


@pytest.mark.parametrize("args, flag", [
    (["--seed", "-1"], "--seed"), (["--seed", "1.5"], "--seed"), (["--seed", "x"], "--seed"),
    (["tables"], "TABLE"),
])
def test_reproduce_refuses_a_bad_argument(monkeypatch, capsys, args, flag):
    with pytest.raises(SystemExit) as info:
        _reproduce(monkeypatch, *args)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}" in captured.err and "Traceback" not in captured.err
