"""Smoke test for the benchmark itself: every workload at a tiny size prints
every metric BENCHMARK.json names, with its unit, in both modes; corrupted
outputs fail the correctness checks; a tree without sources is refused.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_appears_with_its_unit(workload, trace):
    done = _bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    printed = {}
    for line in done.stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] in wanted:
            printed[parts[0]] = parts[2]
    assert printed == wanted


def test_benchmark_names_only_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.NAMES)


def test_corrupted_report_fails_the_check(tmp_path):
    w = workloads.make("regress", 5, str(tmp_path), tiny=True)
    w.setup()
    first, second = str(tmp_path / "a"), str(tmp_path / "b")
    w.run(first)
    assert w.check(first).failed == 0
    w.run(second)
    with open(os.path.join(second, "report.csv"), "ab") as fh:
        fh.write(b"0")
    result = w.check(second)
    assert result.failed == 1
    assert any("report.csv" in p for p in result.problems)


def test_wrong_eval_output_fails_the_check(tmp_path):
    w = workloads.make("tools", 5, str(tmp_path), tiny=True)
    w.setup()
    out = str(tmp_path / "op")
    w.run(out)
    assert w.check(out).failed == 0
    name, value = w.expected_eval[0]
    w.expected_eval[0] = (name, value + 1e-3)
    result = w.check(out)
    assert result.failed == 1
    assert any(p.startswith("eval med") for p in result.problems)


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _bench(tmp_path, "regress", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
