#!/usr/bin/env python3
"""Time the dictionary layer and the training step in-process and write a
BENCH_<n>.json file.

Dictionary: for three fit sizes, the pooled train targets of the
perfbench `regress` and `bindelta_soft` workload configs and of the
default ExperimentConfig, it times fit_kmeans and hard_labels of those
targets, best of --repeats, and counts the Lloyd iterations and the
distance rows (one point against every key) a fit computes.

Training step: at the shapes one `regress` step has (G categories x
batch_per_category rows on the stacked pose network), it times
forward_cached, objective_batch, backward and the Adam step, best of
STEP_REPEATS, and splits one `regress` run_experiment into its stages
with the perfbench layer tracer (inclusive times; the train self time is
the Adam steps plus the step glue around the traced calls).

Jitter: with the default spec and pose of `orient-geo jitter`, it times
jitter_sample on the cuboid and on the sphere, and one write_manifest plus
read_manifest round trip of the cuboid grid, best of JITTER_REPEATS.

Timings are wall clock of this process only (time.perf_counter), taken
without system-wide tracing, without cache control and without pinning.
On a shared virtual machine other tenants' load stretches them; the
dictionary section, which a training-step change leaves alone, shows
whether a run was slowed.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/bench.py --out BENCH_2.json
"""

import argparse
import dataclasses
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import layertrace  # noqa: E402  (perfbench/layertrace.py: the layer tracer)
import workloads  # noqa: E402  (perfbench/workloads.py: the workload configs)

from orientgeo import dictionary as dct  # noqa: E402
from orientgeo import cli, harness, jitter, losses, models  # noqa: E402

DATA_SEED = 202
STEP_REPEATS = 200  # a training-step part takes tens of microseconds
JITTER_REPEATS = 30  # a default grid takes a few milliseconds


def _configs():
    """name -> ExperimentConfig of each timed fit, at data seed DATA_SEED."""
    cfgs = {name: workloads._training_config(name, DATA_SEED, tiny=False)
            for name in ("regress", "bindelta_soft")}
    cfgs["default"] = dataclasses.replace(harness.ExperimentConfig(), seed=DATA_SEED)
    return cfgs


def _best_of(repeats, fn, *args, before=None):
    """Fastest of `repeats` timed calls fn(*args); before(), when given,
    runs untimed ahead of each call."""
    best = float("inf")
    for _ in range(repeats):
        if before is not None:
            before()
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _counted_fit(targets, k, seed, representation):
    """fit_kmeans with its distance rows and Lloyd iterations counted: one
    row per point whose distances a _sq_distances call takes, and one
    centroid renormalization per iteration."""
    counts = {"distance_rows": 0, "iterations": 0}
    sq_distances, renormalize = dct._sq_distances, dct._renormalize_centroids

    def counted_sq_distances(y, keys):
        out = sq_distances(y, keys)
        counts["distance_rows"] += out.shape[0]
        return out

    def counted_renormalize(centroids, rep):
        counts["iterations"] += 1
        return renormalize(centroids, rep)

    dct._sq_distances, dct._renormalize_centroids = counted_sq_distances, counted_renormalize
    try:
        dct.fit_kmeans(targets, k, seed, representation)
    finally:
        dct._sq_distances, dct._renormalize_centroids = sq_distances, renormalize
    return counts


def _step_timings(cfg, repeats):
    """Best-of-repeats time of each part of one training step at cfg's
    shapes: the first batch_per_category train rows of every category on
    the stacked pose network of a direct-regression family."""
    spec, opt = cfg.objective, cfg.optimizer
    dataset = harness.generate_synthetic(cfg)
    g, n = cfg.data.categories, opt.batch_per_category
    net = models.stack([harness.build_category_model(cfg, cfg.seed + 1000 * (c + 1))["pose"]
                        for c in range(g)])
    feats_all, targets_all = harness._training_rows(spec, None, dataset, None)
    feats = feats_all[:, :n]
    targets = targets_all.rows((np.arange(g)[:, None] * feats_all.shape[1] + np.arange(n)).ravel())
    out, cache = models.forward_cached(net, feats)
    rows = out.reshape(g * n, -1)
    grad_out = losses.objective_batch(spec, rows, targets, None).grads["pose"].reshape(g, n, -1) / n
    adam = harness._Adam(net, opt)
    grad = models.backward(net, cache, grad_out)
    buf = np.empty_like(grad)
    return {
        "categories": g,
        "rows_per_category": n,
        "params_per_category": int(net.params.shape[-1]),
        "forward_cached_s": _best_of(repeats, models.forward_cached, net, feats),
        "objective_batch_s": _best_of(repeats, losses.objective_batch, spec, rows, targets, None),
        "backward_s": _best_of(repeats, models.backward, net, cache, grad_out),
        # step uses its gradient as scratch: refill it, untimed, before each call
        "adam_step_s": _best_of(repeats, adam.step, net.params, buf, opt.learning_rate,
                                before=lambda: np.copyto(buf, grad)),
    }


def _stage_split(cfg):
    """Wall time of one run_experiment with out_dir, and the inclusive
    times of its stages from the layer tracer."""
    with tempfile.TemporaryDirectory() as out_dir, layertrace.Tracer({}) as tracer:
        start = time.perf_counter()
        harness.run_experiment(cfg, out_dir=out_dir)
        total = time.perf_counter() - start
    inc = tracer.inclusive
    stages = {
        "generate_s": inc["harness.generate_synthetic"],
        "dictionary_s": inc["harness.fit_shared_dictionary"],
        "train_s": inc["harness.train"],
        "train.forward_cached_s": inc["models.forward_cached"],
        "train.objective_batch_s": inc["losses.objective_batch"],
        "train.backward_s": inc["models.backward"],
        "train.self_s": tracer.self_time["harness.train"],
        "eval_s": inc["harness.evaluate_split"],
    }
    # config, report, records, dictionary and checkpoint writes, and the report maths
    stages["rest_s"] = total - sum(stages[k] for k in ("generate_s", "dictionary_s", "train_s",
                                                       "eval_s"))
    calls = {k: v for k, v in sorted(tracer.calls.items()) if k.startswith(("models.", "losses."))}
    return {"run_experiment_s": total, **stages, "calls": calls}


def _jitter_timings(repeats):
    """Best-of-repeats time of jitter_sample on each shape that `orient-geo
    jitter` offers, at its default spec and pose, and of writing and reading
    back the cuboid grid's manifest."""
    spec, euler = cli._jitter_spec(None)
    camera = jitter.default_camera()
    out = {}
    for shape, points in (("cuboid", jitter.cuboid_points()), ("sphere", jitter.sphere_points())):
        out[f"jitter_sample_{shape}_s"] = _best_of(repeats, jitter.jitter_sample,
                                                   (points, camera, euler), spec, 0)
    grid = jitter.jitter_sample((jitter.cuboid_points(), camera, euler), spec, 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "manifest.txt")

        def round_trip():
            jitter.write_manifest(path, grid)
            jitter.read_manifest(path)

        out["manifest_round_trip_s"] = _best_of(repeats, round_trip)
    out["cells"] = len(grid)
    return out


def _cpu_model():
    """The CPU model name from /proc/cpuinfo, or the platform's guess."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed calls per dictionary entry")
    parser.add_argument("--out", help="JSON file to write (default: print only)")
    args = parser.parse_args()

    entries = {}
    for name, cfg in _configs().items():
        targets = harness.pooled_train_targets(cfg, harness.generate_synthetic(cfg))
        k, rep, seed = cfg.dictionary_size, cfg.objective.representation, cfg.dictionary_seed
        counts = _counted_fit(targets, k, seed, rep)
        dictionary = dct.fit_kmeans(targets, k, seed, rep)
        entries[name] = {
            "n": int(targets.shape[0]),
            "K": k,
            "representation": rep,
            "fit_kmeans_s": _best_of(args.repeats, dct.fit_kmeans, targets, k, seed, rep),
            "hard_labels_s": _best_of(args.repeats, dct.hard_labels, targets, dictionary),
            **counts,
            "unpruned_distance_rows": counts["iterations"] * int(targets.shape[0]),
        }
        print(f"{name}: " + ", ".join(f"{key} {value}" for key, value in entries[name].items()))

    regress = workloads._training_config("regress", DATA_SEED, tiny=False)
    step = _step_timings(regress, STEP_REPEATS)
    print("regress step: " + ", ".join(f"{key} {value}" for key, value in step.items()))
    stages = _stage_split(regress)
    print("regress run_experiment: " + ", ".join(
        f"{key} {value:.3f}" for key, value in stages.items() if key != "calls"))
    jitter_times = _jitter_timings(JITTER_REPEATS)
    print("jitter: " + ", ".join(f"{key} {value}" for key, value in jitter_times.items()))

    doc = {
        "what": "dictionary layer: fit_kmeans and hard_labels, best of repeats; "
                "training step: forward, objective, backward and Adam at the regress "
                "step shapes, best of step_repeats, and the stage split of one regress "
                "run_experiment; jitter grids and a manifest round trip at the "
                "`orient-geo jitter` defaults, best of jitter_repeats; all in-process",
        "limits": "wall clock of this process only; no system-wide tracing, "
                  "no cache control, no CPU pinning; on a shared virtual machine "
                  "other tenants' load can stretch every time in a file alike, so "
                  "compare files through ratios inside each and re-run when the "
                  "unchanged dictionary times move",
        "data_seed": DATA_SEED,
        "repeats": args.repeats,
        "step_repeats": STEP_REPEATS,
        "jitter_repeats": JITTER_REPEATS,
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
        "machine": {
            "platform": platform.platform(),
            "cpu": _cpu_model(),
            "cpus": os.cpu_count(),
        },
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "entries": entries,
        "regress_step": step,
        "regress_stages": stages,
        "jitter": jitter_times,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
