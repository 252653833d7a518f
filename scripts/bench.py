#!/usr/bin/env python3
"""Time the dictionary layer in-process and write a BENCH_<n>.json file.

For three fit sizes, the pooled train targets of the perfbench `regress`
and `bindelta_soft` workload configs and of the default ExperimentConfig,
it times fit_kmeans and hard_labels of those targets, best of --repeats,
and counts the Lloyd iterations and the distance rows (one point against
every key) a fit computes.

Timings are wall clock of this process only (time.perf_counter), taken
without system-wide tracing, without cache control and without pinning.

    PYTHONPATH=src python3 scripts/bench.py --out BENCH_1.json
"""

import argparse
import dataclasses
import json
import os
import platform
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py: the workload configs)

from orientgeo import dictionary as dct  # noqa: E402
from orientgeo import harness  # noqa: E402

DATA_SEED = 202


def _configs():
    """name -> ExperimentConfig of each timed fit, at data seed DATA_SEED."""
    cfgs = {name: workloads._training_config(name, DATA_SEED, tiny=False)
            for name in ("regress", "bindelta_soft")}
    cfgs["default"] = dataclasses.replace(harness.ExperimentConfig(), seed=DATA_SEED)
    return cfgs


def _best_of(repeats, fn, *args):
    best = float("inf")
    for _ in range(repeats):
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
    parser.add_argument("--repeats", type=int, default=5, help="timed calls per entry")
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

    doc = {
        "what": "dictionary layer: fit_kmeans and hard_labels, best of repeats, in-process",
        "limits": "wall clock of this process only; no system-wide tracing, "
                  "no cache control, no CPU pinning",
        "data_seed": DATA_SEED,
        "repeats": args.repeats,
        "machine": {
            "platform": platform.platform(),
            "cpu": _cpu_model(),
            "cpus": os.cpu_count(),
        },
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "entries": entries,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
