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
forward_cached, objective_batch, the geodesic kernel under it, backward
and the Adam step, best of STEP_REPEATS, and splits STAGE_RUNS `regress`
run_experiment calls into their stages with the perfbench layer tracer
(inclusive times; the train self time is the Adam steps plus the step glue
around the traced calls).  It reports the median over the runs of each
stage's time and of its share of its own run's total: one run's split
moves with the host's load, and the shares move less than the times.
The train loop's own cost is one `regress` train call's wall time minus
the inclusive time of its _step calls, best of LOOP_REPEATS trainings.

Per-bin step: over the steps of one train call at the `bindelta_perbin`
shape (G = 2 categories, K = 100 heads, n = 8 rows each), once with its
own objective, M_Gp (its M_Sp warm-start epoch included), and once with
M_Pp, the median per step of the time _step spends in the logits forward,
the heads forward, objective_batch, the backward passes, the Adam updates,
and the per-bin gathers and scatters of parameters, moments and step
counts (none for M_Pp, which steps its heads in place), and of the whole
_step, with the per-bin heads each step forwards (mean and most).  The
parts are timed by wrappers around the library calls _step makes, whose
own call cost lands in them.

Kernel: best of STEP_REPEATS geodesic kernel calls on the last
objective_batch block of a 100-instance M_Pp gradcheck, as `orient-geo
gradcheck` makes it: 10 instances' probe rows, keys (650, 8, 3) against
targets (650, 1, 3, 3).

Jitter: with the default spec and pose of `orient-geo jitter`, it times
jitter_sample on the cuboid and on the sphere, and one write_manifest plus
read_manifest round trip of the cuboid grid, best of JITTER_REPEATS.

Tools: on a records file of the perfbench `tools` size built with
perfbench/records.py at DATA_SEED, it times read_records and one Matching,
best of TOOLS_REPEATS, and counts the iou calls of that matching; and it
times check_family at GRADCHECK_INSTANCES instances for every default
spec, best of TOOLS_REPEATS, with the probe rows of each instance, and the
time that check_family spends in gradcheck._draw, best of TOOLS_REPEATS,
with the candidates it draws.

Records memory: the tracemalloc peak of one perfbench/records.py
generate at the tools size (DATA_SEED), which builds its Detection and
GroundTruth objects and writes them, and the peak of one write_records of
those records, once as the object lists generate passes it and once as
their RecordTables, each beside the size of the file written.  A peak
counts what the call holds at once, numpy buffers included, and nothing
allocated before the call; it does not move with the host's load.

Timings are wall clock of this process only (time.perf_counter), taken
without system-wide tracing, without cache control and without pinning.
On a shared virtual machine other tenants' load stretches them; the
dictionary section, which a training-step change leaves alone, shows
whether a run was slowed.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/bench.py --out BENCH_9.json
"""

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from unittest import mock

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import layertrace  # noqa: E402  (perfbench/layertrace.py: the layer tracer)
import records  # noqa: E402  (perfbench/records.py: the tools workload's records files)
import workloads  # noqa: E402  (perfbench/workloads.py: the workload configs)

from orientgeo import dictionary as dct  # noqa: E402
from orientgeo import cli, gradcheck, harness, jitter, losses, metrics, models  # noqa: E402

DATA_SEED = 202
STEP_REPEATS = 200  # a training-step part takes tens of microseconds
JITTER_REPEATS = 30  # a default grid takes a few milliseconds
LOOP_REPEATS = 3  # a regress train call takes about half a second
STAGE_RUNS = 5  # one regress run_experiment takes about a second; one alone is host noise
TOOLS_REPEATS = 7  # a matching or a check_family call takes tens of milliseconds
GRADCHECK_INSTANCES = 100  # as the tools workload and `orient-geo gradcheck` check them


def _configs():
    """name -> ExperimentConfig of each timed fit, at data seed DATA_SEED."""
    cfgs = {name: workloads._training_config(name, DATA_SEED, tiny=False)
            for name in ("regress", "bindelta_soft")}
    cfgs["default"] = dataclasses.replace(harness.ExperimentConfig(), seed=DATA_SEED)
    return cfgs


def _perbin_configs():
    """family -> ExperimentConfig of each timed per-bin train call: the
    `bindelta_perbin` workload config at data seed DATA_SEED, and M_Pp at
    its shape."""
    cfg = workloads._training_config("bindelta_perbin", DATA_SEED, tiny=False)
    return {"M_Gp": cfg, "M_Pp": dataclasses.replace(cfg, objective=losses.ObjectiveSpec("M_Pp"))}


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

    with mock.patch.object(dct, "_sq_distances", counted_sq_distances), \
            mock.patch.object(dct, "_renormalize_centroids", counted_renormalize):
        dct.fit_kmeans(targets, k, seed, representation)
    return counts


def _step_timings(cfg, repeats):
    """Best-of-repeats time of each part of one training step at cfg's
    shapes: the first batch_per_category train rows of every category on
    the stacked pose network of a direct-regression family."""
    spec, opt = cfg.objective, cfg.optimizer
    dataset = harness.generate_synthetic(cfg)
    g, n = cfg.data.categories, opt.batch_per_category
    net = harness.init_networks(cfg)["pose"]
    feats_all, targets_all = harness._training_rows(spec, None, dataset, None)
    feats = feats_all[:, :n]
    targets = targets_all.rows((np.arange(g)[:, None] * feats_all.shape[1] + np.arange(n)).ravel())
    out, cache = models.forward_cached(net, feats)
    rows = out.reshape(g * n, -1)
    grad_out = losses.objective_batch(spec, rows, targets, None).grads["pose"].reshape(g, n, -1) / n
    state = harness._RoleState.fresh(net)
    grad = models.backward(net, cache, grad_out)
    buf = np.empty_like(grad)
    return {
        "categories": g,
        "rows_per_category": n,
        "params_per_category": int(net.params.shape[-1]),
        "forward_cached_s": _best_of(repeats, models.forward_cached, net, feats),
        "objective_batch_s": _best_of(repeats, losses.objective_batch, spec, rows, targets, None),
        "geodesic_kernel_s": _best_of(repeats, losses._geodesic_axis_angle, rows, targets.ref),
        "backward_s": _best_of(repeats, models.backward, net, cache, grad_out),
        # the update uses its gradient as scratch: refill it, untimed, before each call
        "adam_step_s": _best_of(repeats, harness._adam_update, state, buf, opt.learning_rate,
                                before=lambda: np.copyto(buf, grad)),
    }


def _loop_overhead(cfg, repeats):
    """train at cfg, best of `repeats` by the time spent outside _step: the
    train wall time, the inclusive time of its _step calls (timed by a
    wrapper whose own call cost lands outside) and their difference, in
    all and per step.  The difference holds the set-up before the first
    step: networks, Adam state and the stacked training rows."""
    dataset = harness.generate_synthetic(cfg)
    step, best = harness._step, None
    for _ in range(repeats):
        inside = [0.0, 0]

        def timed_step(*args):
            start = time.perf_counter()
            try:
                return step(*args)
            finally:
                inside[0] += time.perf_counter() - start
                inside[1] += 1

        with mock.patch.object(harness, "_step", timed_step):
            start = time.perf_counter()
            harness.train(cfg, dataset)
            total = time.perf_counter() - start
        if best is None or total - inside[0] < best["outside_step_s"]:
            best = {"train_s": total, "step_s": inside[0], "outside_step_s": total - inside[0],
                    "steps": inside[1], "outside_per_step_s": (total - inside[0]) / inside[1]}
    return best


def _perbin_step_timings(cfg):
    """Median per step, over the steps of one train call at cfg, of the
    time _step spends in each of its parts and in all of it, and the mean
    and most per-bin heads a step forwards.  The heads forward is the
    forward_cached call of a network with the pose width, and its heads
    are the entries of that network's stack."""
    dataset = harness.generate_synthetic(cfg)
    dictionary = harness.fit_shared_dictionary(cfg, dataset)
    pose_dim = cfg.objective.pose_dim
    parts = ("logits_forward_s", "heads_forward_s", "objective_batch_s", "backward_s",
             "adam_step_s", "gather_scatter_s", "step_s")
    steps, heads, current = {part: [] for part in parts}, [], {}
    originals = ((models, "forward_cached"), (losses, "objective_batch"), (models, "backward"),
                 (harness, "_adam_update"), (harness._RoleState, "gather"),
                 (harness._RoleState, "scatter"), (harness, "_step"))
    forward_cached, objective_batch, backward, adam_update, gather, scatter, step = (
        getattr(owner, name) for owner, name in originals)

    def timed(part, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            current[part] = current.get(part, 0.0) + time.perf_counter() - start

    def timed_forward(net, f):
        if net.out_dim == pose_dim:
            heads.append(int(np.prod(net.params.shape[:-1])))
            return timed("heads_forward_s", forward_cached, net, f)
        return timed("logits_forward_s", forward_cached, net, f)

    def timed_step(*args):
        current.clear()
        try:
            return timed("step_s", step, *args)
        finally:
            for part in parts:
                steps[part].append(current.get(part, 0.0))

    wrappers = (timed_forward, lambda *a: timed("objective_batch_s", objective_batch, *a),
                lambda *a: timed("backward_s", backward, *a),
                lambda *a: timed("adam_step_s", adam_update, *a),
                lambda *a: timed("gather_scatter_s", gather, *a),
                lambda *a: timed("gather_scatter_s", scatter, *a), timed_step)
    with contextlib.ExitStack() as patches:
        for (owner, name), wrapper in zip(originals, wrappers):
            patches.enter_context(mock.patch.object(owner, name, wrapper))
        harness.train(cfg, dataset, dictionary)
    return {
        "categories": cfg.data.categories,
        "heads_per_category": cfg.dictionary_size,
        "rows_per_category": cfg.optimizer.batch_per_category,
        "steps": len(heads),
        "heads_forwarded_mean": sum(heads) / len(heads),
        "heads_forwarded_max": max(heads),
        **{part: statistics.median(times) for part, times in steps.items()},
    }


def _kernel_timings(repeats):
    """Best-of-repeats time of the geodesic kernel on the keys and targets
    of the last objective_batch block of a 100-instance M_Pp gradcheck."""
    spec, seen, kernel = losses.ObjectiveSpec("M_Pp"), [], losses._geodesic_axis_angle

    def recording(ys, a_mat):
        seen.append((ys, a_mat))
        return kernel(ys, a_mat)

    with mock.patch.object(losses, "_geodesic_axis_angle", recording):
        gradcheck.check_family(spec, instances=100)
    ys, a_mat = seen[-1]
    return {"m_pp_block_keys": list(ys.shape), "m_pp_block_targets": list(a_mat.shape),
            "m_pp_block_kernel_s": _best_of(repeats, kernel, ys, a_mat)}


def _stage_split(cfg, runs):
    """Medians over `runs` run_experiment calls with out_dir: of the wall
    time, of each stage's inclusive time from the layer tracer, and of each
    stage's share of its own run's wall time."""
    totals, splits = [], []
    for _ in range(runs):
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
        stages["rest_s"] = total - sum(stages[k] for k in ("generate_s", "dictionary_s",
                                                           "train_s", "eval_s"))
        totals.append(total)
        splits.append(stages)
    # the call counts are the same in every run of one config
    calls = {k: v for k, v in sorted(tracer.calls.items()) if k.startswith(("models.", "losses."))}
    return {
        "runs": runs,
        "run_experiment_s": statistics.median(totals),
        **{k: statistics.median(s[k] for s in splits) for k in splits[0]},
        "shares": {k: statistics.median(s[k] / t for s, t in zip(splits, totals))
                   for k in splits[0]},
        "calls": calls,
    }


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


def _draw_timings(repeats, spec):
    """Best of `repeats` check_family calls at GRADCHECK_INSTANCES: the
    inclusive time of its _draw calls, and the candidates they draw."""
    draw, best = gradcheck._draw, None
    for _ in range(repeats):
        spent = [0.0, 0]

        def timed_draw(spec, rng, k, n):
            start = time.perf_counter()
            try:
                return draw(spec, rng, k, n)
            finally:
                spent[0] += time.perf_counter() - start
                spent[1] += n

        with mock.patch.object(gradcheck, "_draw", timed_draw):
            gradcheck.check_family(spec, GRADCHECK_INSTANCES)
        best = spent if best is None else min(best, spent)
    return {"draw_s": best[0], "candidates_drawn": best[1]}


def _tools_timings(repeats):
    """Best-of-repeats time of read_records and Matching on a records file
    of the tools workload's size, the iou calls of one matching, and the
    best-of-repeats time of check_family of every default spec with its
    probe rows per instance (k = 8, as check_family's default) and the
    best-of-repeats time it spends drawing candidates."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.txt")
        records.generate(path, DATA_SEED)
        dets, gts = metrics.read_records(path)
        out = {"detections": len(dets), "ground_truths": len(gts),
               "read_records_s": _best_of(repeats, metrics.read_records, path)}
    out["matching_s"] = _best_of(repeats, metrics.Matching, dets, gts)
    with mock.patch.object(metrics, "iou", wraps=metrics.iou) as iou:
        metrics.Matching(dets, gts)
    out["iou_calls_per_matching"] = iou.call_count
    out["check_family"] = {
        f"{spec.family}/{spec.representation}": {
            "check_family_s": _best_of(repeats, gradcheck.check_family, spec, GRADCHECK_INSTANCES),
            "probe_rows_per_instance": gradcheck._probe_rows(spec, 8),
            **_draw_timings(repeats, spec),
        }
        for spec in gradcheck.default_specs()
    }
    out["check_family_total_s"] = sum(v["check_family_s"] for v in out["check_family"].values())
    out["draw_total_s"] = sum(v["draw_s"] for v in out["check_family"].values())
    return out


def _traced_peak(fn, *args, **kwargs):
    """The most bytes fn(*args, **kwargs) held at once, as tracemalloc
    counts them."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _records_memory(**size):
    """tracemalloc peaks of the tools workload's record set-up: one
    records.generate (at the tools size unless `size` gives categories and
    per_category), and one write_records of the records it writes, as its
    object lists and as their RecordTables, with the file's size and each
    write's peak per file byte."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.txt")
        with mock.patch.object(metrics, "write_records", wraps=metrics.write_records) as write:
            generate_peak = _traced_peak(records.generate, path, DATA_SEED, **size)
        dets, gts = write.call_args.args[1:]
        out = {"detections": len(dets), "ground_truths": len(gts),
               "file_bytes": os.path.getsize(path), "generate_peak_bytes": generate_peak}
        tables = metrics._table(dets), metrics._table(gts)
        for name, items in (("objects", (dets, gts)), ("tables", tables)):
            peak = out[f"write_{name}_peak_bytes"] = _traced_peak(metrics.write_records, path, *items)
            out[f"write_{name}_peak_per_file_byte"] = peak / out["file_bytes"]
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
    parser.add_argument("--repeats", type=cli.positive_count, default=5,
                        help="timed calls per dictionary entry")
    parser.add_argument("--out", help="JSON file to write (default: print only)")
    args = parser.parse_args()

    entries = {}
    for name, cfg in _configs().items():
        targets = harness.pooled_train_targets(cfg, harness.generate_synthetic(cfg))
        k, rep, seed = cfg.dictionary_size, cfg.objective.representation, harness.DICTIONARY_SEED
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
    loop = _loop_overhead(regress, LOOP_REPEATS)
    print("regress train loop: " + ", ".join(f"{key} {value}" for key, value in loop.items()))
    perbin = {}
    for family, cfg in _perbin_configs().items():
        perbin[family] = _perbin_step_timings(cfg)
        print(f"bindelta_perbin {family} step: "
              + ", ".join(f"{key} {value}" for key, value in perbin[family].items()))
    kernel = _kernel_timings(STEP_REPEATS)
    print("kernel: " + ", ".join(f"{key} {value}" for key, value in kernel.items()))
    stages = _stage_split(regress, STAGE_RUNS)
    print(f"regress run_experiment, median of {STAGE_RUNS}: " + ", ".join(
        f"{key} {value:.3f}" for key, value in stages.items() if isinstance(value, float)))
    print("regress stage shares: " + ", ".join(
        f"{key} {value:.3f}" for key, value in stages["shares"].items()))
    jitter_times = _jitter_timings(JITTER_REPEATS)
    print("jitter: " + ", ".join(f"{key} {value}" for key, value in jitter_times.items()))
    tools = _tools_timings(TOOLS_REPEATS)
    print("tools: " + ", ".join(f"{key} {value}" for key, value in tools.items()
                                if key != "check_family"))
    for name, entry in tools["check_family"].items():
        print(f"  check_family {name}: {entry['check_family_s']:.4f} s, "
              f"{entry['probe_rows_per_instance']} probe rows per instance, "
              f"_draw {entry['draw_s']:.4f} s for {entry['candidates_drawn']} candidates")
    records_memory = _records_memory()
    print("records memory: " + ", ".join(f"{key} {value}" for key, value in records_memory.items()))

    doc = {
        "what": "dictionary layer: fit_kmeans and hard_labels, best of repeats; "
                "training step: forward, objective, geodesic kernel, backward and Adam "
                "at the regress step shapes, best of step_repeats, the regress train "
                "loop's time outside _step, best of loop_repeats, and the median stage "
                "split and stage shares of stage_runs regress run_experiment calls; "
                "the median per step of each part of the bindelta_perbin step, with "
                "its M_Gp objective and with M_Pp, over one train call each (its Adam "
                "updates apart from its per-bin gathers and scatters), with the per-bin "
                "heads each step forwards; "
                "the geodesic kernel on one M_Pp gradcheck block, best of step_repeats; "
                "jitter grids and a manifest round trip at the `orient-geo jitter` "
                "defaults, best of jitter_repeats; read_records and Matching on a "
                "tools-sized records file, and check_family of every default spec and "
                "its time in _draw, best of tools_repeats; the tracemalloc peaks of a "
                "tools-sized records.generate and of write_records on its object lists "
                "and on their tables; all in-process",
        "limits": "wall clock of this process only; no system-wide tracing, "
                  "no cache control, no CPU pinning; on a shared virtual machine "
                  "other tenants' load can stretch every time in a file alike, so "
                  "compare files through ratios inside each and re-run when the "
                  "unchanged dictionary times move",
        "data_seed": DATA_SEED,
        "repeats": args.repeats,
        "step_repeats": STEP_REPEATS,
        "jitter_repeats": JITTER_REPEATS,
        "loop_repeats": LOOP_REPEATS,
        "stage_runs": STAGE_RUNS,
        "tools_repeats": TOOLS_REPEATS,
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
        "regress_train_loop": loop,
        "bindelta_perbin_step": perbin,
        "kernel": kernel,
        "regress_stages": stages,
        "jitter": jitter_times,
        "tools": tools,
        "records_memory": records_memory,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
