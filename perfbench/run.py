"""orientgeo benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload regress --seed 0 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from ./src.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  `--trace 0` reports the end-to-end metrics;
`--trace 1` reports the per-layer metrics from a separate traced run.
Exit code 0 means every correctness check passed.

All timings are in-process `time.perf_counter` and `ru_maxrss` of this
process; nothing traces the whole system or controls caches.  MACs and
bytes are computed from array and file sizes, not measured.
"""

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import layertrace

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

MODULES = layertrace.MODULES
PER_LAYER = {
    **{f"{m}.{kind}": unit for m in MODULES for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "losses.objective_s": "s",
    "losses.objective_calls": "count",
    "losses.non_smooth": "count",
    "dictionary.fit_kmeans_s": "s",
    "dictionary.soft_assign_calls": "count",
    "models.forward_cached_calls": "count",
    "models.backward_calls": "count",
    "models.forward_macs": "count",
    "models.save_mlp_s": "s",
    "harness.train_s": "s",
    "harness.train_self_s": "s",
    "harness.train_samples": "count",
    "harness.generate_s": "s",
    "harness.eval_s": "s",
    "harness.eval_poses": "count",
    "harness.write_s": "s",
    "harness.write_files": "count",
    "harness.write_bytes": "bytes",
    "metrics.match_detections_s": "s",
    "metrics.iou_calls": "count",
    "gradcheck.instances": "count",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "med_err_deg": "deg",
    "acc_pi6": "fraction",
    "gradcheck_max_rel_err": "ratio",
}

# functions whose inclusive time is artifact writing when called from
# run_experiment; the rest of run_experiment's self time is writing too
WRITERS = ("harness.config_to_json", "metrics.write_report", "metrics.write_records",
           "dictionary.save_dictionary", "models.save_mlp")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the clock, exit (used to time set-up)")
    return p.parse_args(argv)


def _child_setup_seconds(args):
    """Wall time from spawning a fresh interpreter to its end of set-up.
    perf_counter is CLOCK_MONOTONIC, so the child's reading is comparable."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - t0


def _environment():
    import numpy
    from orientgeo import harness

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        # read only by the library's config loaders, which the benchmark bypasses
        "orient_geo_seed_set_and_ignored": harness.SEED_ENV_VAR in os.environ,
        "limits": "in-process perf_counter and ru_maxrss only; no system-wide tracing "
                  "or cache control; MACs and bytes computed from sizes, not measured",
    }


def _hooks(extra):
    """Counters that need a call's arguments or result."""

    def objective(args, result):
        extra["losses.non_smooth"] += bool(result.non_smooth)

    def forward_cached(args, result):
        net, out = args[0], result[0]
        rows = out.size // net.out_dim
        extra["models.forward_macs"] += rows * sum(layer.weight.size for layer in net.layers)

    def train(args, result):
        nets_by_cat, _, log = result
        steps = sum(len(s) for s in log.step_losses)
        extra["harness.train_samples"] += steps * len(nets_by_cat) * args[0].optimizer.batch_per_category

    def evaluate_split(args, result):
        extra["harness.eval_poses"] += len(result)

    return {
        "losses.objective": objective,
        "models.forward_cached": forward_cached,
        "harness.train": train,
        "harness.evaluate_split": evaluate_split,
    }


def _layer_values(tracer, extra, op_s, values):
    inc, calls = tracer.inclusive, tracer.calls
    out = {}
    for m in MODULES:
        out[f"{m}.self_s"] = tracer.module_self(m)
        out[f"{m}.calls"] = tracer.module_calls(m)
    out.update({
        "losses.objective_s": inc["losses.objective"],
        "losses.objective_calls": calls["losses.objective"],
        "losses.non_smooth": extra["losses.non_smooth"],
        "dictionary.fit_kmeans_s": inc["dictionary.fit_kmeans"],
        "dictionary.soft_assign_calls": calls["dictionary.soft_assign_probs"] + calls["dictionary.soft_assign"],
        "models.forward_cached_calls": calls["models.forward_cached"],
        "models.backward_calls": calls["models.backward"],
        "models.forward_macs": extra["models.forward_macs"],
        "models.save_mlp_s": inc["models.save_mlp"],
        "harness.train_s": inc["harness.train"],
        "harness.train_self_s": tracer.self_time["harness.train"],
        "harness.train_samples": extra["harness.train_samples"],
        "harness.generate_s": inc["harness.generate_synthetic"],
        "harness.eval_s": inc["harness.evaluate_split"],
        "harness.eval_poses": extra["harness.eval_poses"],
        "harness.write_s": tracer.self_time["harness.run_experiment"] + sum(inc[w] for w in WRITERS),
        "harness.write_files": values.get("write_files", 0),
        "harness.write_bytes": values.get("write_bytes", 0),
        "metrics.match_detections_s": inc["metrics.match_detections"],
        "metrics.iou_calls": calls["metrics.iou"],
        "gradcheck.instances": calls["gradcheck.check_instance"],
        "trace.run_s": op_s,
        "trace.unattributed_s": op_s - tracer.attributed,
        "med_err_deg": values.get("med_err_deg", 0.0),
        "acc_pi6": values.get("acc_pi6", 0.0),
        "gradcheck_max_rel_err": values.get("gradcheck_max_rel_err", 0.0),
    })
    return out


def _room_for_another(start, seconds, times, min_ops):
    """True while the run is short of `min_ops` operations, or one more of
    the median length so far still ends within `seconds` of `start`.  A
    slow host thus gets fewer operations, not a longer run."""
    if len(times) < min_ops:
        return True
    return time.perf_counter() - start + statistics.median(times) <= seconds


class Run:
    """The timed loop: as many operations as fit in --seconds (at least the
    workload's minimum), each checked as soon as it ends."""

    def __init__(self, workload, work_dir):
        self.workload = workload
        self.work_dir = work_dir
        self.attempted = self.failed = 0
        self.problems = []
        self.count = 0
        self.cpu = []  # process CPU seconds per operation

    def op(self, tracer=None):
        out_dir = os.path.join(self.work_dir, f"op{self.count}")
        self.count += 1
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                self.workload.run(out_dir)
            else:
                with tracer:
                    self.workload.run(out_dir)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
            traceback.print_exc(file=sys.stderr)
        op_s = time.perf_counter() - t0
        self.cpu.append(time.process_time() - c0)
        result = self.workload.failure(error) if error else self.workload.check(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += result.attempted
        self.failed += result.failed
        self.problems += result.problems
        return op_s, result

    def untraced(self, seconds, min_ops):
        times, values = [], None
        start = time.perf_counter()
        while True:
            op_s, result = self.op()
            times.append(op_s)
            values = values or result.values
            if result.failed or not _room_for_another(start, seconds, times, min_ops):
                return times, values

    def traced(self, seconds):
        samples, plain, pairs = collections.defaultdict(list), [], []
        start = time.perf_counter()
        while True:
            plain_s, result = self.op()
            plain.append(plain_s)
            extra = collections.Counter()
            tracer = layertrace.Tracer(hooks=_hooks(extra))
            op_s, traced_result = self.op(tracer)
            pairs.append(plain_s + op_s)
            for k, v in _layer_values(tracer, extra, op_s, traced_result.values).items():
                samples[k].append(v)
            if result.failed or traced_result.failed or not _room_for_another(start, seconds, pairs, 1):
                break
        layers = {k: statistics.median(v) for k, v in samples.items()}
        layers["trace.overhead_s"] = layers["trace.run_s"] - statistics.median(plain)
        return layers


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads BLAS
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "orientgeo", "__init__.py")):
        print(f"no orientgeo sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import orientgeo
    import workloads

    if os.path.dirname(os.path.abspath(orientgeo.__file__)) != os.path.join(src, "orientgeo"):
        print(f"imported orientgeo from {orientgeo.__file__}, not {src}", file=sys.stderr)
        return 2

    scratch_root = os.path.join(root, ".perfbench_run")
    os.makedirs(scratch_root, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch_root) as work_dir:
            workload = workloads.make(args.workload, args.seed, work_dir, args.tiny)
            if args.setup_only:
                workload.setup()
                print(repr(time.perf_counter()))
                return 0
            return _measure(args, workload, work_dir)
    finally:
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # another run still uses it


def _measure(args, workload, work_dir):
    env = _environment()
    print("# env " + json.dumps(env, sort_keys=True))
    setups = [] if args.trace else [_child_setup_seconds(args) for _ in range(SETUP_REPEATS)]
    workload.setup()
    run = Run(workload, work_dir)
    if args.trace:
        values = run.traced(args.seconds)
        units = PER_LAYER
    else:
        times, op_values = run.untraced(args.seconds, workload.min_ops)
        values = {
            "run_s": statistics.median(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(f"# ops {len(times)} run_s each {times} cpu_s each {run.cpu}")
        for k, v in sorted(op_values.items()):
            print(f"# output {k} {v!r}")
    for name in units:
        print(f"{name} {values[name]!r} {units[name]}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = run.failed == 0 and not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
