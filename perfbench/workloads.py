"""The benchmark workloads: set-up, one timed operation, and the
correctness checks on what the operation produced.  README.md in this
directory gives the reason for each workload and the layer it stresses.
BENCHMARK.json measures `regress` and `tools`; `bindelta_soft` and
`bindelta_perbin` run by name only (README.md says why).
"""

import contextlib
import dataclasses
import io
import json
import math
import os

from orientgeo import cli, gradcheck, harness, jitter, losses

import records

NAMES = ("regress", "bindelta_soft", "bindelta_perbin", "tools")

# objective, K, categories, train samples per category, epochs, augmentation
TRAINING = {
    "regress": ("R_G", 100, 4, 1000, 5, "jittered"),
    "bindelta_soft": ("M_X", 200, 4, 2000, 2, "none"),
    "bindelta_perbin": ("M_Gp", 100, 2, 1000, 5, "none"),
}
HELD_OUT = 250  # val and test samples per category

# trained models must beat pose guessing by a wide margin: the median error
# of a uniformly random rotation is about 132 degrees
MAX_MED_ERR_DEG = 90.0

# files run_experiment writes besides one checkpoint per network
RUN_FILES = 8

GRADCHECK_INSTANCES = 100  # the CLI default trial count
JITTER_SHAPES = ("cuboid", "sphere")


@dataclasses.dataclass
class OpResult:
    attempted: int
    failed: int
    problems: list
    values: dict  # values read from the outputs: quality, files, bytes


def _training_config(name, seed, tiny):
    objective, k, cats, train, epochs, aug = TRAINING[name]
    held_out = HELD_OUT
    if tiny:
        k, cats, train, held_out, epochs = 8, 1, 40, 10, 2
    return harness.ExperimentConfig(
        objective=losses.ObjectiveSpec(objective),
        dictionary_size=k,
        optimizer=harness.OptimizerConfig(learning_rate=1e-3, epochs=epochs),
        data=harness.DataConfig(
            categories=cats, train_samples=train, val_samples=held_out,
            test_samples=held_out, augmentation=aug,
        ),
        seed=seed,
    )


def _tree_size(path):
    files = size = 0
    for base, _, names in os.walk(path):
        for n in names:
            files += 1
            size += os.path.getsize(os.path.join(base, n))
    return files, size


class Training:
    """run_experiment on one pinned config; repeats must agree byte for byte."""

    min_ops = 2  # the byte-identity check needs a repeat

    def __init__(self, name, seed, work_dir, tiny=False):
        self.cfg = _training_config(name, seed, tiny)
        self.warmup_cfg = _training_config(name, seed, tiny=True)
        self.work_dir = work_dir
        self.reference_csv = None
        # tiny models do not learn; only the full size is held to a quality bar
        self.max_med_err = 180.0 if tiny else MAX_MED_ERR_DEG
        spec = self.cfg.objective
        if spec.per_bin:
            roles = 1 + self.cfg.dictionary_size
        else:
            roles = 1 if spec.family in ("R_G", "R_E") else 2
        self.expected_files = RUN_FILES + self.cfg.data.categories * roles

    def setup(self):
        harness.run_experiment(self.warmup_cfg, out_dir=os.path.join(self.work_dir, "warmup"))

    def run(self, out_dir):
        harness.run_experiment(self.cfg, out_dir=out_dir)

    def check(self, out_dir):
        problems = []
        with open(os.path.join(out_dir, "report.csv"), "rb") as fh:
            csv = fh.read()
        if self.reference_csv is None:
            self.reference_csv = csv
        elif csv != self.reference_csv:
            problems.append("report.csv differs from the first repeat")
        with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
            mean = {m: v["mean"] for m, v in json.load(fh)["metrics"].items()}
        med, acc = mean["MedErr"], mean["Acc_pi6"]
        if not (math.isfinite(med) and 0.0 < med < self.max_med_err):
            problems.append(f"test MedErr {med!r} outside (0, {self.max_med_err})")
        if not 0.0 <= acc <= 1.0:
            problems.append(f"test Acc_pi6 {acc!r} outside [0, 1]")
        files, size = _tree_size(out_dir)
        if files != self.expected_files:
            problems.append(f"{files} artifact files, expected {self.expected_files}")
        values = {"med_err_deg": med, "acc_pi6": acc, "write_files": files, "write_bytes": size}
        return OpResult(1, 1 if problems else 0, problems, values)

    def failure(self, error):
        return OpResult(1, 1, [f"{type(error).__name__}: {error}"], {})


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class Tools:
    """gradcheck of every family, eval of a records file, both jitter shapes."""

    min_ops = 2  # a median needs more than one operation

    def __init__(self, name, seed, work_dir, tiny=False):
        self.seed = seed
        self.work_dir = work_dir
        self.instances = 2 if tiny else GRADCHECK_INSTANCES
        self.size = dict(categories=2, per_category=20) if tiny else {}
        self.records_path = os.path.join(work_dir, "records.txt")
        self.expected_eval = None
        spec = jitter.JitterSpec()
        self.expected_cells = len(spec.d_az) * len(spec.d_el) * len(spec.d_ct) * (2 if spec.flip else 1)
        self.attempted = len(gradcheck.default_specs()) + 1 + len(JITTER_SHAPES)

    def setup(self):
        self.expected_eval = records.generate(self.records_path, self.seed, **self.size)
        warm_records = os.path.join(self.work_dir, "warmup_records.txt")
        records.generate(warm_records, self.seed, categories=2, per_category=20)
        gradcheck.run_all(instances=1, seed=self.seed)
        self._eval(warm_records)
        self._jitter(os.path.join(self.work_dir, "warmup"))

    def _eval(self, path):
        return _run_cli(["eval", "--records", path, "--metric", records.EVAL_METRICS,
                         "--bins", str(records.AVP_BINS)])

    def _jitter(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        out = []
        for shape in JITTER_SHAPES:
            path = os.path.join(out_dir, f"{shape}.txt")
            out.append((shape, _run_cli(["jitter", "--manifest", path, "--shape", shape])[0], path))
        return out

    def run(self, out_dir):
        self.reports = gradcheck.run_all(instances=self.instances, seed=self.seed)
        self.eval_result = self._eval(self.records_path)
        self.jitter_result = self._jitter(out_dir)

    def check(self, out_dir):
        problems = [
            f"gradcheck {r.family}/{r.representation} max_rel_error {r.max_rel_error:.3e}"
            for r in self.reports
            if not r.passed
        ]
        failed = len(problems)
        rc, text = self.eval_result
        printed = {}
        if rc != 0:
            eval_problems = [f"eval exited {rc}"]
        else:
            try:
                pairs = records.parse_eval_output(text)
                eval_problems = records.check_eval_output(pairs, self.expected_eval)
                printed = dict(pairs)
            except ValueError:
                eval_problems = [f"eval printed unparsable output {text!r}"]
        failed += bool(eval_problems)
        problems += eval_problems
        for shape, rc, path in self.jitter_result:
            cells = len(jitter.read_manifest(path)) if rc == 0 else 0
            if cells != self.expected_cells:
                failed += 1
                problems.append(f"jitter {shape}: exit {rc}, {cells} cells, expected {self.expected_cells}")
        values = {
            "gradcheck_max_rel_err": max(r.max_rel_error for r in self.reports),
            "med_err_deg": printed.get("med", math.nan),
            "acc_pi6": printed.get("acc", math.nan),
        }
        return OpResult(self.attempted, failed, problems, values)

    def failure(self, error):
        return OpResult(self.attempted, self.attempted, [f"{type(error).__name__}: {error}"], {})


def make(name, seed, work_dir, tiny=False):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    cls = Tools if name == "tools" else Training
    return cls(name, seed, work_dir, tiny)
