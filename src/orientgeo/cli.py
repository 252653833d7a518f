"""Command-line entry points: experiment runs, ablations, record-file
evaluation, gradient checking, and jitter-manifest generation."""

import argparse
import json
import math
import sys

from . import gradcheck, harness, jitter, losses, metrics, so3

EVAL_METRICS = ("med", "acc", "arp", "avp")


def positive_count(text: str) -> int:
    """argparse type of the count options: a positive int.  argparse turns
    the error into exit code 2 and a message on stderr."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive count, got {value}")
    return value


def _read(path, parse):
    """parse(path), or None after one `cannot read <path>: ...` line on
    stderr when the file is missing or malformed."""
    try:
        return parse(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None


def _config(args):
    """The run's config, or None after one line on stderr.  ORIENT_GEO_SEED
    is checked first, so its error never blames the config file."""
    try:
        cfg = harness.apply_seed_override(harness.ExperimentConfig())
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return None
    if args.config:
        return _read(args.config, harness.load_config)
    return cfg


def _cmd_run(args) -> int:
    cfg = _config(args)
    if cfg is None:
        return 2
    if args.trials > 1:
        summary = harness.run_trials(cfg, args.trials, out_dir=args.out)
        for metric in sorted(summary.metric_means):
            print(
                f"{metric} mean {summary.metric_means[metric]!r} "
                f"std {summary.metric_stds[metric]!r}"
            )
    else:
        result = harness.run_experiment(cfg, out_dir=args.out)
        for metric in result.report.metrics:
            print(f"{metric} {result.report.mean[metric]!r}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _config(args)
    if cfg is None:
        return 2
    result = harness.ablation_suite(cfg, out_dir=args.out)
    print(result.table(), end="")
    print(f"best alpha by validation MedErr: {result.best_alpha!r}")
    return 0


def _cmd_eval(args) -> int:
    wanted = [m.strip() for m in args.metric.split(",") if m.strip()]
    # a list that names no metric is reported whole, as an unknown metric
    for m in wanted or [args.metric]:
        if m not in EVAL_METRICS:
            print(f"unknown metric {m!r}; choose from {','.join(EVAL_METRICS)}",
                  file=sys.stderr)
            return 2
    records = _read(args.records, metrics.read_records)
    if records is None:
        return 2
    matching = metrics.Matching(*records)
    compute = {
        "med": lambda: metrics.med_err(matching.pairs)[1],
        "acc": lambda: metrics.acc_pi6(matching.pairs)[1],
        "arp": matching.arp,
        "avp": lambda: matching.avp(args.bins),
    }
    try:
        lines = [f"{m} {compute[m]()!r}\n" for m in wanted]
    except metrics.EmptyCategory as exc:
        print(f"cannot evaluate {args.records}: {exc} matched", file=sys.stderr)
        return 2
    print("".join(lines), end="")
    return 0


def _cmd_gradcheck(args) -> int:
    if args.family == "all":
        specs = gradcheck.default_specs()
    else:
        if args.family not in losses.FAMILIES:
            print(f"unknown family {args.family!r}", file=sys.stderr)
            return 2
        specs = [losses.ObjectiveSpec(args.family)]
    failed = False
    for spec in specs:
        report = gradcheck.check_family(spec, instances=args.trials)
        status = "ok" if report.passed else "FAIL"
        print(
            f"{spec.family}/{spec.representation} {status} "
            f"max_rel_error {report.max_rel_error:.3e}"
        )
        failed = failed or not report.passed
    return 1 if failed else 0


def _floats(doc, key, default, count=None):
    """doc[key], or default when absent, as floats; ValueError unless it is
    a list of JSON numbers (count of them when count is given)."""
    value = doc.get(key, default)
    if not (isinstance(value, (list, tuple)) and len(value) == (count or len(value))
            and all(type(v) in (int, float) for v in value)):
        raise ValueError(f"{key} must be a list of {count or 'one or more'} numbers, got {value!r}")
    return tuple(map(float, value))


def _jitter_spec(path):
    """(JitterSpec, EulerZXZ) from a JSON spec file; defaults without one.
    ValueError on a key it does not know or a value of the wrong JSON type."""
    doc = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
    unknown = sorted(doc.keys() - {"d_az", "d_el", "d_ct", "flip", "euler_deg"})
    if unknown:
        raise ValueError(f"unknown spec keys: {', '.join(unknown)}")
    offsets = (_floats(doc, k, getattr(jitter.JitterSpec, k)) for k in ("d_az", "d_el", "d_ct"))
    euler_deg = _floats(doc, "euler_deg", (5.0, 88.0, 2.0), count=3)
    spec = jitter.JitterSpec(*offsets, flip=doc.get("flip", True))  # refuses a non-boolean flip
    return spec, so3.EulerZXZ(*map(math.radians, euler_deg))


def _cmd_jitter(args) -> int:
    spec = _read(args.spec, _jitter_spec)
    if spec is None:
        return 2
    jspec, euler = spec
    if args.shape == "sphere":
        points = jitter.sphere_points()
    else:
        points = jitter.cuboid_points()
    camera = jitter.default_camera()
    grid = jitter.jitter_sample((points, camera, euler), jspec, 0)
    jitter.write_manifest(args.manifest, grid)
    print(f"wrote {len(grid)} jittered cells to {args.manifest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orient-geo",
        description="orientation-estimation experiments on synthetic data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment (or several trials)")
    p.add_argument("--config", help="JSON experiment config (defaults used if omitted)")
    p.add_argument("--out", help="artifact directory")
    p.add_argument("--trials", type=positive_count, default=1,
                   help="repeat on consecutive seeds")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("ablate", help="run the fixed ablation sweeps")
    p.add_argument("--config", help="JSON base config (defaults used if omitted)")
    p.add_argument("--out", help="artifact directory")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("eval", help="recompute metrics from a records file")
    p.add_argument("--records", required=True)
    p.add_argument("--metric", default="med", help=f"comma list of {','.join(EVAL_METRICS)}")
    p.add_argument("--bins", type=positive_count, default=8, help="azimuth bins for avp")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of the loss gradients")
    p.add_argument("--family", default="all")
    p.add_argument("--trials", type=positive_count, default=100, help="instances per family")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("jitter", help="write a jittered-homography manifest")
    p.add_argument("--manifest", required=True, help="output manifest path")
    p.add_argument("--spec", help="JSON with d_az/d_el/d_ct/flip/euler_deg")
    p.add_argument("--shape", choices=("cuboid", "sphere"), default="cuboid")
    p.set_defaults(func=_cmd_jitter)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
