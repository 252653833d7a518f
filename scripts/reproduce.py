#!/usr/bin/env python3
"""Print the paper's comparisons on the synthetic benchmark, one CSV table
each, separated by an empty line:

  regression  geodesic (R_G) vs. euclidean (R_E) regression, three seeds
              each: mean and std of MedErr and Acc_pi6;
  bindelta    pure classification (C) and every Bin & Delta family on one
              shared dataset: MedErr and Acc_pi6;
  ablations   representation, dictionary size, alpha and augmentation
              sweeps around M_G, and the alpha that validation picks.

Drop --small for the full-size benchmark (a few minutes per family)."""

import argparse
import dataclasses
import functools
import os

from orientgeo import harness, losses

TRIALS = 3  # seeds per regression family

# each table's reduced config for a quick pass
SMALL = {
    "regression": dict(data=harness.DataConfig(
        categories=3, train_samples=300, val_samples=60, test_samples=120)),
    "bindelta": dict(dictionary_size=16, data=harness.DataConfig(
        categories=2, train_samples=240, val_samples=40, test_samples=80)),
    "ablations": dict(
        data=harness.DataConfig(categories=2, train_samples=420, val_samples=60,
                                test_samples=80),
        optimizer=harness.OptimizerConfig(learning_rate=1e-3, epochs=2)),
}


def _config(family, seed, overrides):
    cfg = harness.ExperimentConfig(objective=losses.ObjectiveSpec(family), seed=seed)
    return dataclasses.replace(cfg, **overrides)


def _sub(out, name):
    return None if out is None else os.path.join(out, name)


def regression(config, out):
    print("family,MedErr_mean,MedErr_std,Acc_pi6_mean,Acc_pi6_std")
    for family in ("R_G", "R_E"):
        summary = harness.run_trials(config(family), TRIALS, out_dir=_sub(out, family))
        means, stds = summary.metric_means, summary.metric_stds
        print(f"{family},{means['MedErr']!r},{stds['MedErr']!r},"
              f"{means['Acc_pi6']!r},{stds['Acc_pi6']!r}")


def bindelta(config, out):
    print("family,MedErr,Acc_pi6")
    for family in ("C",) + losses.BIN_DELTA_FAMILIES:
        mean = harness.run_experiment(config(family), out_dir=_sub(out, family)).report.mean
        print(f"{family},{mean['MedErr']!r},{mean['Acc_pi6']!r}")


def ablations(config, out):
    result = harness.ablation_suite(config("M_G"), out_dir=out)
    print(result.table(), end="")
    print(f"best alpha by validation MedErr: {result.best_alpha!r}")


TABLES = {"regression": regression, "bindelta": bindelta, "ablations": ablations}


def table(text: str) -> str:
    """argparse type of a table name (choices= would refuse an empty list
    on Python 3.11)."""
    if text not in TABLES:
        raise argparse.ArgumentTypeError(f"no table {text!r}, choose from {', '.join(TABLES)}")
    return text


def seed(text: str) -> int:
    """argparse type of --seed: an int >= 0.  argparse turns the error into
    exit code 2 and a message on stderr."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {value}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("tables", nargs="*", type=table, metavar="TABLE",
                        help=f"tables to print, of {', '.join(TABLES)} (default: all)")
    parser.add_argument("--seed", type=seed, default=0)
    parser.add_argument("--out", help="artifact directory (one subdirectory per table)")
    parser.add_argument("--small", action="store_true", help="reduced dataset for a quick pass")
    args = parser.parse_args()

    chosen = args.tables or TABLES
    for i, name in enumerate(t for t in TABLES if t in chosen):
        if i:
            print()
        config = functools.partial(_config, seed=args.seed,
                                   overrides=SMALL[name] if args.small else {})
        TABLES[name](config, _sub(args.out, name))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
