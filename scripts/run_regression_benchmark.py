#!/usr/bin/env python3
"""Compare direct geodesic regression against euclidean regression on the
default synthetic benchmark: three seeds each, mean and std of MedErr and
Acc_pi6 per family."""

import argparse
import dataclasses

from orientgeo import harness, losses
from orientgeo.cli import positive_count


def small_data() -> harness.DataConfig:
    return harness.DataConfig(
        categories=3, train_samples=300, val_samples=60, test_samples=120
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=positive_count, default=3)
    parser.add_argument("--out", help="artifact directory (per family subdirs)")
    parser.add_argument(
        "--small", action="store_true", help="reduced dataset for a quick pass"
    )
    args = parser.parse_args()

    print("family,MedErr_mean,MedErr_std,Acc_pi6_mean,Acc_pi6_std")
    for family in ("R_G", "R_E"):
        cfg = harness.ExperimentConfig(
            objective=losses.ObjectiveSpec(family), seed=args.seed
        )
        if args.small:
            cfg = dataclasses.replace(cfg, data=small_data())
        out = f"{args.out}/{family}" if args.out else None
        summary = harness.run_trials(cfg, args.trials, out_dir=out)
        print(
            f"{family},{summary.metric_means['MedErr']!r},"
            f"{summary.metric_stds['MedErr']!r},"
            f"{summary.metric_means['Acc_pi6']!r},"
            f"{summary.metric_stds['Acc_pi6']!r}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
