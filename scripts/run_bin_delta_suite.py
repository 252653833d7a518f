#!/usr/bin/env python3
"""Run every Bin & Delta objective family (plus pure classification as the
baseline) on one shared dataset and print the MedErr/Acc_pi6 table."""

import argparse
import dataclasses

from orientgeo import harness, losses
from orientgeo.cli import positive_count


def default_families():
    return ("C",) + losses.BIN_DELTA_FAMILIES


def small_data() -> harness.DataConfig:
    return harness.DataConfig(
        categories=2, train_samples=240, val_samples=40, test_samples=80
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dictionary-size", type=positive_count, default=None)
    parser.add_argument("--families", help="comma list (default: all Bin & Delta)")
    parser.add_argument("--out", help="artifact directory (per family subdirs)")
    parser.add_argument(
        "--small", action="store_true", help="reduced dataset for a quick pass"
    )
    args = parser.parse_args()

    families = (
        tuple(f.strip() for f in args.families.split(",") if f.strip())
        if args.families
        else default_families()
    )
    print("family,MedErr,Acc_pi6")
    for family in families:
        cfg = harness.ExperimentConfig(
            objective=losses.ObjectiveSpec(family), seed=args.seed
        )
        if args.small:
            cfg = dataclasses.replace(cfg, data=small_data(), dictionary_size=16)
        if args.dictionary_size is not None:
            cfg = dataclasses.replace(cfg, dictionary_size=args.dictionary_size)
        out = f"{args.out}/{family}" if args.out else None
        result = harness.run_experiment(cfg, out_dir=out)
        print(
            f"{family},{result.report.mean['MedErr']!r},"
            f"{result.report.mean['Acc_pi6']!r}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
