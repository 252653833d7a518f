"""Record the golden report fixture that tests/test_harness.py checks
harness.run_experiment and harness.discretization_floor against.

The reports were recorded with commit b1e1d3b, which evaluated, dumped
and measured one pose at a time through the single-vector so3 maps.  They
pin the row-wise evaluation path to that reference.  To re-record, put
that commit's src on the path:

    PYTHONPATH=<checkout of b1e1d3b>/src:tests \
        python tests/record_golden_report.py tests/golden_report.json

Cases use the tiny config of record_golden_training.py, with 64 val and
test poses per category and learning rate 3e-2 so that Acc_pi6 is not 0
everywhere: R_G with jittered copies, R_G on quaternions, C, M_G and the
per-bin M_Gp.  Each case keeps the test and val reports (MedErr and
Acc_pi6 per category and mean) and the discretization floor of the run's
dictionary on the test split.
"""

import dataclasses
import json
import sys

from orientgeo import dictionary as dct
from orientgeo import harness, losses

import record_golden_training

CASES = {
    "R_G-jittered": ("R_G", dct.AXIS_ANGLE, "jittered"),
    "R_G-quaternion": ("R_G", dct.QUATERNION, "none"),
    "C": ("C", dct.AXIS_ANGLE, "none"),
    "M_G": ("M_G", dct.AXIS_ANGLE, "none"),
    "M_Gp": ("M_Gp", dct.AXIS_ANGLE, "none"),
}


def case_config(name):
    family, representation, augmentation = CASES[name]
    base = record_golden_training.case_config("C")
    return dataclasses.replace(
        base,
        objective=losses.ObjectiveSpec(family, representation),
        optimizer=dataclasses.replace(base.optimizer, learning_rate=3e-2),
        data=dataclasses.replace(
            base.data, val_samples=64, test_samples=64, augmentation=augmentation
        ),
    )


def report_doc(report):
    return {
        m: {"per_category": dict(report.values[m]), "mean": report.mean[m]}
        for m in report.metrics
    }


def golden_case(name):
    cfg = case_config(name)
    result = harness.run_experiment(cfg)
    floor = harness.discretization_floor(harness.generate_synthetic(cfg), result.dictionary)
    return {
        "test": report_doc(result.report),
        "val": report_doc(result.val_report),
        "floor_deg": floor,
    }


if __name__ == "__main__":
    doc = {"cases": {name: golden_case(name) for name in CASES}}
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
