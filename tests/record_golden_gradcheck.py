"""Record the golden gradcheck fixture that tests/test_rows.py checks
gradcheck.run_all against.

The reports were recorded with commit b86533f, which drew every instance
through one-candidate smoothness tests and checked each instance with its
own objective_batch call.  They pin the stacked checks and the stacked
sampler to that reference.  To re-record, put that commit's src on the
path:

    PYTHONPATH=<checkout of b86533f>/src \
        python tests/record_golden_gradcheck.py tests/golden_gradcheck.json

Each seed holds one entry per default spec, in default_specs() order: the
family, the representation, the repr of max_rel_error and passed, under
run_all(instances=INSTANCES).
"""

import json
import sys

from orientgeo import gradcheck

INSTANCES = 100
SEEDS = (0, 202)


def report_cells(reports):
    return [
        {
            "family": r.family,
            "representation": r.representation,
            "instances": r.instances,
            "max_rel_error": repr(r.max_rel_error),
            "passed": r.passed,
        }
        for r in reports
    ]


def golden_doc():
    return {
        "instances": INSTANCES,
        "seeds": {
            str(seed): report_cells(gradcheck.run_all(instances=INSTANCES, seed=seed))
            for seed in SEEDS
        },
    }


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(golden_doc(), fh, indent=1, sort_keys=True)
        fh.write("\n")
