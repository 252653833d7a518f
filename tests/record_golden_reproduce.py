"""Record the golden tables that tests/test_cli.py checks
`scripts/reproduce.py --small` against.

The tables were recorded with commit d2a4574, which printed them through
three scripts: run_regression_benchmark.py, run_bin_delta_suite.py and
run_ablations.py, each run with --small at its defaults.  They pin
reproduce.py's numbers to those scripts.  To re-record, pass a checkout of
that commit:

    python tests/record_golden_reproduce.py <checkout of d2a4574> \
        tests/golden_reproduce.txt

The file holds the three outputs in that order, one empty line between
tables.
"""

import os
import subprocess
import sys

SCRIPTS = ("run_regression_benchmark", "run_bin_delta_suite", "run_ablations")


def golden_text(checkout):
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    return "\n".join(
        subprocess.run([sys.executable, os.path.join(checkout, "scripts", f"{name}.py"), "--small"],
                       env=env, check=True, capture_output=True, text=True).stdout
        for name in SCRIPTS)


if __name__ == "__main__":
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        fh.write(golden_text(sys.argv[1]))
