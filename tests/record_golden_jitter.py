"""Record the golden jitter fixture that tests/test_jitter.py checks the
`orient-geo jitter` manifests against.

The values were recorded with commit 636fbfd, which built each grid cell's
pose from its own Euler triple and fitted each warp with its own DLT.  They
pin the manifest bytes of the stacked grid to that reference.  To
re-record, put that commit's src on the path:

    PYTHONPATH=<checkout of 636fbfd>/src:tests \
        python tests/record_golden_jitter.py tests/golden_jitter.json

Three cases: both shapes over the default spec, and a cuboid over a grid
of tilt cells only, whose last tilts cross +-180 degrees.  The fixture
keeps the SHA-256 of each manifest and its cell count.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from orientgeo import cli

# name -> (shape, JSON spec or None for the defaults)
CASES = {
    "cuboid_default": ("cuboid", None),
    "sphere_default": ("sphere", None),
    "cuboid_tilt_wrap": (
        "cuboid",
        {"d_az": [0.0], "d_el": [0.0], "d_ct": [-3.0, 0.0, 3.0, 4.5],
         "flip": True, "euler_deg": [-30.0, 60.0, 177.5]},
    ),
}


def manifest_bytes(shape, spec, tmp):
    """(manifest bytes, printed cell count) of one `orient-geo jitter` run
    whose files go to the directory tmp."""
    manifest = os.path.join(tmp, f"{shape}.txt")
    argv = ["jitter", "--manifest", manifest, "--shape", shape]
    if spec is not None:
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        argv += ["--spec", spec_path]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"jitter exited {rc}")
    with open(manifest, "rb") as fh:
        return fh.read(), int(out.getvalue().split()[1])


def golden_doc():
    doc = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (shape, spec) in CASES.items():
            data, cells = manifest_bytes(shape, spec, tmp)
            doc[name] = {"cells": cells, "sha256": hashlib.sha256(data).hexdigest()}
    return doc


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(golden_doc(), fh, indent=1, sort_keys=True)
        fh.write("\n")
