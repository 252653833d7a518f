"""One rule for scalar inputs: every library entry point that takes a count
or a real number refuses, with a ValueError that names the parameter, a
value the rule refuses.  A count is an integer (not a bool or a float); a
real is a finite number (not a bool, a string, NaN or an infinity).

The cases below are the inputs these entry points used to accept, or to
refuse only with an error from deeper down.  Counts and reals that the
configs, ObjectiveSpec, JitterSpec and gradcheck.check_family already
refused are pinned in test_harness.py, test_jitter.py and test_losses.py.
"""

import ast
import math
import pathlib
import re

import numpy as np
import pytest

from orientgeo import dictionary as dct
from orientgeo import jitter, metrics, models, so3

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "orientgeo"

TARGETS = np.random.default_rng(0).normal(size=(20, 3))
KEYS = np.eye(3)
K = np.array([[800.0, 0.0, 320.0], [0.0, 800.0, 240.0], [0.0, 0.0, 1.0]])


def _intrinsics(value):
    k = K.astype(object)
    k[0, 0] = value
    return k


# entry point -> (parameter, call on one value)
COUNTS = {
    "fit_kmeans": ("k", lambda v: dct.fit_kmeans(TARGETS, v, 0)),
    "cuboid_points": ("per_edge", lambda v: jitter.cuboid_points(per_edge=v)),
    "sphere_points": ("n", lambda v: jitter.sphere_points(n=v)),
    "init_pose_network": ("sizes", lambda v: models.init_pose_network([3, v], 0)),
    "fit_kmeans-seed": ("seed", lambda v: dct.fit_kmeans(TARGETS, 3, v)),
    "init_pose_network-seed": ("seed", lambda v: models.init_pose_network([3, 2], v)),
}
SEEDS = ["fit_kmeans-seed", "init_pose_network-seed"]
REALS = {
    "soft_assign_probs": ("gamma", lambda v: dct.soft_assign_probs(np.zeros(3), KEYS, v)),
    "soft_assign_probs-per-row": (
        "gamma", lambda v: dct.soft_assign_probs(np.zeros((2, 3)), KEYS, [1.0, v])),
    "cuboid_points": ("half_extents", lambda v: jitter.cuboid_points(half_extents=(v, 0.4, 0.3))),
    "sphere_points": ("radius", lambda v: jitter.sphere_points(radius=v)),
    "default_camera": ("focal", lambda v: jitter.default_camera(focal=v)),
    "Camera-intrinsics": ("intrinsics", lambda v: jitter.Camera(intrinsics=_intrinsics(v))),
    "Camera-translation": ("translation",
                           lambda v: jitter.Camera(intrinsics=K, translation=(0.0, 0.0, v))),
    "EulerZXZ-azimuth": ("azimuth", lambda v: so3.EulerZXZ(v, 0.0, 0.0)),
    "EulerZXZ-elevation": ("elevation", lambda v: so3.EulerZXZ(0.0, v, 0.0)),
    "EulerZXZ-tilt": ("tilt", lambda v: so3.EulerZXZ(0.0, 0.0, v)),
}
# values a count or real refuses, except those an entry point refused
# before with a ValueError of its own
BAD_COUNTS = {True: list(COUNTS), 4.5: ["cuboid_points", "sphere_points", "init_pose_network"],
              0: ["init_pose_network"], 2.5: SEEDS, -1: SEEDS}
BAD_REALS = {
    "1.0": list(REALS),
    True: list(REALS),
    math.nan: [e for e in REALS if not e.startswith("EulerZXZ")],
    math.inf: [e for e in REALS if not e.startswith("EulerZXZ")],
    -math.inf: ["cuboid_points", "sphere_points", "Camera-intrinsics", "Camera-translation"],
}
CASES = ([(e, *COUNTS[e], v) for v, es in BAD_COUNTS.items() for e in es]
         + [(e, *REALS[e], v) for v, es in BAD_REALS.items() for e in es])


@pytest.mark.parametrize("entry, name, call, value", CASES,
                         ids=[f"{e}-{v!r}" for e, _, _, v in CASES])
def test_entry_points_refuse_what_the_rule_refuses_naming_the_parameter(entry, name, call, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)}\b"):
        call(value)


@pytest.mark.parametrize("make", [
    lambda: dct.fit_kmeans(TARGETS, np.int64(3), 0),
    lambda: jitter.sphere_points(n=np.int32(8), radius=np.float32(0.5)),
    lambda: jitter.cuboid_points(half_extents=(1, 0.4, np.float64(0.3)), per_edge=np.uint8(2)),
    lambda: jitter.Camera(intrinsics=K.astype(int), translation=[0, 0, 4]),
    lambda: dct.soft_assign_probs(np.zeros((2, 3)), KEYS, np.array([1, 2])),
    lambda: models.init_pose_network([np.int64(3), 2], np.uint32(0)),
    lambda: so3.EulerZXZ(np.float32(0.1), 1, np.int64(0)),
    lambda: metrics.Detection("c", (np.float64(0.0), 0, np.int64(10), 10.0), np.float32(0.5),
                              so3.Rotation.identity()),
], ids=["fit_kmeans", "sphere_points", "cuboid_points", "Camera", "soft_assign_probs",
        "init_pose_network", "EulerZXZ", "Detection"])
def test_numpy_and_integer_numbers_pass(make):
    make()


def _imported_modules(path):
    """The orientgeo modules a source file imports, by their short names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("orientgeo")):
            module = (node.module or "").removeprefix("orientgeo").lstrip(".")
            names |= {module} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name.removeprefix("orientgeo.") for a in node.names}
    return names


def test_only_the_command_line_and_the_package_import_the_harness():
    # the harness is the top layer: library modules must not borrow from it
    importers = sorted(p.name for p in SRC.glob("*.py") if "harness" in _imported_modules(p))
    assert importers == ["__init__.py", "cli.py"]
