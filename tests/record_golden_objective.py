"""Record the golden objective fixture that tests/test_objective_batch.py
checks objective_batch against.

The rows were recorded with the per-sample `losses.objective` of commit
8f764e4 (before the batched objective existed), so they pin the batched
code to the old reference.  To re-record, put that commit's src on the
path:

    PYTHONPATH=<checkout of 8f764e4>/src \
        python tests/record_golden_objective.py tests/golden_objective.json

Rows: INSTANCES gradcheck instances of each default spec, then hand-built
edge rows: axis-angle poses on or outside the pi ball (projection), a
near-antipodal key for the tangent-space and riemannian families (near-pi
log band) and tied top logits (argmax takes the lowest index).
"""

import json
import math
import sys

import numpy as np

from orientgeo import dictionary as dct
from orientgeo import gradcheck, losses

INSTANCES = 3


def _row(case, spec, prediction, target, dictionary):
    out = losses.objective(spec, prediction, target, dictionary)
    if isinstance(prediction, tuple):
        pred = {
            "logits": np.asarray(prediction[0], float).tolist(),
            "deltas": np.asarray(prediction[1], float).tolist(),
        }
    else:
        pred = np.asarray(prediction, float).tolist()
    return {
        "case": case,
        "family": spec.family,
        "representation": spec.representation,
        "alpha": spec.alpha,
        "keys": None if dictionary is None else dictionary.keys.tolist(),
        "prediction": pred,
        "y": None if target.y is None else np.asarray(target.y, float).tolist(),
        "label": target.label,
        "soft": None if target.soft is None else np.asarray(target.soft, float).tolist(),
        "value": out.value,
        "grads": {k: np.asarray(v, float).tolist() for k, v in out.grads.items()},
        "non_smooth": bool(out.non_smooth),
    }


def golden_rows():
    rows = []
    for i, spec in enumerate(gradcheck.default_specs()):
        rng = np.random.default_rng(7000 + i)
        for _ in range(INSTANCES):
            inst = gradcheck.random_instance(spec, rng)
            rows.append(_row("random", spec, inst.prediction, inst.target, inst.dictionary))

    S, T = losses.ObjectiveSpec, losses.Target

    def aa(keys):
        return dct.PoseDictionary(keys=np.asarray(keys, float), representation=dct.AXIS_ANGLE)

    # projection onto the pi ball: raw pose, composed key + delta, riemannian delta
    y0 = np.array([0.3, 0.2, -0.1])
    keys = aa([[2.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, -0.4]])
    t0 = T(y=y0, label=dct.hard_label(y0, keys))
    logits = np.array([3.0, 0.1, -0.2])
    per_bin = np.array([[1.5, 0.3, 0.0], [0.1, 3.0, 0.2], [0.0, 0.0, 0.1]])
    shared = np.array([1.5, 0.3, 0.0])
    rows += [
        _row("projection", S("R_G"), np.array([2.5, 2.5, 1.0]), T(y=y0), None),
        _row("projection", S("R_G"), np.array([math.pi, 0.0, 0.0]), T(y=y0), None),
        _row("projection", S("M_G"), (logits, shared), t0, keys),
        _row("projection", S("M_P"), (np.array([0.3, 0.1, -0.2]), shared), t0, keys),
        _row("projection", S("M_R"), (np.array([0.0, 2.0, -0.2]), np.array([0.0, 3.5, 0.1])), t0,
             keys),
        _row("projection", S("M_Gp"), (logits, per_bin), t0, keys),
    ]

    # near-antipodal key: the tangent target falls in the near-pi log band
    near = aa([[math.pi - 1e-8, 0.0, 0.0], [0.0, 0.3, 0.0]])
    t1 = T(y=np.zeros(3), label=1)
    first = np.array([5.0, 0.0])
    rows += [
        _row("near_pi", S("M_LE"), (first, np.zeros(3)), t1, near),
        _row("near_pi", S("M_LEp"), (first, np.array([[0.1, 0.0, 0.05], [0.0, 0.2, 0.0]])), t1,
             near),
        _row("near_pi", S("M_R"), (first, np.array([0.3, 0.0, 0.0])), t1, near),
        _row("near_pi", S("M_Rp"), (first, np.array([[0.3, 0.0, 0.0], [0.0, 0.1, 0.0]])), t1,
             near),
    ]

    # tied logits: argmax takes the lowest index
    rng = np.random.default_rng(99)
    quaternion_g = S("M_G", representation=dct.QUATERNION)
    for spec in (S("M_G"), S("M_Gp"), S("M_LE"), S("M_X"), quaternion_g, S("M_Sp")):
        inst = gradcheck.random_instance(spec, rng)
        logits, deltas = inst.prediction
        logits = np.array(logits)
        logits[2] = logits[5] = logits.max() + 1.0
        rows.append(_row("tie", spec, (logits, deltas), inst.target, inst.dictionary))
    return rows


def main(path):
    rows = golden_rows()
    with open(path, "w", encoding="utf-8") as fh:
        source = "per-sample losses.objective before objective_batch"
        json.dump({"source": source, "rows": rows}, fh)
        fh.write("\n")
    print(len(rows), "rows")


if __name__ == "__main__":
    main(sys.argv[1])
