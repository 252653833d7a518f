"""Record the golden training fixture that tests/test_harness.py checks
harness.train against.

The weights were recorded with commit f9039c0, which trained one network
per category and role and one network per dictionary key for the per-bin
heads, each with its own Adam state.  They pin the stacked training step
to that reference.  To re-record, put that commit's src on the path:

    PYTHONPATH=<checkout of f9039c0>/src \
        python tests/record_golden_training.py tests/golden_training.json

Cases: R_G with jittered copies, C, M_G (one warm-start epoch on M_S),
and the per-bin M_Gp and M_XPp.
"""

import json
import sys

from orientgeo import harness, losses

CASES = {
    "R_G-jittered": ("R_G", "jittered"),
    "C": ("C", "none"),
    "M_G": ("M_G", "none"),
    "M_Gp": ("M_Gp", "none"),
    "M_XPp": ("M_XPp", "none"),
}


def case_config(name):
    family, augmentation = CASES[name]
    return harness.ExperimentConfig(
        objective=losses.ObjectiveSpec(family),
        dictionary_size=8,
        hidden=(8, 4),
        optimizer=harness.OptimizerConfig(learning_rate=1e-3, epochs=2),
        data=harness.DataConfig(
            categories=2, train_samples=40, val_samples=8, test_samples=8,
            feature_dim=16, noise=0.01, augmentation=augmentation,
        ),
    )


def network_weights(nets, categories):
    """{category: {network name: [(weight, bias) per layer]}} read from the
    role stacks train returns, with the per-bin heads named as their
    checkpoint files name them."""
    out = {}
    for c, cat in enumerate(categories):
        out[cat] = {}
        for role, net in nets.items():
            if role == "deltas":  # stacked per-bin heads (G, K, out, in)
                for k in range(net.layers[0].weight.shape[1]):
                    out[cat][f"delta_head_{k:03d}"] = [(l.weight[c, k], l.bias[c, k])
                                                       for l in net.layers]
            else:
                out[cat][role] = [(l.weight[c], l.bias[c]) for l in net.layers]
    return out


def golden_case(name):
    cfg = case_config(name)
    dataset = harness.generate_synthetic(cfg)
    nets, _, log = harness.train(cfg, dataset)
    weights = {
        cat: {
            net: [{"weight": w.tolist(), "bias": b.tolist()} for w, b in layers]
            for net, layers in per_cat.items()
        }
        for cat, per_cat in network_weights(nets, dataset.categories).items()
    }
    return {"log": list(log.lines), "weights": weights}


if __name__ == "__main__":
    doc = {"cases": {name: golden_case(name) for name in CASES}}
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
