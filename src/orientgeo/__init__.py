"""Geodesic orientation estimation on SO(3): rotation representations,
pose-dictionary objectives with hand-derived gradients, homography-based
pose jittering, detection-style pose metrics, and a synthetic experiment
harness."""

from . import dictionary, gradcheck, harness, jitter, losses, metrics, models, so3
from .dictionary import PoseDictionary, fit_kmeans
from .harness import (
    DataConfig,
    ExperimentConfig,
    OptimizerConfig,
    ablation_suite,
    generate_synthetic,
    run_experiment,
    run_trials,
    train,
)
from .losses import FAMILIES, ObjectiveSpec
from .metrics import MetricReport, detection_report, pose_report
from .so3 import EulerZXZ, Rotation, UnitQuaternion

__version__ = "0.1.0"

__all__ = [
    "DataConfig",
    "EulerZXZ",
    "ExperimentConfig",
    "FAMILIES",
    "MetricReport",
    "ObjectiveSpec",
    "OptimizerConfig",
    "PoseDictionary",
    "Rotation",
    "UnitQuaternion",
    "ablation_suite",
    "detection_report",
    "dictionary",
    "fit_kmeans",
    "generate_synthetic",
    "gradcheck",
    "harness",
    "jitter",
    "losses",
    "metrics",
    "models",
    "pose_report",
    "run_experiment",
    "run_trials",
    "so3",
    "train",
    "__version__",
]
