"""Multi-object tracking and traffic-state measurement from detections.

The pipeline: parse per-frame detections (`detstream`), track them through
occlusion with a Kalman filter plus gated assignment (`motion`, `assoc`,
`tracker`), map pixel trajectories to world coordinates (`calib`), and
measure classified flow and speed over a counting line (`traffic`).
`metrics` evaluates detection quality and measurement agreement; `synth`
builds synthetic scenes with exact ground truth.

Importing the package sets OPENBLAS_NUM_THREADS to 1 unless it is set
already; this takes effect only when the package is imported before
numpy. The package's largest BLAS call is a 100 x 64 product, so a BLAS
worker thread only adds CPU (its spin at numpy's import).
"""

import os
from importlib import import_module

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# The public names, by the module that defines them. Each module loads on
# the first use of one of its names, so a command loads only its own layers:
# `eval`, for one, loads no tracker, motion or traffic code.
_EXPORTS = {
    "assoc": ("CostMatrix", "appearance_distances", "build_cost_matrix", "iou_matrix",
              "motion_distances", "solve_assignment"),
    "calib": ("CalibrationParams", "ReferenceObject", "derive_magnification", "to_pixel",
              "to_world"),
    "config": ("RunConfig", "parse_config"),
    "detstream": ("ClassCatalog", "Detection", "DetectionBatch", "normalize_appearance",
                  "parse_detections"),
    "errors": ("ContractError", "NumericalError", "ParseError", "ValidationError"),
    "metrics": ("EvalReport", "average_precision", "evaluate_detections", "f1",
                "match_to_ground_truth", "mean_ap", "paired_t_test", "pearson", "precision",
                "recall", "rmse"),
    "motion": ("KalmanFilter",),
    "synth": ("AgentSpec", "GroundTruth", "ScenarioSpec", "generate"),
    "tracker": ("LiveTracks", "Tracker", "TrackerConfig"),
    "traffic": ("IntervalRow", "LineOfInterest", "Trajectory", "assemble_trajectories",
                "measure_intervals"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value   # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
