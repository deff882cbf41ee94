"""Multi-object tracking and traffic-state measurement from detections.

The pipeline: parse per-frame detections (`detstream`), track them through
occlusion with a Kalman filter plus gated assignment (`motion`, `assoc`,
`tracker`), map pixel trajectories to world coordinates (`calib`), and
measure classified flow and speed over a counting line (`traffic`).
`metrics` evaluates detection quality and measurement agreement; `synth`
builds synthetic scenes with exact ground truth.

Past its first chunk of lines, `detstream.parse_detections` parses a
stream whose rows carry appearance descriptors in a forked reader
process, one chunk ahead of the tracker; a stream without them is parsed
in-process.
Importing the package sets OPENBLAS_NUM_THREADS to 1 unless it is set
already; this takes effect only when the package is imported before
numpy. The package's largest BLAS call is a 100 x 64 product, so a BLAS
worker thread only adds CPU (its spin at numpy's import), and the
process forks with one thread.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .assoc import (
    CostMatrix,
    appearance_distances,
    build_cost_matrix,
    iou_matrix,
    motion_distances,
    solve_assignment,
)
from .calib import CalibrationParams, ReferenceObject, derive_magnification, to_pixel, to_world
from .config import RunConfig, parse_config
from .detstream import (
    ClassCatalog,
    Detection,
    DetectionBatch,
    normalize_appearance,
    parse_detections,
)
from .errors import ContractError, NumericalError, ParseError, ValidationError
from .metrics import (
    EvalReport,
    average_precision,
    evaluate_detections,
    f1,
    match_to_ground_truth,
    mean_ap,
    paired_t_test,
    pearson,
    precision,
    recall,
    rmse,
)
from .motion import KalmanFilter
from .tracker import LiveTracks, Tracker, TrackerConfig
from .traffic import (
    IntervalMeasurement,
    LineOfInterest,
    Trajectory,
    assemble_trajectories,
    measure_intervals,
)

__version__ = "0.1.0"

_SYNTH_NAMES = ("AgentSpec", "GroundTruth", "ScenarioSpec", "generate")


def __getattr__(name):
    # synth builds test scenes; loading it on first use keeps it out of the
    # import of every pipeline module
    if name in _SYNTH_NAMES:
        from . import synth
        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
