"""Multi-object tracking and traffic-state measurement from detections.

The pipeline: parse per-frame detections (`detstream`), track them through
occlusion with a Kalman filter plus gated assignment (`motion`, `assoc`,
`tracker`), map pixel trajectories to world coordinates (`calib`), and
measure classified flow and speed over a counting line (`traffic`).
`metrics` evaluates detection quality and measurement agreement; `synth`
builds synthetic scenes with exact ground truth.
"""

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
    segment_crosses,
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
