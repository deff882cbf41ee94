"""Run configuration: one sectioned key-value file drives the pipeline.

Sections: [calibration] (five parameters, or a reference object to derive
the magnifications), [loi] (pixel endpoints plus optional direction),
[tracking], [measure], [io]. Every default is explicit in
`default_config_text`, which `print-config` emits verbatim.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Optional

from .calib import CalibrationParams, ReferenceObject, derive_magnification
from .errors import ValidationError
from .tracker import TrackerConfig
from .traffic import LineOfInterest, loi_to_world

DEFAULT_CONFIG = """\
[calibration]
# direct parameters: magnifications, skew angle (degrees), reference point (m)
phi = 1.0
omega = 1.0
delta_deg = 90.0
x0 = 0.0
y0 = 0.0
# or derive phi/omega from a reference object of known ground size:
# ref_true_x_m = 26.8224
# ref_true_y_m = 26.8224
# ref_apparent_x_px = 880.0
# ref_apparent_y_px = 880.0

[loi]
# counting line endpoints, drawn in pixel coordinates on the frame
ax_px = 0.0
ay_px = 500.0
bx_px = 1920.0
by_px = 500.0
# +1 / -1 to count one crossing direction only; blank counts both
direction =

[tracking]
cost_lambda = 0.0
motion_gate = 9.4877
appearance_gate = 0.2
iou_gate = 0.7
max_age = 3
n_init = 3
gallery_capacity = 100
confidence_floor = 0.0

[measure]
interval_s = 60.0
fps = 25.0
# blank: derived from the last detection frame
duration_s =

[io]
tracks_name = tracks.txt
intervals_name = intervals.txt
"""


@dataclass
class RunConfig:
    calibration: CalibrationParams = CalibrationParams(1.0, 1.0, 90.0)
    loi_px: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 500.0), (1920.0, 500.0))
    loi_direction: Optional[int] = None
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    confidence_floor: float = 0.0
    interval_s: float = 60.0
    fps: float = 25.0
    duration_s: Optional[float] = None
    tracks_name: str = "tracks.txt"
    intervals_name: str = "intervals.txt"

    def __post_init__(self):
        if self.interval_s <= 0 or self.fps <= 0:
            raise ValidationError("interval_s and fps must be positive")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValidationError("duration_s must be positive when set")
        if not 0.0 <= self.confidence_floor <= 1.0:
            raise ValidationError("confidence_floor must be in [0, 1]")

    def loi_world(self) -> LineOfInterest:
        return loi_to_world(self.loi_px, self.loi_direction, self.calibration)


def _calibration_from(section, default: CalibrationParams) -> CalibrationParams:
    ref_keys = ("ref_true_x_m", "ref_true_y_m",
                "ref_apparent_x_px", "ref_apparent_y_px")
    has_ref = [k for k in ref_keys if section.get(k, "").strip()]
    if has_ref:
        if len(has_ref) != 4:
            raise ValidationError(
                "reference-object calibration needs all four ref_* keys"
            )
        ref = ReferenceObject(
            true_x_m=section.getfloat("ref_true_x_m"),
            true_y_m=section.getfloat("ref_true_y_m"),
            apparent_x_px=section.getfloat("ref_apparent_x_px"),
            apparent_y_px=section.getfloat("ref_apparent_y_px"),
        )
        phi, omega = derive_magnification(ref)
    else:
        phi = section.getfloat("phi", default.phi)
        omega = section.getfloat("omega", default.omega)
    return CalibrationParams(
        phi=phi, omega=omega,
        delta_deg=section.getfloat("delta_deg", default.delta_deg),
        x0=section.getfloat("x0", default.x0), y0=section.getfloat("y0", default.y0),
    )


def parse_config(text: str) -> RunConfig:
    """Run configuration from config text; absent keys keep RunConfig's defaults."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"bad config file: {exc}") from None

    try:
        cfg = RunConfig()
        if "calibration" in cp:
            cfg.calibration = _calibration_from(cp["calibration"], cfg.calibration)
        if "loi" in cp:
            lo, ((ax, ay), (bx, by)) = cp["loi"], cfg.loi_px
            cfg.loi_px = ((lo.getfloat("ax_px", ax), lo.getfloat("ay_px", ay)),
                          (lo.getfloat("bx_px", bx), lo.getfloat("by_px", by)))
            raw = lo.get("direction", "").strip()
            cfg.loi_direction = int(raw) if raw else None
        if "tracking" in cp:
            tr, d = cp["tracking"], cfg.tracker
            cfg.tracker = TrackerConfig(
                cost_lambda=tr.getfloat("cost_lambda", d.cost_lambda),
                motion_gate=tr.getfloat("motion_gate", d.motion_gate),
                appearance_gate=tr.getfloat("appearance_gate", d.appearance_gate),
                iou_gate=tr.getfloat("iou_gate", d.iou_gate),
                max_age=tr.getint("max_age", d.max_age),
                n_init=tr.getint("n_init", d.n_init),
                gallery_capacity=tr.getint("gallery_capacity", d.gallery_capacity),
            )
            cfg.confidence_floor = tr.getfloat("confidence_floor", cfg.confidence_floor)
        if "measure" in cp:
            me = cp["measure"]
            cfg.interval_s = me.getfloat("interval_s", cfg.interval_s)
            cfg.fps = me.getfloat("fps", cfg.fps)
            raw = me.get("duration_s", "").strip()
            cfg.duration_s = float(raw) if raw else None
        if "io" in cp:
            io_sec = cp["io"]
            cfg.tracks_name = io_sec.get("tracks_name", cfg.tracks_name)
            cfg.intervals_name = io_sec.get("intervals_name", cfg.intervals_name)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"bad config value: {exc}") from None
    # re-run invariant checks after field assignment
    cfg.__post_init__()
    return cfg


def default_config_text() -> str:
    return DEFAULT_CONFIG
