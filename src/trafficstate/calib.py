"""Correction of skewed image coordinates into geodetic world coordinates.

The camera looks at the road at an angle, so pixel axes are a skewed,
scaled version of the ground plane. The transform is affine: a per-axis
magnification (phi along X, omega along Y), a skew angle delta between
the skewed axis and the geodetic X axis, and a reference-point offset
(x0, y0) in a projected coordinate system (meters).

The sine and cotangent of delta come from scipy's degree-native
`sindg`/`cosdg`, which keep the 90-degree (no-skew) case exact. They are
computed once per angle in `_sin_cot`, which also imports `scipy.special`
on first use, so importing this module (as `eval` and the config path
do) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ValidationError


@dataclass(frozen=True)
class CalibrationParams:
    """Five-parameter image-to-world calibration.

    phi, omega : magnification factors along X and Y (> 0)
    delta_deg  : angle of the skewed axis with the X axis, degrees, in (0, 180)
    x0, y0     : geodetic coordinates of the reference point, meters
    """

    phi: float
    omega: float
    delta_deg: float
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        if not self.phi > 0:
            raise ValidationError(f"phi must be > 0, got {self.phi}")
        if not self.omega > 0:
            raise ValidationError(f"omega must be > 0, got {self.omega}")
        if not 0.0 < self.delta_deg < 180.0:
            raise ValidationError(
                f"delta_deg must lie strictly between 0 and 180, got {self.delta_deg}"
            )


@dataclass(frozen=True)
class ReferenceObject:
    """An object of known ground size used to derive the magnifications.

    True lengths are meters along the geodetic axes; apparent lengths are
    pixels along the skewed image axes.
    """

    true_x_m: float
    true_y_m: float
    apparent_x_px: float
    apparent_y_px: float

    def __post_init__(self):
        for name in ("true_x_m", "true_y_m", "apparent_x_px", "apparent_y_px"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be > 0, got {getattr(self, name)}")


def derive_magnification(ref: ReferenceObject) -> tuple[float, float]:
    """Magnification factors (phi, omega): apparent length over true length.

    Units are pixels per meter, the direction the world mapping divides
    by; a 20 px image of a 10 m object gives magnification 2.
    """
    return ref.apparent_x_px / ref.true_x_m, ref.apparent_y_px / ref.true_y_m


@lru_cache
def _sin_cot(delta_deg: float) -> tuple[float, float]:
    """(sin(delta), cot(delta)) of an angle in degrees."""
    from scipy.special import cosdg, sindg

    sin_d = float(sindg(delta_deg))
    return sin_d, float(cosdg(delta_deg)) / sin_d


def to_world(x, y, p: CalibrationParams):
    """Map a skewed image point (pixels) to world coordinates (meters).

    Y is scaled by sin(delta)/omega; X removes the skew-induced shear of y
    before dividing by the magnification. x and y may be floats or arrays;
    arrays map elementwise with a float's bits.
    """
    sin_d, cot = _sin_cot(p.delta_deg)
    wy = p.y0 + y * sin_d / p.omega
    wx = p.x0 + (x + p.phi * cot * y) / p.phi
    return wx, wy


def to_pixel(wx: float, wy: float, p: CalibrationParams) -> tuple[float, float]:
    """Exact inverse of to_world; the transform is affine and invertible."""
    sin_d, cot = _sin_cot(p.delta_deg)
    y = (wy - p.y0) * p.omega / sin_d
    x = (wx - p.x0) * p.phi - p.phi * cot * y
    return x, y
