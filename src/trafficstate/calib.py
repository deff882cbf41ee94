"""Correction of skewed image coordinates into geodetic world coordinates.

The camera looks at the road at an angle, so pixel axes are a skewed,
scaled version of the ground plane. The transform is affine: a per-axis
magnification (phi along X, omega along Y), a skew angle delta between
the skewed axis and the geodetic X axis, and a reference-point offset
(x0, y0) in a projected coordinate system (meters).

The sine and cotangent of delta come from `_sincosdg`, a port of cephes'
degree-native `sindg`/`cosdg` (the code behind `scipy.special.sindg` and
`cosdg`, whose values it reproduces bit for bit). Degree-native trig
reduces the angle in exact degrees, in octants of 45, before converting
to radians, so 90 degrees (no skew) gives a cotangent of exactly zero,
where `math.cos(math.radians(90))` is 6.1e-17, the rounding of pi/2. The
pair is computed once per angle in `_sin_cot`, and no scipy is loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import positive, require


@dataclass(frozen=True)
class CalibrationParams:
    """Five-parameter image-to-world calibration.

    phi, omega : magnification factors along X and Y (finite, > 0)
    delta_deg  : angle of the skewed axis with the X axis, degrees, in (0, 180)
    x0, y0     : geodetic coordinates of the reference point, meters (finite)
    """

    phi: float
    omega: float
    delta_deg: float
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        require(self, "phi omega", positive, "finite and > 0")
        require(self, "x0 y0", math.isfinite, "finite")
        require(self, "delta_deg", lambda v: 0.0 < v < 180.0, "strictly between 0 and 180")


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
        require(self, "true_x_m true_y_m apparent_x_px apparent_y_px", lambda v: v > 0, "> 0")


def derive_magnification(ref: ReferenceObject) -> tuple[float, float]:
    """Magnification factors (phi, omega): apparent length over true length.

    Units are pixels per meter, the direction the world mapping divides
    by; a 20 px image of a 10 m object gives magnification 2.
    """
    return ref.apparent_x_px / ref.true_x_m, ref.apparent_y_px / ref.true_y_m


# cephes sindg.c: polynomial coefficients of sin(z) and cos(z) for |z| <= pi/4
_SIN_COEF = (1.58962301572218447952E-10, -2.50507477628503540135E-8,
             2.75573136213856773549E-6, -1.98412698295895384658E-4,
             8.33333333332211858862E-3, -1.66666666666666307295E-1)
_COS_COEF = (1.13678171382044553091E-11, -2.08758833757683644217E-9,
             2.75573155429816611547E-7, -2.48015872936186303776E-5,
             1.38888888888806666760E-3, -4.16666666666666348141E-2,
             4.99999999999999999798E-1)
_PI180 = 1.74532925199432957692E-2   # pi / 180


def _polevl(x: float, coef) -> float:
    """Horner's rule from the highest coefficient down, as cephes `polevl`."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _sincosdg(x: float) -> tuple[float, float]:
    """(sindg(x), cosdg(x)) of a finite angle in degrees, as cephes computes them.

    The angle is reduced to octants of 45 degrees: odd octants round up to
    the next multiple of 90, so z = x - 45 y lies in [-45, 45] degrees, and
    the octant picks polynomial and sign.
    """
    negative = x < 0
    if negative:
        x = -x
    y = float(math.floor(x / 45.0))
    # y mod 16, computed on the float as cephes does
    j = int(y - math.ldexp(math.floor(math.ldexp(y, -4)), 4))
    if j & 1:
        j += 1
        y += 1.0
    j &= 7
    flip = j > 3
    if flip:
        j -= 4
    z = (x - y * 45.0) * _PI180
    zz = z * z
    sin_z = z + z * (zz * _polevl(zz, _SIN_COEF))
    cos_z = 1.0 - zz * _polevl(zz, _COS_COEF)
    if j in (1, 2):
        sin_z, cos_z = cos_z, sin_z
    sin_x = -sin_z if negative != flip else sin_z
    cos_x = -cos_z if flip != (j > 1) else cos_z
    return sin_x, cos_x


@lru_cache
def _sin_cot(delta_deg: float) -> tuple[float, float]:
    """(sin(delta), cot(delta)) of an angle in degrees."""
    sin_d, cos_d = _sincosdg(delta_deg)
    return sin_d, cos_d / sin_d


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
