import math

import numpy as np
import pytest
from scipy.special import cosdg, sindg

from trafficstate.calib import (
    CalibrationParams,
    ReferenceObject,
    _sincosdg,
    derive_magnification,
    to_pixel,
    to_world,
)
from trafficstate.errors import ValidationError

from oracles import calib_to_pixel, calib_to_world


def test_derive_magnification_direct_ratio():
    ref = ReferenceObject(true_x_m=10, true_y_m=8, apparent_x_px=20, apparent_y_px=16)
    assert derive_magnification(ref) == (2.0, 2.0)


def test_derive_magnification_identity():
    ref = ReferenceObject(true_x_m=7, true_y_m=3, apparent_x_px=7, apparent_y_px=3)
    assert derive_magnification(ref) == (1.0, 1.0)


def test_derive_magnification_field_strip():
    # the documented workflow: an 88 ft ground strip is 26.8224 m
    strip_m = 88 * 0.3048
    ref = ReferenceObject(true_x_m=1.0, true_y_m=strip_m,
                          apparent_x_px=1.0, apparent_y_px=1476.0)
    _, omega = derive_magnification(ref)
    assert omega == pytest.approx(1476.0 / 26.8224)


def test_reference_object_rejects_nonpositive():
    with pytest.raises(ValidationError):
        ReferenceObject(true_x_m=0, true_y_m=1, apparent_x_px=1, apparent_y_px=1)


def test_to_world_identity():
    p = CalibrationParams(phi=1, omega=1, delta_deg=90)
    assert to_world(7, 3, p) == pytest.approx((7.0, 3.0))


def test_to_world_pure_y_scaling():
    p = CalibrationParams(phi=1, omega=2, delta_deg=90)
    _, wy = to_world(0, 10, p)
    assert wy == pytest.approx(5.0)


def test_to_world_45_degrees():
    p = CalibrationParams(phi=1, omega=1, delta_deg=45)
    wx, wy = to_world(0.0, math.sqrt(2), p)
    assert wx == pytest.approx(math.sqrt(2))
    assert wy == pytest.approx(1.0)


def test_params_validation():
    with pytest.raises(ValidationError):
        CalibrationParams(phi=0, omega=1, delta_deg=90)
    with pytest.raises(ValidationError):
        CalibrationParams(phi=1, omega=-1, delta_deg=90)
    with pytest.raises(ValidationError):
        CalibrationParams(phi=1, omega=1, delta_deg=0)
    with pytest.raises(ValidationError):
        CalibrationParams(phi=1, omega=1, delta_deg=180)
    for bad in (dict(phi=math.inf), dict(omega=math.nan), dict(x0=math.nan), dict(y0=-math.inf)):
        with pytest.raises(ValidationError):
            CalibrationParams(**{"phi": 1, "omega": 1, "delta_deg": 90, **bad})


def random_params(rng):
    return CalibrationParams(
        phi=float(rng.uniform(0.05, 20)),
        omega=float(rng.uniform(0.05, 20)),
        delta_deg=float(rng.uniform(5, 175)),
        x0=float(rng.uniform(-1e6, 1e6)),
        y0=float(rng.uniform(-1e6, 1e6)),
    )


def test_transform_is_affine():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        p = random_params(rng)
        origin = np.array(to_world(0.0, 0.0, p))
        a = rng.uniform(-500, 500, size=2)
        b = rng.uniform(-500, 500, size=2)
        alpha, beta = rng.uniform(-2, 2, size=2)
        combo = alpha * a + beta * b
        lhs = np.array(to_world(combo[0], combo[1], p)) - origin
        rhs = alpha * (np.array(to_world(a[0], a[1], p)) - origin) \
            + beta * (np.array(to_world(b[0], b[1], p)) - origin)
        scale = max(1.0, np.abs(lhs).max())
        assert np.allclose(lhs, rhs, atol=1e-9 * scale)


def test_axes_decouple_at_90_degrees():
    rng = np.random.default_rng(10)
    p = CalibrationParams(phi=2.5, omega=0.4, delta_deg=90, x0=10, y0=-20)
    for _ in range(100):
        x, y = rng.uniform(-500, 500, size=2)
        wx1, wy1 = to_world(x, y, p)
        wx2, _ = to_world(x, y + 123.0, p)
        _, wy2 = to_world(x - 321.0, y, p)
        assert wx1 == pytest.approx(wx2)
        assert wy1 == pytest.approx(wy2)


def test_reference_round_trip_at_90_degrees():
    ref = ReferenceObject(true_x_m=26.8224, true_y_m=26.8224,
                          apparent_x_px=880.0, apparent_y_px=660.0)
    phi, omega = derive_magnification(ref)
    p = CalibrationParams(phi=phi, omega=omega, delta_deg=90)
    x0, _ = to_world(0, 0, p)
    x1, _ = to_world(ref.apparent_x_px, 0, p)
    assert x1 - x0 == pytest.approx(ref.true_x_m, abs=1e-9)
    _, y0 = to_world(0, 0, p)
    _, y1 = to_world(0, ref.apparent_y_px, p)
    assert y1 - y0 == pytest.approx(ref.true_y_m, abs=1e-9)


def test_to_pixel_inverts_to_world():
    rng = np.random.default_rng(11)
    for _ in range(500):
        p = random_params(rng)
        x, y = rng.uniform(-2000, 2000, size=2)
        wx, wy = to_world(x, y, p)
        rx, ry = to_pixel(wx, wy, p)
        assert rx == pytest.approx(x, abs=1e-6)
        assert ry == pytest.approx(y, abs=1e-6)


@pytest.mark.parametrize("delta_deg", [1, 30, 45, 60, 89.999, 90, 120, 179.5])
@pytest.mark.parametrize("phi,omega,x0,y0", [
    (1.0, 1.0, 0.0, 0.0),
    (2.5, 0.4, 10.0, -20.0),
    (0.07, 13.0, -3.5e5, 6.1e5),
])
def test_transform_matches_per_call_trig_oracle(delta_deg, phi, omega, x0, y0):
    def bits(point):
        return np.asarray(point, dtype=np.float64).tobytes()

    p = CalibrationParams(phi=phi, omega=omega, delta_deg=delta_deg, x0=x0, y0=y0)
    args = (phi, omega, delta_deg, x0, y0)
    for x in np.linspace(-1500.0, 1500.0, 7):
        for y in np.linspace(-900.0, 900.0, 7):
            x, y = float(x), float(y)
            assert bits(to_world(x, y, p)) == bits(calib_to_world(x, y, *args))
            assert bits(to_pixel(x, y, p)) == bits(calib_to_pixel(x, y, *args))


def test_degree_trig_port_equals_cephes_bit_for_bit():
    # scipy.special is the oracle only: the engine's port must reproduce
    # sindg/cosdg exactly, sign of zero included
    angles = np.concatenate([
        np.arange(-720.0, 720.25, 0.25),      # every integer and quarter degree
        np.random.default_rng(7).uniform(0.0, 180.0, 10_000),
    ])
    port = np.array([_sincosdg(float(x)) for x in angles])
    assert port[:, 0].tobytes() == sindg(angles).tobytes()
    assert port[:, 1].tobytes() == cosdg(angles).tobytes()


@pytest.mark.parametrize("x, sin_x, cos_x", [
    (0.0, 0.0, 1.0), (-0.0, 0.0, 1.0), (90.0, 1.0, -0.0), (-90.0, -1.0, -0.0),
    (180.0, -0.0, -1.0), (-180.0, 0.0, -1.0), (270.0, -1.0, 0.0), (-360.0, -0.0, 1.0),
])
def test_degree_trig_port_keeps_the_sign_of_zero(x, sin_x, cos_x):
    def signed(values):
        return [(float(v), math.copysign(1.0, v)) for v in values]

    assert signed(_sincosdg(x)) == signed((sin_x, cos_x)) == signed((sindg(x), cosdg(x)))
