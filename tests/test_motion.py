import numpy as np
import pytest

from trafficstate.errors import NumericalError, ValidationError
from trafficstate.motion import KalmanFilter, bbox_from_state, measurement_from_bbox

from oracles import kalman_predict, kalman_project, kalman_update, simulate_constant_velocity

# near-zero measurement noise: the right setting for noiseless streams
EXACT_KF = dict(pos_weight=1e-6)


def random_state(rng):
    mean = np.empty(8)
    mean[:2] = rng.normal(scale=300.0, size=2)      # center position, px
    mean[2] = rng.uniform(0.2, 3.0)                 # aspect ratio
    mean[3] = rng.uniform(10.0, 200.0)              # box height, px
    mean[4:6] = rng.normal(scale=4.0, size=2)       # px/frame
    mean[6] = rng.normal(scale=0.01)
    mean[7] = rng.normal(scale=2.0)
    a = rng.normal(size=(8, 8))
    cov = a @ a.T + 1e-3 * np.eye(8)
    return mean, cov


def random_states(rng, n):
    """n random states stacked as (n, 8) means and (n, 8, 8) covariances."""
    states = [random_state(rng) for _ in range(n)]
    return np.stack([m for m, _ in states]), np.stack([c for _, c in states])


def one(mean, cov):
    """One track's state as a batch of one."""
    return np.asarray(mean, float)[None], np.asarray(cov, float)[None]


def update(kf, means, covs, measurements):
    """update_many with the states' own projection."""
    return kf.update_many(means, covs, measurements, *kf.project_many(means, covs))


def test_initiate_center_aspect():
    kf = KalmanFilter()
    mean, _ = kf.initiate((0, 0, 50, 100))
    assert np.allclose(mean, [25, 50, 0.5, 100, 0, 0, 0, 0])


def test_initiate_square_box():
    mean, _ = KalmanFilter().initiate((10, 10, 100, 100))
    assert mean[2] == 1.0


def test_initiate_covariance_psd_diagonal():
    _, cov = KalmanFilter().initiate((5, -3, 17, 23))
    assert np.array_equal(cov, np.diag(np.diag(cov)))
    assert np.all(np.linalg.eigvalsh(cov) > 0)


def test_initiate_rejects_bad_box():
    with pytest.raises(ValidationError):
        KalmanFilter().initiate((0, 0, 0, 10))


def test_predict_moves_position_by_velocity():
    kf = KalmanFilter()
    means, _ = kf.predict_many(*one([10.0, 10, 1, 100, 2, 3, 0, 0], np.eye(8)))
    assert np.allclose(means[0, :4], [12, 13, 1, 100])
    assert np.allclose(means[0, 4:], [2, 3, 0, 0])


def test_predict_zero_velocity_fixed_point():
    kf = KalmanFilter()
    mean = np.array([10.0, 20, 0.5, 40, 0, 0, 0, 0])
    means, _ = kf.predict_many(*one(mean, np.eye(8)))
    assert np.allclose(means[0, :4], mean[:4])


def test_predict_increases_covariance_trace():
    kf = KalmanFilter()
    rng = np.random.default_rng(3)
    means, covs = random_states(rng, 20)
    means[:, 4:] = 0  # keep F neutral on positions, isolate additive Q
    _, out = kf.predict_many(means, covs)
    assert np.all(np.trace(out, axis1=1, axis2=2) > np.trace(covs, axis1=1, axis2=2))


def test_project_selects_position_block():
    kf = KalmanFilter()
    mean = np.array([1.0, 2, 0.5, 50, 9, 9, 9, 9])
    y, _, _ = kf.project_many(*one(mean, np.eye(8)))
    assert np.array_equal(y[0], mean[:4])


def test_project_adds_measurement_noise_to_identity_cov():
    kf = KalmanFilter()
    _, s, ok = kf.project_many(*one([0.0, 0, 1, 40, 0, 0, 0, 0], np.eye(8)))
    std = np.array([40 / 20, 40 / 20, 1e-1, 40 / 20])
    assert ok[0]
    assert np.allclose(s[0], np.eye(4) + np.diag(std * std))


def test_project_s_minus_r_psd():
    kf = KalmanFilter()
    rng = np.random.default_rng(4)
    means, covs = random_states(rng, 50)
    _, s, _ = kf.project_many(means, covs)
    for h, s_i in zip(means[:, 3], s):
        std = np.array([h / 20, h / 20, 1e-1, h / 20])
        diff = s_i - np.diag(std * std)
        assert np.min(np.linalg.eigvalsh(diff)) >= -1e-9


def test_project_rejects_ill_conditioned():
    kf = KalmanFilter(pos_weight=1e-12)
    cov = np.zeros((8, 8))
    cov[0, 0] = 1e14  # condition vastly above the guard with tiny R elsewhere
    means, covs = one([0.0, 0, 1, 1e-3, 0, 0, 0, 0], cov)
    y, s, ok = kf.project_many(means, covs)
    assert not ok[0]
    with pytest.raises(NumericalError):
        kf.update_many(means, covs, np.zeros((1, 4)), y, s, ok)


def test_update_zero_innovation_keeps_positional_mean():
    kf = KalmanFilter()
    rng = np.random.default_rng(5)
    means, covs = kf.predict_many(*random_states(rng, 1000))
    y, s, ok = kf.project_many(means, covs)
    out, _ = kf.update_many(means, covs, y, y, s, ok)
    assert np.allclose(out[:, :4], means[:, :4], atol=1e-9)


def test_update_r_to_zero_limit_matches_measurement():
    kf = KalmanFilter(pos_weight=1e-12, aspect_meas_std=1e-12)
    start = KalmanFilter().initiate((0, 0, 50, 100))
    z = np.array([30.0, 55.0, 0.6, 110.0])
    out, _ = update(kf, *one(*start), z[None])
    assert np.allclose(out[0, :4], z, atol=1e-6)


def test_update_convergence_noiseless_constant_velocity():
    kf = KalmanFilter(**EXACT_KF)
    hist = simulate_constant_velocity(
        kf, h=80.0, pos0=np.array([100.0, 200.0]), vel=np.array([3.0, -2.0]), steps=10
    )
    assert hist[-1][1] < 1e-6


def test_update_clamps_aspect_and_height():
    kf = KalmanFilter(pos_weight=1e-12)
    start = KalmanFilter().initiate((0, 0, 50, 100))
    out, _ = update(kf, *one(*start), np.array([[0.0, 0.0, -5.0, -5.0]]))
    assert out[0, 2] >= 1e-6 and out[0, 3] >= 1e-6


def test_predict_update_preserve_symmetry_and_psd():
    kf = KalmanFilter()
    rng = np.random.default_rng(6)
    means, covs = random_states(rng, 200)
    means, covs = kf.predict_many(means, covs)
    zs = means[:, :4] + rng.normal(scale=5.0, size=(200, 4))
    _, upd = update(kf, means, covs, zs)
    for cov in (covs, upd):
        assert np.allclose(cov, np.transpose(cov, (0, 2, 1)), atol=1e-9)
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-9


def test_velocity_converges_to_constant_rate():
    rng = np.random.default_rng(7)
    for _ in range(20):
        kf = KalmanFilter(**EXACT_KF)
        vel = rng.uniform(-8, 8, size=2)
        hist = simulate_constant_velocity(
            kf, h=float(rng.uniform(20, 200)),
            pos0=rng.uniform(-500, 500, size=2), vel=vel, steps=20,
        )
        assert hist[-1][2] < 1e-3


def test_posterior_mean_between_prior_and_measurement():
    kf = KalmanFilter()
    mean = np.array([0.0, 0, 1, 40, 0, 0, 0, 0])
    z = np.array([10.0, -10.0, 1.0, 40.0])
    out, _ = update(kf, *one(mean, np.diag([4.0] * 4 + [1.0] * 4)), z[None])
    for i in (0, 1):
        lo, hi = sorted((mean[i], z[i]))
        assert lo <= out[0, i] <= hi


def test_batched_ops_match_single():
    kf = KalmanFilter()
    rng = np.random.default_rng(8)
    means, covs = random_states(rng, 7)
    pm, pc = kf.predict_many(means.copy(), covs.copy())
    for i in range(7):
        mean, cov = kalman_predict(kf, means[i], covs[i])
        assert np.allclose(mean, pm[i], atol=1e-12)
        assert np.allclose(cov, pc[i], atol=1e-12)
    ys, ss, ok = kf.project_many(pm, pc)
    assert ok.all()
    for i in range(7):
        y, s = kalman_project(kf, pm[i], pc[i])
        assert np.array_equal(y, ys[i])
        assert np.allclose(s, ss[i], atol=1e-12)
    zs = ys + rng.normal(scale=2.0, size=ys.shape)
    um, uc = kf.update_many(pm.copy(), pc.copy(), zs, ys, ss, ok)
    for i in range(7):
        mean, cov = kalman_update(kf, pm[i], pc[i], zs[i])
        assert np.allclose(mean, um[i], atol=1e-9)
        assert np.allclose(cov, uc[i], atol=1e-9)
    # rows project and update independently: a subset with its rows of the
    # whole batch's projection gives the same bits
    rows = np.array([5, 0, 3])
    for whole, part in zip((ys, ss, ok), kf.project_many(pm[rows], pc[rows])):
        assert np.array_equal(whole[rows], part)
    sub = kf.update_many(pm[rows], pc[rows], zs[rows], ys[rows], ss[rows], ok[rows])
    assert np.array_equal(sub[0], um[rows]) and np.array_equal(sub[1], uc[rows])


def test_measurement_bbox_helpers_invert():
    z = measurement_from_bbox((10, 20, 30, 40))
    assert np.allclose(z, [25, 40, 0.75, 40])
    mean = np.array([25.0, 40, 0.75, 40, 0, 0, 0, 0])
    assert np.allclose(bbox_from_state(mean), [10, 20, 30, 40])
