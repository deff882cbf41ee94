import numpy as np
import pytest

from trafficstate.assoc import measurements_of
from trafficstate.errors import NumericalError
from trafficstate.motion import KalmanFilter, bbox_from_state

from oracles import (
    dense_covariance,
    kalman_initiate,
    kalman_predict,
    kalman_project,
    kalman_update,
    simulate_constant_velocity,
)

# near-zero measurement noise: the right setting for noiseless streams
EXACT_KF = dict(pos_weight=1e-6)

# the identity covariance as (3, 4) blocks: unit variances, no cross terms
EYE = np.array([[1.0] * 4, [0.0] * 4, [1.0] * 4])

# The kernels hold n tracks component-major, the track index last: means
# (8, n), covariance blocks (3, 4, n), projections and measurements (4, n).


def random_state(rng):
    mean = np.empty(8)
    mean[:2] = rng.normal(scale=300.0, size=2)      # center position, px
    mean[2] = rng.uniform(0.2, 3.0)                 # aspect ratio
    mean[3] = rng.uniform(10.0, 200.0)              # box height, px
    mean[4:6] = rng.normal(scale=4.0, size=2)       # px/frame
    mean[6] = rng.normal(scale=0.01)
    mean[7] = rng.normal(scale=2.0)
    a, c = rng.uniform(1e-3, 10.0, size=(2, 4))
    b = rng.uniform(-0.99, 0.99, size=4) * np.sqrt(a * c)   # |b| < sqrt(ac): PD blocks
    return mean, np.stack([a, b, c])


def random_states(rng, n):
    """n random states stacked as (8, n) means and (3, 4, n) covariance blocks."""
    states = [random_state(rng) for _ in range(n)]
    return np.stack([m for m, _ in states], axis=-1), np.stack([c for _, c in states], axis=-1)


def one(mean, cov):
    """One track's state as a batch of one."""
    return np.asarray(mean, float)[:, None], np.asarray(cov, float)[..., None]


def update(kf, means, covs, measurements):
    """update_many with the states' own projection."""
    return kf.update_many(means, covs, measurements, *kf.project_many(means, covs))


def measurement(bbox):
    """The (4,) measurement of one (x, y, w, h) box, as the tracker computes it."""
    return measurements_of(np.array([bbox], dtype=float))[:, 0]


def started(z):
    """initiate of one track, from its measurement z (4,) as a column (4, 1)."""
    return KalmanFilter().initiate(np.asarray(z, float)[:, None])


def test_initiate_center_aspect():
    means, _ = started(measurement((0, 0, 50, 100)))
    assert means.shape == (8, 1)
    assert np.allclose(means[:, 0], [25, 50, 0.5, 100, 0, 0, 0, 0])


def test_initiate_square_box():
    means, _ = started(measurement((10, 10, 100, 100)))
    assert means[2, 0] == 1.0


def test_initiate_covariance_psd_diagonal():
    _, covs = started(measurement((5, -3, 17, 23)))
    assert covs.shape == (3, 4, 1)
    assert np.all(covs[1] == 0)
    assert np.all(covs[0] > 0) and np.all(covs[2] > 0)


@pytest.mark.parametrize("kf", [KalmanFilter(), KalmanFilter(0.3, 0.07, 0.2, 0.03, 1e-3)],
                         ids=["default", "custom"])
@pytest.mark.parametrize("k", [0, 1, 9])
def test_initiate_columns_equal_scalar_oracle_bit_for_bit(kf, k):
    rng = np.random.default_rng(k)
    z = np.stack([rng.normal(scale=300.0, size=k), rng.normal(scale=300.0, size=k),
                  rng.uniform(0.2, 3.0, size=k), 10.0 ** rng.uniform(-3.0, 5.0, size=k)])
    z[3, :2] = [1e-3, 1e5][:k]                      # the extreme heights
    means, covs = kf.initiate(z)
    assert means.shape == (8, k) and covs.shape == (3, 4, k)
    want = [kalman_initiate(kf, z[:, i]) for i in range(k)]
    assert means.T.tobytes() == np.array([m for m, _ in want]).reshape(k, 8).tobytes()
    assert dense_covariance(covs).tobytes() \
        == np.array([c for _, c in want]).reshape(k, 8, 8).tobytes()


def test_predict_moves_position_by_velocity():
    kf = KalmanFilter()
    means, _ = kf.predict_many(*one([10.0, 10, 1, 100, 2, 3, 0, 0], EYE))
    assert means.shape == (8, 1)
    assert np.allclose(means[:4, 0], [12, 13, 1, 100])
    assert np.allclose(means[4:, 0], [2, 3, 0, 0])


def test_predict_zero_velocity_fixed_point():
    kf = KalmanFilter()
    mean = np.array([10.0, 20, 0.5, 40, 0, 0, 0, 0])
    means, _ = kf.predict_many(*one(mean, EYE))
    assert np.allclose(means[:4, 0], mean[:4])


def test_predict_increases_covariance_trace():
    kf = KalmanFilter()
    rng = np.random.default_rng(3)
    means, covs = random_states(rng, 20)
    means[4:] = 0  # keep F neutral on positions, isolate additive Q
    _, out = kf.predict_many(means, covs)
    assert out.shape == (3, 4, 20)
    assert np.all(np.trace(dense_covariance(out), axis1=1, axis2=2)
                  > np.trace(dense_covariance(covs), axis1=1, axis2=2))


def test_project_selects_position_block():
    kf = KalmanFilter()
    mean = np.array([1.0, 2, 0.5, 50, 9, 9, 9, 9])
    y, _, _ = kf.project_many(*one(mean, EYE))
    assert y.shape == (4, 1)
    assert np.array_equal(y[:, 0], mean[:4])


def test_project_adds_measurement_noise_to_identity_cov():
    kf = KalmanFilter()
    _, s, ok = kf.project_many(*one([0.0, 0, 1, 40, 0, 0, 0, 0], EYE))
    std = np.array([40 / 20, 40 / 20, 1e-1, 40 / 20])
    assert ok.shape == (1,) and ok[0]
    assert s.shape == (4, 1)
    assert np.allclose(s[:, 0], 1.0 + std * std)


def test_project_s_minus_r_psd():
    kf = KalmanFilter()
    rng = np.random.default_rng(4)
    means, covs = random_states(rng, 50)
    _, s, _ = kf.project_many(means, covs)
    for h, s_i in zip(means[3], s.T):
        std = np.array([h / 20, h / 20, 1e-1, h / 20])
        diff = s_i - std * std
        assert np.min(diff) >= -1e-9


def test_project_rejects_ill_conditioned():
    kf = KalmanFilter(pos_weight=1e-12)
    cov = np.zeros((3, 4))
    cov[0, 0] = 1e14  # condition vastly above the guard with tiny R elsewhere
    means, covs = one([0.0, 0, 1, 1e-3, 0, 0, 0, 0], cov)
    y, s, ok = kf.project_many(means, covs)
    assert not ok[0]
    with pytest.raises(NumericalError):
        kf.update_many(means, covs, np.zeros((4, 1)), y, s, ok)


def test_update_zero_innovation_keeps_positional_mean():
    kf = KalmanFilter()
    rng = np.random.default_rng(5)
    means, covs = kf.predict_many(*random_states(rng, 1000))
    y, s, ok = kf.project_many(means, covs)
    out, _ = kf.update_many(means, covs, y, y, s, ok)
    assert np.allclose(out[:4], means[:4], atol=1e-9)


def test_update_r_to_zero_limit_matches_measurement():
    kf = KalmanFilter(pos_weight=1e-12, aspect_meas_std=1e-12)
    start = started((0, 0, 50, 100))
    z = np.array([30.0, 55.0, 0.6, 110.0])
    out, _ = update(kf, *start, z[:, None])
    assert np.allclose(out[:4, 0], z, atol=1e-6)


def test_update_convergence_noiseless_constant_velocity():
    kf = KalmanFilter(**EXACT_KF)
    hist = simulate_constant_velocity(
        kf, h=80.0, pos0=np.array([100.0, 200.0]), vel=np.array([3.0, -2.0]), steps=10
    )
    assert hist[-1][1] < 1e-6


def test_update_clamps_aspect_and_height():
    kf = KalmanFilter(pos_weight=1e-12)
    start = started((0, 0, 50, 100))
    out, _ = update(kf, *start, np.array([[0.0], [0.0], [-5.0], [-5.0]]))
    assert out[2, 0] >= 1e-6 and out[3, 0] >= 1e-6


def test_predict_update_preserve_symmetry_and_psd():
    kf = KalmanFilter()
    rng = np.random.default_rng(6)
    means, covs = random_states(rng, 200)
    means, covs = kf.predict_many(means, covs)
    zs = means[:4] + rng.normal(scale=5.0, size=(200, 4)).T
    _, upd = update(kf, means, covs, zs)
    for cov in map(dense_covariance, (covs, upd)):
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
    out, _ = update(kf, *one(mean, [[4.0] * 4, [0.0] * 4, [1.0] * 4]), z[:, None])
    for i in (0, 1):
        lo, hi = sorted((mean[i], z[i]))
        assert lo <= out[i, 0] <= hi


def test_batched_ops_match_single():
    kf = KalmanFilter()
    rng = np.random.default_rng(8)
    means, covs = random_states(rng, 7)
    pm, pc = kf.predict_many(means.copy(), covs.copy())
    for i in range(7):
        mean, cov = kalman_predict(kf, means[:, i], dense_covariance(covs)[i])
        assert np.allclose(mean, pm[:, i], atol=1e-12)
        assert np.allclose(cov, dense_covariance(pc)[i], atol=1e-12)
    ys, ss, ok = kf.project_many(pm, pc)
    assert ok.all()
    for i in range(7):
        y, s = kalman_project(kf, pm[:, i], dense_covariance(pc)[i])
        assert np.array_equal(y, ys[:, i])
        assert np.allclose(s, np.diag(ss[:, i]), atol=1e-12)
    zs = ys + rng.normal(scale=2.0, size=ys.shape[::-1]).T
    um, uc = kf.update_many(pm.copy(), pc.copy(), zs, ys, ss, ok)
    for i in range(7):
        mean, cov = kalman_update(kf, pm[:, i], dense_covariance(pc)[i], zs[:, i])
        assert np.allclose(mean, um[:, i], atol=1e-9)
        assert np.allclose(cov, dense_covariance(uc)[i], atol=1e-9)
    # tracks project and update independently: a subset with its columns of
    # the whole batch's projection gives the same bits
    cols = np.array([5, 0, 3])
    for whole, part in zip((ys, ss, ok), kf.project_many(pm[:, cols], pc[..., cols])):
        assert np.array_equal(whole[..., cols], part)
    sub = kf.update_many(pm[:, cols], pc[..., cols], zs[:, cols], ys[:, cols], ss[:, cols],
                         ok[cols])
    assert np.array_equal(sub[0], um[:, cols]) and np.array_equal(sub[1], uc[..., cols])


def test_measurement_bbox_helpers_invert():
    z = measurement((10, 20, 30, 40))
    assert np.allclose(z, [25, 40, 0.75, 40])
    mean = np.array([25.0, 40, 0.75, 40, 0, 0, 0, 0])
    boxes = bbox_from_state(mean[:, None])
    assert boxes.shape == (1, 4)
    assert np.allclose(boxes, [[10, 20, 30, 40]])
