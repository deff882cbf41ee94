"""The filter's (3, 4) block kernels against the dense 8 x 8 oracle, bit for bit.

The kernels hold n tracks as (8, n) means and (3, 4, n) blocks; the oracle
holds them as (n, 8) means and (n, 8, 8) covariances.

Needs hypothesis (the `test` extra in pyproject.toml); skipped without it.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trafficstate.assoc import motion_distances  # noqa: E402
from trafficstate.errors import NumericalError  # noqa: E402
from trafficstate.motion import MAX_CONDITION, KalmanFilter  # noqa: E402

from oracles import (  # noqa: E402
    cholesky_motion_distances,
    dense_covariance,
    dense_predict_many,
    dense_project_many,
    dense_update_many,
)

# 1e-38 and 1e-7 px leave an ill-conditioned projection, as in the tracker
# test of sub-pixel boxes; at 1e-170 px the squared height noise underflows to 0
HEIGHT = st.one_of(st.sampled_from([1e-38, 1e-7, 1e-170]), st.floats(1e-3, 1e4))
# a row's variances share one decade scale from 1e-80 to 1e60, so that most
# rows are well-conditioned; zero and subnormal variances are mixed in
SCALE = st.integers(-80, 60).map(lambda e: 10.0 ** e)
SPREAD = st.one_of(st.floats(1e-4, 1e4), st.sampled_from([0.0, 5e-324, 1e-310]))
CORRELATION = st.floats(-0.999, 0.999)


@st.composite
def state(draw):
    """One track: mean (8,), covariance blocks (3, 4) with |b| < sqrt(ac),
    a measurement (4,), which may sit below the aspect and height floors,
    and None for the conditioning its projection must have."""
    h = draw(HEIGHT)
    mean = np.array([draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4)),
                     draw(st.floats(0.1, 5.0)), h]
                    + draw(st.lists(st.floats(-50, 50), min_size=4, max_size=4)))
    scale = draw(SCALE)
    a = scale * np.array(draw(st.lists(SPREAD, min_size=4, max_size=4)))
    c = scale * np.array(draw(st.lists(SPREAD, min_size=4, max_size=4)))
    b = np.array(draw(st.lists(CORRELATION, min_size=4, max_size=4))) * np.sqrt(a * c)
    z = mean[:4] + np.array(draw(st.lists(st.floats(-20, 20), min_size=4, max_size=4)))
    if draw(st.booleans()):
        z[2:] = -5.0
    # + 0.0 turns -0.0 into 0.0: a tracker's state starts at 0.0 and only
    # adds, so it never holds -0.0, whose sign the two forms may round apart
    return mean + 0.0, np.stack([a, b, c]) + 0.0, z, None


@st.composite
def threshold_state(draw):
    """A state whose innovation variances are its position variances, with
    the condition ratio exactly at MAX_CONDITION or one ulp above it; the
    last field says whether the projection must come out ok."""
    mean, _, z, _ = draw(state())
    mean[3] = 1e-170   # no height-proportional measurement noise survives
    lo = draw(st.floats(1e17, 1e40))   # past the reach of the aspect's noise 1e-2
    above = draw(st.booleans())
    hi = MAX_CONDITION * lo
    if above:
        hi = np.nextafter(hi, np.inf)
    a = np.full(4, lo)
    a[draw(st.integers(0, 3))] = hi
    return mean, np.stack([a, np.zeros(4), np.full(4, lo)]), z, not above


def same_bits(x, y):
    assert x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(rows=st.lists(st.one_of(state(), threshold_state()), min_size=0, max_size=6),
       kf=st.sampled_from([KalmanFilter(), KalmanFilter(pos_weight=1e-12)]),
       m=st.integers(0, 5), data=st.data())
def test_block_kernels_equal_dense_oracle(rows, kf, m, data):
    # the oracle's form: a row per track; the engine's: a column per track,
    # in C-ordered arrays (8, n), (3, 4, n) and (4, n), as the tracker holds them
    mean_rows = np.array([r[0] for r in rows]).reshape(-1, 8)
    z_rows = np.array([r[2] for r in rows]).reshape(-1, 4)
    means, z = mean_rows.T.copy(), z_rows.T.copy()
    covs = np.array([r[1] for r in rows]).reshape(-1, 3, 4).transpose(1, 2, 0).copy()
    dense = dense_covariance(covs)

    pm, pc = kf.predict_many(means, covs)
    dm, dc = dense_predict_many(kf, mean_rows, dense)
    same_bits(pm.T, dm)
    same_bits(dense_covariance(pc), dc)

    y, s, ok = kf.project_many(means, covs)
    dy, ds, dok = dense_project_many(kf, mean_rows, dense)
    same_bits(y.T, dy)
    same_bits(s.T[:, :, None] * np.eye(4), ds)
    same_bits(ok, dok)
    for row, (*_, want) in zip(ok, rows):
        assert want is None or row == want

    # the tracker updates the columns it matched, gathered with take in the
    # order of its matches, which need not ascend
    cols = np.array(data.draw(st.permutations(np.flatnonzero(ok).tolist())), dtype=np.int64)
    um, uc = kf.update_many(means.take(cols, 1), covs.take(cols, 2), z.take(cols, 1),
                            y.take(cols, 1), s.take(cols, 1), ok.take(cols))
    vm, vc = dense_update_many(mean_rows[cols], dense[cols], z_rows[cols], dy[cols], ds[cols],
                               dok[cols])
    same_bits(um.T, vm)
    same_bits(dense_covariance(uc), vc)
    if not ok.all():
        with pytest.raises(NumericalError):
            kf.update_many(means, covs, z, y, s, ok)

    # measurements near the tracks, so that some distances are small
    if len(rows):
        near = np.array(data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=m,
                                           max_size=m)), dtype=np.int64)
        base = z_rows[near]
    else:
        base = np.zeros((m, 4))
    measurements = base + np.array(
        data.draw(st.lists(st.floats(-3, 3), min_size=4 * m, max_size=4 * m))).reshape(m, 4)
    got = motion_distances(y, s, ok, measurements.T.copy())
    same_bits(got, cholesky_motion_distances(dy, ds, dok, measurements))
    assert (got[~ok] == np.inf).all()
