"""Constant-velocity Kalman filter over bounding-box state.

The 8-dimensional state is (u, v, g, h, du, dv, dg, dh): box center in
pixels, aspect ratio, box height, and their per-frame velocities. Noise
scales with box height, so near and far objects get comparable relative
uncertainty. Every operation is batched, `initiate` over a frame's
births and the rest over all live tracks, which the tracker keeps in arrays.

Three properties of the model keep the 8 x 8 covariance P sparse: the
transition adds to each position its own velocity only, all three noises
are diagonal, and the measurement picks the four positions. So P is four
2 x 2 blocks, one per position and its velocity, and the innovation
covariance S is diagonal. A covariance is held as (3, 4): rows a = P[i, i],
b = P[i, i + 4] and c = P[i + 4, i + 4] for i over (u, v, g, h), and S as
its (4,) diagonal. Every step is elementwise, in the rounding order of the
dense matrix algebra, so both forms give the same bits.

The steps hold n tracks component-major, with the track index last:
means (8, n), covariance blocks (3, 4, n), and projections and
measurements (4, n). Each state component of all tracks is then one
contiguous row, so every NumPy call of a step runs over contiguous
memory, a handful of calls each whatever the number of tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

# Floors applied after a correction step so downstream geometry stays defined.
ASPECT_FLOOR = 1e-6
HEIGHT_FLOOR = 1e-6

_FLOORS = np.array([[ASPECT_FLOOR], [HEIGHT_FLOOR]])

# Condition number above which an innovation covariance is unusable.
MAX_CONDITION = 1e12


def bbox_from_state(means: np.ndarray) -> np.ndarray:
    """(x, y, w, h) pixel boxes (n, 4) from state means (8, n)."""
    rows = means[:4].copy()   # u, v, g, h, turned into x, y, w, h in place
    rows[2] *= rows[3]
    rows[:2] -= rows[2:] / 2.0
    return rows.T.copy()


@dataclass(frozen=True)
class KalmanFilter:
    """Constant-velocity filter with height-proportional noise.

    Parameters
    ----------
    pos_weight : float
        Positional noise std per unit of box height (default 1/20).
    vel_weight : float
        Velocity noise std per unit of box height (default 1/160).
    aspect_meas_std, aspect_proc_std, aspect_vel_std : float
        Absolute noise stds for the dimensionless aspect-ratio component.

    A filter is immutable, so its noise std rows are built once, at
    construction.
    """

    pos_weight: float = 1.0 / 20
    vel_weight: float = 1.0 / 160
    aspect_meas_std: float = 1e-1
    aspect_proc_std: float = 1e-2
    aspect_vel_std: float = 1e-5
    _initial_std: np.ndarray = field(init=False, repr=False, compare=False)
    _process_std: np.ndarray = field(init=False, repr=False, compare=False)
    _measurement_std: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # noise std rows over (u, v, g, h): a weight per unit of box height,
        # but the absolute std of the aspect ratio g in column 2; a trailing
        # axis of 1 broadcasts them over the tracks
        def stds(*rows):
            return np.array([[[w], [w], [aspect], [w]] for w, aspect in rows])

        frozen = object.__setattr__
        frozen(self, "_initial_std", stds((2 * self.pos_weight, self.aspect_proc_std),
                                          (10 * self.vel_weight, self.aspect_vel_std)))
        frozen(self, "_process_std", stds((self.pos_weight, self.aspect_proc_std),
                                          (self.vel_weight, self.aspect_vel_std)))
        frozen(self, "_measurement_std", stds((self.pos_weight, self.aspect_meas_std))[0])

    @staticmethod
    def _variances(h, std):
        """Noise variances (..., 4, n) at box heights h (n,) from std rows
        (..., 4, 1) (see __post_init__): (weight * h) ** 2, and in column 2
        the square of the aspect std, whatever h."""
        var = std * h
        var[..., 2, :] = std[..., 2, :]
        return np.square(var, out=var)

    def initiate(self, measurements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(means (8, k), covariance blocks (3, 4, k)) of k tracks started
        from measurements (4, k): center x, center y, aspect, height, with
        height > 0, a column per track. The covariances are diagonal: their
        cross terms are 0."""
        means = np.concatenate([measurements, np.zeros(measurements.shape)])
        covs = np.zeros((3,) + measurements.shape)
        covs[::2] = self._variances(means[3], self._initial_std)
        return means, covs

    def predict_many(self, means: np.ndarray, covs: np.ndarray):
        """One constant-velocity step of n tracks, means (8, n) and
        covariance blocks (3, 4, n); returns new arrays of the same shapes."""
        out_means = means.copy()
        out_means[:4] += means[4:]
        q = self._variances(means[3], self._process_std)
        # F P F^T + Q of each block [[a, b], [b, c]], with F = [[1, 1], [0, 1]]:
        # a' = ((a + b) + (b + c)) + q_pos, b' = b + c, c' = c + q_vel
        out = covs.copy()
        out[:2] += covs[1:]
        out[0] += out[1]
        out[::2] += q
        return out_means, out

    def project_many(self, means: np.ndarray, covs: np.ndarray):
        """n tracks (8, n), (3, 4, n) in measurement space: (y (4, n),
        s (4, n), ok (n,) bool), where column j of s is the diagonal of
        track j's innovation covariance.

        Tracks whose innovation covariance is ill-conditioned come back with
        ok=False instead of raising, so the caller can gate them out.
        """
        s = self._variances(means[3], self._measurement_std)
        s += covs[0]
        lo = np.minimum.reduce(s)
        ok = (lo > 0) & (np.maximum.reduce(s) <= MAX_CONDITION * lo)
        return means[:4].copy(), s, ok

    def update_many(self, means: np.ndarray, covs: np.ndarray, measurements: np.ndarray,
                    y: np.ndarray, s: np.ndarray, ok: np.ndarray):
        """Correction of n tracks (8, n), (3, 4, n) by measurements (4, n),
        column j for track j; returns new arrays of the state's shapes.

        y, s and ok are `project_many`'s projection of these same tracks,
        which the caller already holds. A track with ok False raises
        NumericalError.
        """
        if np.count_nonzero(ok) < len(ok):
            raise NumericalError("ill-conditioned innovation covariance in batch")
        # the gain P H^T S^-1 has one position and one velocity entry per
        # measured component, (kp, kv) = (a, b) / S: (2, 4, n) in the layout
        # of the state's (position, velocity) halves. OpenBLAS's solve of
        # the dense form multiplies by 1 / S[i, i] instead of dividing by
        # it, and so does this
        gain = covs[:2] * (1.0 / s)
        out_means = means + (gain * (measurements - y)).reshape(means.shape)
        np.maximum(out_means[2:4], _FLOORS, out=out_means[2:4])
        # P - K S K^T: a - kp S kp and c - kv S kv, then the two cross terms
        # b - kp S kv and b - kv S kp, which round differently and are averaged
        gs = gain * s
        out = np.empty_like(covs)
        np.subtract(covs[::2], gs * gain, out=out[::2])
        cross = covs[1] - gs * gain[::-1]
        np.add(cross[0], cross[1], out=out[1])
        out[1] *= 0.5
        return out_means, out
