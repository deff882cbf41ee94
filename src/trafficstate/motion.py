"""Constant-velocity Kalman filter over bounding-box state.

The 8-dimensional state is (u, v, g, h, du, dv, dg, dh): box center in
pixels, aspect ratio, box height, and their per-frame velocities. Noise
scales with box height, so near and far objects get comparable relative
uncertainty. Every operation but `initiate` is batched over stacked
states, because the tracker keeps its live tracks in arrays.

Three properties of the model keep the 8 x 8 covariance P sparse: the
transition adds to each position its own velocity only, all three noises
are diagonal, and the measurement picks the four positions. So P is four
2 x 2 blocks, one per position and its velocity, and the innovation
covariance S is diagonal. A covariance is held as (3, 4): rows a = P[i, i],
b = P[i, i + 4] and c = P[i + 4, i + 4] for i over (u, v, g, h), and S as
its (4,) diagonal. Every step is elementwise, in the rounding order of the
dense matrix algebra, so both forms give the same bits.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

# Floors applied after a correction step so downstream geometry stays defined.
ASPECT_FLOOR = 1e-6
HEIGHT_FLOOR = 1e-6

# Condition number above which an innovation covariance is unusable.
MAX_CONDITION = 1e12


def bbox_from_state(means: np.ndarray) -> np.ndarray:
    """(x, y, w, h) pixel boxes (..., 4) from state means (..., 8)."""
    u, v, g, h = (means[..., i] for i in range(4))
    w = g * h
    return np.stack([u - w / 2.0, v - h / 2.0, w, h], axis=-1)


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
    """

    def __init__(self, pos_weight: float = 1.0 / 20, vel_weight: float = 1.0 / 160,
                 aspect_meas_std: float = 1e-1, aspect_proc_std: float = 1e-2,
                 aspect_vel_std: float = 1e-5):
        self.pos_weight = pos_weight
        self.vel_weight = vel_weight
        self.aspect_meas_std = aspect_meas_std
        self.aspect_proc_std = aspect_proc_std
        self.aspect_vel_std = aspect_vel_std

    def _variances(self, h, weight, aspect_std):
        """Noise variances (..., 4) at box heights h (...): std weight * h on
        u, v and h, and aspect_std on the aspect ratio g."""
        std = np.stack([weight * h, weight * h, aspect_std * np.ones_like(h), weight * h],
                       axis=-1)
        return std * std

    def initiate(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mean (8,), covariance blocks (3, 4)) of a track started from a
        measurement z (4,): center x, center y, aspect, height, with height > 0.
        The covariance is diagonal: its cross terms are 0."""
        mean = np.zeros(8)
        mean[:4] = z
        cov = np.zeros((3, 4))
        cov[0] = self._variances(z[3], 2 * self.pos_weight, self.aspect_proc_std)
        cov[2] = self._variances(z[3], 10 * self.vel_weight, self.aspect_vel_std)
        return mean, cov

    def predict_many(self, means: np.ndarray, covs: np.ndarray):
        """Vectorized predict over stacked states (n, 8) and (n, 3, 4)."""
        h = means[:, 3]
        a, b, c = covs[:, 0], covs[:, 1], covs[:, 2]
        means = np.hstack([means[:, :4] + means[:, 4:], means[:, 4:]])
        q_pos = self._variances(h, self.pos_weight, self.aspect_proc_std)
        q_vel = self._variances(h, self.vel_weight, self.aspect_vel_std)
        # F P F^T + Q of each block [[a, b], [b, c]], with F = [[1, 1], [0, 1]]
        covs = np.stack([((a + b) + (b + c)) + q_pos, b + c, c + q_vel], axis=1)
        return means, covs

    def project_many(self, means: np.ndarray, covs: np.ndarray):
        """Vectorized project; returns (y (n, 4), s (n, 4), ok (n,) bool),
        where s is the diagonal of each innovation covariance.

        Rows whose innovation covariance is ill-conditioned come back with
        ok=False instead of raising, so the caller can gate them out.
        """
        s = covs[:, 0] + self._variances(means[:, 3], self.pos_weight, self.aspect_meas_std)
        lo = s.min(axis=1)
        ok = (lo > 0) & (s.max(axis=1) <= MAX_CONDITION * lo)
        return means[:, :4].copy(), s, ok

    def update_many(self, means: np.ndarray, covs: np.ndarray, measurements: np.ndarray,
                    y: np.ndarray, s: np.ndarray, ok: np.ndarray):
        """Vectorized update; measurements is (n, 4), aligned with states.

        y, s and ok are `project_many`'s projection of these same states,
        which the caller already holds. A row with ok False raises
        NumericalError.
        """
        if not np.all(ok):
            raise NumericalError("ill-conditioned innovation covariance in batch")
        a, b, c = covs[:, 0], covs[:, 1], covs[:, 2]
        # the gain P H^T S^-1 has one position and one velocity entry per
        # measured component; OpenBLAS's solve of the dense form multiplies
        # by 1 / S[i, i] instead of dividing by it, and so does this
        inv = 1.0 / s
        kp, kv = a * inv, b * inv
        innov = measurements - y
        means = np.hstack([means[:, :4] + kp * innov, means[:, 4:] + kv * innov])
        means[:, 2] = np.maximum(means[:, 2], ASPECT_FLOOR)
        means[:, 3] = np.maximum(means[:, 3], HEIGHT_FLOOR)
        # P - K S K^T; its two cross terms round differently and are averaged
        kps, kvs = kp * s, kv * s
        covs = np.stack([a - kps * kp, 0.5 * ((b - kps * kv) + (b - kvs * kp)),
                         c - kvs * kv], axis=1)
        return means, covs
