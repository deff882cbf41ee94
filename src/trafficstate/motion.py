"""Constant-velocity Kalman filter over bounding-box state.

The 8-dimensional state is (u, v, g, h, du, dv, dg, dh): box center in
pixels, aspect ratio, box height, and their per-frame velocities. Noise
scales with box height, so near and far objects get comparable relative
uncertainty. Every operation but `initiate` is batched over stacked
states, mean (n, 8) and covariance (n, 8, 8), because the tracker keeps
its live tracks in those arrays and touches all of them every frame.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

# Per-frame time step; real time enters only at the measurement stage.
_DIM = 8

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
        self._F = np.eye(_DIM)
        self._F[:4, 4:] = np.eye(4)  # position += velocity each frame
        self._H = np.eye(4, _DIM)

    # -- noise schedules ----------------------------------------------------

    def _initiate_std(self, h):
        wp, wv = self.pos_weight, self.vel_weight
        one = np.ones_like(h)
        return np.stack([
            2 * wp * h, 2 * wp * h, self.aspect_proc_std * one, 2 * wp * h,
            10 * wv * h, 10 * wv * h, self.aspect_vel_std * one, 10 * wv * h,
        ], axis=-1)

    def _process_std(self, h):
        wp, wv = self.pos_weight, self.vel_weight
        one = np.ones_like(h)
        return np.stack([
            wp * h, wp * h, self.aspect_proc_std * one, wp * h,
            wv * h, wv * h, self.aspect_vel_std * one, wv * h,
        ], axis=-1)

    def _measurement_std(self, h):
        wp = self.pos_weight
        one = np.ones_like(h)
        return np.stack([wp * h, wp * h, self.aspect_meas_std * one, wp * h], axis=-1)

    def initiate(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mean (8,), covariance (8, 8)) of a track started from a measurement
        z (4,): center x, center y, aspect, height, with height > 0."""
        mean = np.zeros(_DIM)
        mean[:4] = z
        std = self._initiate_std(z[3])
        return mean, np.diag(std * std)

    def predict_many(self, means: np.ndarray, covs: np.ndarray):
        """Vectorized predict over stacked states (n, 8) and (n, 8, 8)."""
        std = self._process_std(means[:, 3])
        means = means @ self._F.T
        covs = self._F @ covs @ self._F.T
        idx = np.arange(_DIM)
        covs[:, idx, idx] += std * std
        covs = 0.5 * (covs + np.transpose(covs, (0, 2, 1)))
        return means, covs

    def project_many(self, means: np.ndarray, covs: np.ndarray):
        """Vectorized project; returns (y (n,4), s (n,4,4), ok (n,) bool).

        Rows whose innovation covariance is ill-conditioned come back with
        ok=False instead of raising, so the caller can gate them out.
        """
        std = self._measurement_std(means[:, 3])
        y = means[:, :4].copy()
        s = covs[:, :4, :4].copy()
        idx = np.arange(4)
        s[:, idx, idx] += std * std
        s = 0.5 * (s + np.transpose(s, (0, 2, 1)))
        eig = np.linalg.eigvalsh(s)
        ok = (eig[:, 0] > 0) & (eig[:, -1] <= MAX_CONDITION * eig[:, 0])
        return y, s, ok

    def update_many(self, means: np.ndarray, covs: np.ndarray, measurements: np.ndarray,
                    y: np.ndarray, s: np.ndarray, ok: np.ndarray):
        """Vectorized update; measurements is (n, 4), aligned with states.

        y, s and ok are `project_many`'s projection of these same states,
        which the caller already holds. A row with ok False raises
        NumericalError.
        """
        if not np.all(ok):
            raise NumericalError("ill-conditioned innovation covariance in batch")
        # gain K = P H^T S^-1, via solve(S, H P) transposed per batch element
        ph_t = covs[:, :, :4]
        gain = np.transpose(
            np.linalg.solve(s, np.transpose(ph_t, (0, 2, 1))), (0, 2, 1)
        )
        innov = measurements - y
        means = means + (gain @ innov[:, :, None])[:, :, 0]
        covs = covs - gain @ s @ np.transpose(gain, (0, 2, 1))
        means[:, 2] = np.maximum(means[:, 2], ASPECT_FLOOR)
        means[:, 3] = np.maximum(means[:, 3], HEIGHT_FLOOR)
        covs = 0.5 * (covs + np.transpose(covs, (0, 2, 1)))
        return means, covs
