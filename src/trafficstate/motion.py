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
dense matrix algebra, so both forms give the same bits. The batched steps
write their results into arrays allocated once per call, a handful of
NumPy calls each whatever the number of tracks: no stacking of per-row or
per-component pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

# Floors applied after a correction step so downstream geometry stays defined.
ASPECT_FLOOR = 1e-6
HEIGHT_FLOOR = 1e-6

_FLOORS = np.array([ASPECT_FLOOR, HEIGHT_FLOOR])

# Condition number above which an innovation covariance is unusable.
MAX_CONDITION = 1e12


def bbox_from_state(means: np.ndarray) -> np.ndarray:
    """(x, y, w, h) pixel boxes (..., 4) from state means (..., 8)."""
    boxes = np.empty(means.shape[:-1] + (4,))
    np.multiply(means[..., 2], means[..., 3], out=boxes[..., 2])
    boxes[..., 3] = means[..., 3]
    boxes[..., :2] = means[..., :2] - boxes[..., 2:] / 2.0
    return boxes


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
        # but the absolute std of the aspect ratio g in column 2
        def stds(*rows):
            return np.array([[w, w, aspect, w] for w, aspect in rows])

        frozen = object.__setattr__
        frozen(self, "_initial_std", stds((2 * self.pos_weight, self.aspect_proc_std),
                                          (10 * self.vel_weight, self.aspect_vel_std)))
        frozen(self, "_process_std", stds((self.pos_weight, self.aspect_proc_std),
                                          (self.vel_weight, self.aspect_vel_std)))
        frozen(self, "_measurement_std", stds((self.pos_weight, self.aspect_meas_std))[0])

    @staticmethod
    def _variances(h, std):
        """Noise variances (..., *std.shape) at box heights h (...) from std
        rows (see __post_init__): (weight * h) ** 2, and in column 2 the
        square of the aspect std, whatever h."""
        var = np.multiply.outer(h, std)
        var[..., 2] = std[..., 2]
        return np.square(var, out=var)

    def initiate(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mean (8,), covariance blocks (3, 4)) of a track started from a
        measurement z (4,): center x, center y, aspect, height, with height > 0.
        The covariance is diagonal: its cross terms are 0."""
        mean = np.zeros(8)
        mean[:4] = z
        cov = np.zeros((3, 4))
        cov[::2] = self._variances(mean[3], self._initial_std)
        return mean, cov

    def predict_many(self, means: np.ndarray, covs: np.ndarray):
        """Vectorized predict over stacked states (n, 8) and (n, 3, 4)."""
        out_means = means.copy()
        out_means[:, :4] += means[:, 4:]
        q = self._variances(means[:, 3], self._process_std)
        # F P F^T + Q of each block [[a, b], [b, c]], with F = [[1, 1], [0, 1]]:
        # a' = ((a + b) + (b + c)) + q_pos, b' = b + c, c' = c + q_vel
        out = np.empty_like(covs)
        np.add(covs[:, :2], covs[:, 1:], out=out[:, :2])
        out[:, 0] += out[:, 1]
        out[:, 0] += q[:, 0]
        np.add(covs[:, 2], q[:, 1], out=out[:, 2])
        return out_means, out

    def project_many(self, means: np.ndarray, covs: np.ndarray):
        """Vectorized project; returns (y (n, 4), s (n, 4), ok (n,) bool),
        where s is the diagonal of each innovation covariance.

        Rows whose innovation covariance is ill-conditioned come back with
        ok=False instead of raising, so the caller can gate them out.
        """
        s = covs[:, 0] + self._variances(means[:, 3], self._measurement_std)
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
        if not ok.all():
            raise NumericalError("ill-conditioned innovation covariance in batch")
        n = len(means)
        # the gain P H^T S^-1 has one position and one velocity entry per
        # measured component, k = (kp, kv) = (a, b) / S: (n, 2, 4) in the
        # layout of the state's (position, velocity) halves. OpenBLAS's solve
        # of the dense form multiplies by 1 / S[i, i] instead of dividing by
        # it, and so does this
        s = s[:, None]
        k = covs[:, :2] * (1.0 / s)
        out_means = means + (k * (measurements - y)[:, None]).reshape(n, 8)
        np.maximum(out_means[:, 2:4], _FLOORS, out=out_means[:, 2:4])
        # P - K S K^T: a - kp S kp and c - kv S kv, then the two cross terms
        # b - kp S kv and b - kv S kp, which round differently and are averaged
        ks = k * s
        out = np.empty_like(covs)
        np.subtract(covs[:, ::2], ks * k, out=out[:, ::2])
        cross = covs[:, 1, None] - ks * k[:, ::-1]
        np.add(cross[:, 0], cross[:, 1], out=out[:, 1])
        out[:, 1] *= 0.5
        return out_means, out
