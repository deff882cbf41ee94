"""Track-to-detection association: distances, gating, cost matrix, solver.

Every kernel takes all tracks and detections at once, as the arrays the
tracker holds. Motion distance is the squared Mahalanobis distance between
a detection and a track's projected measurement distribution; appearance
distance is the smallest cosine distance against the track's descriptor
gallery. Both are thresholded into a joint admissibility gate, combined
into one cost matrix, and solved as a linear assignment problem. The
second matching stage uses IoU distance instead; `iou_matrix` also serves
detection evaluation in `metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import NumericalError, ValidationError

# 0.95 quantile of chi-square with 4 dof: the motion gate for a 4-dim measurement.
CHI2_95_4DOF = 9.4877
DEFAULT_APPEARANCE_GATE = 0.2
# Larger than any admissible cost (Mahalanobis gated <= t1, cosine <= 2).
SENTINEL_COST = 1e5
# Second-stage gate on IoU distance (1 - IoU).
DEFAULT_IOU_GATE = 0.7

GALLERY_CAPACITY = 100


@dataclass
class CostMatrix:
    """Combined association costs plus the admissibility gate."""

    values: np.ndarray     # (n_tracks, n_detections)
    admissible: np.ndarray  # same shape, bool

    @property
    def shape(self):
        return self.values.shape


@dataclass
class AssignmentResult:
    matches: list[tuple[int, int]]
    unmatched_tracks: list[int]
    unmatched_detections: list[int]


def iou_matrix(a, b) -> np.ndarray:
    """Intersection over union (n, m) of (x, y, w, h) pixel boxes a (n, 4), b (m, 4).

    Each entry is computed in the operation order of the two-box formula, so
    it does not depend on which other boxes share the call.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    if (a[:, 2:] <= 0).any() or (b[:, 2:] <= 0).any():
        raise ValidationError("boxes must have positive width and height")
    ax, ay, aw, ah = (a[:, i, None] for i in range(4))
    bx, by, bw, bh = (b[None, :, i] for i in range(4))
    ix = np.maximum(0.0, np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx))
    iy = np.maximum(0.0, np.minimum(ay + ah, by + bh) - np.maximum(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, 0.0)


def motion_distances(y: np.ndarray, s: np.ndarray, ok: np.ndarray,
                     measurements: np.ndarray) -> np.ndarray:
    """All-pairs squared Mahalanobis distances (n, m).

    y (n, 4) and s (n, 4, 4) are the tracks' projected measurement means
    and covariances; rows with ok False get +inf. Each distance is solved
    through a Cholesky factor of s, which is never inverted explicitly.
    """
    n, m = len(y), len(measurements)
    d1 = np.full((n, m), np.inf)
    if not ok.any() or m == 0:
        return d1
    resid = measurements[None, :, :] - y[ok][:, None, :]     # (k, m, 4)
    try:
        chol = np.linalg.cholesky(s[ok])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"projection covariance not positive-definite: {exc}") from None
    sol = np.linalg.solve(chol, np.transpose(resid, (0, 2, 1)))  # (k, 4, m)
    d1[ok] = np.einsum("kim,kim->km", sol, sol)
    return d1


def appearance_distances(members: np.ndarray, sizes: np.ndarray,
                         descriptors: np.ndarray, has_desc: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs smallest cosine distances (n, m) and the mask of defined pairs.

    members (sum(sizes), D) stacks the tracks' unit-norm gallery rows,
    sizes[i] of them for track i, in track order. descriptors (m, D) holds
    the detections' unit-norm descriptors; rows with has_desc False are
    ignored. A pair is defined when its track has a gallery member and its
    detection a descriptor; undefined pairs read 0.
    """
    n, m = len(sizes), len(has_desc)
    d2 = np.zeros((n, m))
    has_gallery = sizes > 0
    defined = has_gallery[:, None] & has_desc[None, :]
    if not defined.any():
        return d2, defined
    starts = np.concatenate(([0], np.cumsum(sizes[has_gallery])[:-1]))
    dots = members @ descriptors[has_desc].T                 # (sum L, m_desc)
    best = np.maximum.reduceat(dots, starts, axis=0)         # (k, m_desc)
    d2[np.ix_(has_gallery, has_desc)] = np.clip(1.0 - best, 0.0, 2.0)
    return d2, defined


def build_cost_matrix(
    y: np.ndarray,
    s: np.ndarray,
    ok: np.ndarray,
    measurements: np.ndarray,
    members: np.ndarray,
    sizes: np.ndarray,
    descriptors: np.ndarray,
    has_desc: np.ndarray,
    lam: float,
    t1: float = CHI2_95_4DOF,
    t2: float = DEFAULT_APPEARANCE_GATE,
) -> CostMatrix:
    """Weighted sum of motion and appearance distances, gated.

    Tracks come as in `motion_distances` and `appearance_distances`, and
    detections as their (m, 4) measurement vectors plus descriptors.
    cost = lam * d_motion + (1 - lam) * d_appearance on admissible pairs;
    everything else carries the sentinel. Pairs for which no appearance
    distance exists (no gallery member or no descriptor) fall back to
    motion-only cost and a motion-only gate.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"lambda must be in [0,1], got {lam}")
    if t1 <= 0 or t2 <= 0:
        raise ValidationError("gate thresholds must be positive")
    n, m = len(y), len(measurements)
    values = np.full((n, m), SENTINEL_COST)
    if n == 0 or m == 0:
        return CostMatrix(values=values, admissible=np.zeros((n, m), dtype=bool))

    d1 = motion_distances(y, s, ok, measurements)
    d2, defined = appearance_distances(members, sizes, descriptors, has_desc)

    with np.errstate(invalid="ignore"):
        motion_ok = d1 <= t1
    appearance_ok = np.where(defined, d2 <= t2, True)
    admissible = ok[:, None] & motion_ok & appearance_ok

    lam_pair = np.where(defined, lam, 1.0)
    combined = lam_pair * np.where(np.isfinite(d1), d1, 0.0) + (1.0 - lam_pair) * d2
    values[admissible] = combined[admissible]
    return CostMatrix(values=values, admissible=admissible)


def measurements_of(boxes: np.ndarray) -> np.ndarray:
    """(m, 4) measurement vectors (center x, center y, aspect, height) of (m, 4) boxes."""
    out = np.empty((len(boxes), 4))
    out[:, 0] = boxes[:, 0] + boxes[:, 2] / 2.0
    out[:, 1] = boxes[:, 1] + boxes[:, 3] / 2.0
    out[:, 2] = boxes[:, 2] / boxes[:, 3]
    out[:, 3] = boxes[:, 3]
    return out


def build_iou_cost_matrix(
    track_boxes: np.ndarray,
    det_boxes: np.ndarray,
    max_distance: float = DEFAULT_IOU_GATE,
) -> CostMatrix:
    """Second-stage cost matrix: IoU distance (1 - IoU), gated at max_distance."""
    dist = 1.0 - iou_matrix(track_boxes, det_boxes)
    admissible = dist <= max_distance
    return CostMatrix(values=np.where(admissible, dist, SENTINEL_COST),
                      admissible=admissible)


def solve_assignment(cost: CostMatrix) -> AssignmentResult:
    """Minimum-cost matching over admissible pairs.

    Sentinel (inadmissible) pairs never end up matched; tracks and
    detections left over come back as unmatched.
    """
    n, m = cost.shape
    if n == 0 or m == 0:
        return AssignmentResult([], list(range(n)), list(range(m)))
    rows, cols = linear_sum_assignment(cost.values)
    matches = []
    matched_rows, matched_cols = set(), set()
    for i, j in zip(rows, cols):
        if cost.admissible[i, j]:
            matches.append((int(i), int(j)))
            matched_rows.add(int(i))
            matched_cols.add(int(j))
    matches.sort()
    unmatched_tracks = [i for i in range(n) if i not in matched_rows]
    unmatched_detections = [j for j in range(m) if j not in matched_cols]
    return AssignmentResult(matches, unmatched_tracks, unmatched_detections)
