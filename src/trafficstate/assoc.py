"""Track-to-detection association: distances, gating, cost matrix, solver.

Every kernel takes all tracks and detections at once, as the arrays the
tracker holds. Motion distance is the squared Mahalanobis distance between
a detection and a track's projected measurement distribution; appearance
distance is the smallest cosine distance against the track's descriptor
gallery, a ring buffer in the tracker's shared gallery store. Both are
thresholded into a joint admissibility gate, motion first: appearance
distances are computed only for the pairs inside the motion gate, since no
other pair can be admissible. The gated distances are combined into one
cost matrix and solved as a linear assignment problem. The second matching
stage uses IoU distance instead; `iou_matrix` also serves detection
evaluation in `metrics`.
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
    and covariances; rows with ok False get +inf. Each residual is whitened
    by the explicit inverse of a Cholesky factor of s, L^-1 (z - y), and
    its squares are summed: one 4 x 4 inverse per track and one batched
    matmul cost less than a triangular solve against every residual.
    """
    n, m = len(y), len(measurements)
    d1 = np.full((n, m), np.inf)
    if not ok.any() or m == 0:
        return d1
    resid = measurements.T[None, :, :] - y[ok][:, :, None]   # (k, 4, m)
    try:
        chol = np.linalg.cholesky(s[ok])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"projection covariance not positive-definite: {exc}") from None
    white = np.linalg.inv(chol) @ resid                       # (k, 4, m)
    d1[ok] = np.einsum("kim,kim->km", white, white)
    return d1


def appearance_distances(gallery: np.ndarray, rows: np.ndarray, fill: np.ndarray,
                         descriptors: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Smallest cosine distances (n, m) over the requested pairs; NaN elsewhere.

    gallery (S, cap, D) holds unit-norm descriptor buffers: track i's
    members are the first fill[i] slots of gallery[rows[i]]. descriptors
    (m, D) holds the detections' unit-norm descriptors. A pair gets a
    distance when pairs (n, m) marks it and its track has a member; every
    other entry is undefined and reads NaN.

    Only tracks with a requested pair are read, and only their filled
    slots: the tracks of one fill f are gathered as one (r, f, D) block,
    and round k multiplies it by each track's k-th requested descriptor.
    No block holds more than the tracks' members, however many pairs are
    requested.
    """
    n, m = pairs.shape
    d2 = np.full((n, m), np.nan)
    pairs = pairs & (fill > 0)[:, None]
    count = pairs.sum(axis=1)
    first = np.cumsum(count) - count
    wanted = np.nonzero(pairs)[1]                  # requested columns, track by track
    for f in np.unique(fill[count > 0]):
        group = np.flatnonzero((count > 0) & (fill == f))
        block = gallery[rows[group], :f]                               # (r, f, D)
        for k in range(count[group].max()):
            # each track's k-th requested column, or its last if it wants fewer
            cols = wanted[first[group] + np.minimum(k, count[group] - 1)]
            best = (block @ descriptors[cols, :, None]).max(axis=(1, 2))
            d2[group, cols] = np.clip(1.0 - best, 0.0, 2.0)
    return d2


def build_cost_matrix(
    y: np.ndarray,
    s: np.ndarray,
    ok: np.ndarray,
    measurements: np.ndarray,
    gallery: np.ndarray,
    rows: np.ndarray,
    fill: np.ndarray,
    descriptors: np.ndarray,
    has_desc: np.ndarray,
    lam: float,
    t1: float = CHI2_95_4DOF,
    t2: float = DEFAULT_APPEARANCE_GATE,
) -> CostMatrix:
    """Weighted sum of motion and appearance distances, gated.

    Tracks come as in `motion_distances` and `appearance_distances`, and
    detections as their (m, 4) measurement vectors plus descriptors (m, D)
    and the mask has_desc (m,) of those present. The motion gate goes
    first: only a pair inside it can be admissible, so only such a pair
    gets an appearance distance. cost = lam * d_motion + (1 - lam) *
    d_appearance on admissible pairs; everything else carries the
    sentinel. Pairs for which no appearance distance exists (no gallery
    member or no descriptor) fall back to motion-only cost and a
    motion-only gate.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"lambda must be in [0,1], got {lam}")
    if t1 <= 0 or t2 <= 0:
        raise ValidationError("gate thresholds must be positive")
    n, m = len(y), len(measurements)
    if n == 0 or m == 0:
        return CostMatrix(values=np.full((n, m), SENTINEL_COST),
                          admissible=np.zeros((n, m), dtype=bool))

    d1 = motion_distances(y, s, ok, measurements)
    motion_ok = ok[:, None] & (d1 <= t1)
    defined = (fill > 0)[:, None] & has_desc[None, :]
    d2 = appearance_distances(gallery, rows, fill, descriptors, motion_ok & defined)
    admissible = motion_ok & np.where(defined, d2 <= t2, True)

    # d2 is NaN on admissible pairs without an appearance distance; where()
    # drops those combinations, and NaN arithmetic raises no warning
    d1, d2 = d1[admissible], d2[admissible]
    values = np.full((n, m), SENTINEL_COST)
    values[admissible] = np.where(defined[admissible], lam * d1 + (1.0 - lam) * d2, d1)
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
