"""Track-to-detection association: distances, gating, cost matrix, solver.

Every kernel takes all tracks and detections at once, as the arrays the
tracker holds. Motion distance is the squared Mahalanobis distance between
a detection and a track's projected measurement distribution; appearance
distance is the smallest cosine distance against the track's descriptor
gallery, a ring buffer in the tracker's shared gallery store. Both are
thresholded into a joint admissibility gate, motion first: appearance
distances are computed only for the pairs inside the motion gate, since no
other pair can be admissible. The gated distances are combined into one
cost matrix and solved as a linear assignment problem, whose matches and
leftovers come back as index arrays. The second matching stage uses IoU
distance instead; its IoU kernel, in the pair form `iou_pairs`, also
serves detection evaluation in `metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

# 0.95 quantile of chi-square with 4 dof: the motion gate for a 4-dim measurement.
CHI2_95_4DOF = 9.4877
DEFAULT_APPEARANCE_GATE = 0.2
# Second-stage gate on IoU distance (1 - IoU).
DEFAULT_IOU_GATE = 0.7

GALLERY_CAPACITY = 100


@dataclass
class CostMatrix:
    """Combined association costs plus the admissibility gate.

    The solver reads values only where admissible is True; what the other
    cells hold is up to the builder.
    """

    values: np.ndarray     # (n_tracks, n_detections)
    admissible: np.ndarray  # same shape, bool

    @property
    def shape(self):
        return self.values.shape


@dataclass
class AssignmentResult:
    """Index arrays into the cost matrix's rows and columns, all ascending."""

    matches: np.ndarray               # (k, 2) int64 (row, column) pairs, by row
    unmatched_tracks: np.ndarray      # (n - k,) int64 rows
    unmatched_detections: np.ndarray  # (m - k,) int64 columns


def _iou(ax, ay, aw, ah, bx, by, bw, bh) -> np.ndarray:
    """Elementwise IoU of boxes a and b given as broadcastable coordinate arrays.

    Written in the operation order of the two-box formula, so an entry does
    not depend on which other boxes share the call.
    """
    ix = np.maximum(0.0, np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx))
    iy = np.maximum(0.0, np.minimum(ay + ah, by + bh) - np.maximum(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, 0.0)


def _boxes(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    if (a[:, 2:] <= 0).any():
        raise ValidationError("boxes must have positive width and height")
    return a


def iou_matrix(a, b) -> np.ndarray:
    """Intersection over union (n, m) of (x, y, w, h) pixel boxes a (n, 4), b (m, 4)."""
    a, b = _boxes(a), _boxes(b)
    return _iou(*(a[:, i, None] for i in range(4)), *(b[None, :, i] for i in range(4)))


def iou_pairs(a, b, rows, cols) -> np.ndarray:
    """Intersection over union (k,) of the box pairs a[rows], b[cols], each
    equal to iou_matrix(a, b)[rows, cols]."""
    a, b = _boxes(a), _boxes(b)
    return _iou(*a[rows].T, *b[cols].T)


def motion_distances(y: np.ndarray, s: np.ndarray, ok: np.ndarray,
                     measurements: np.ndarray) -> np.ndarray:
    """All-pairs squared Mahalanobis distances (n, m).

    y (n, 4) and s (n, 4) are the tracks' projected measurement means and
    the diagonals of their covariances; rows with ok False get +inf. Each
    residual is whitened componentwise by 1 / sqrt(s), with no matrix
    factorization, and its squares are summed. A row marked ok whose
    variances are not all positive raises NumericalError.
    """
    n, m = len(y), len(measurements)
    d1 = np.full((n, m), np.inf)
    if not ok.any() or m == 0:
        return d1
    s = s[ok]
    # written as not (all positive) so that NaN is rejected too
    if not (s > 0).all():
        raise NumericalError("projection covariance not positive-definite")
    resid = measurements.T[None, :, :] - y[ok][:, :, None]   # (k, 4, m)
    # einsum sums in the order of the memory layout, and resid is not C-ordered
    white = np.ascontiguousarray((1.0 / np.sqrt(s))[:, :, None] * resid)
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
    d_appearance on admissible pairs; everything else holds +inf. Pairs
    for which no appearance distance exists (no gallery member or no
    descriptor) fall back to motion-only cost and a motion-only gate; when
    no pair has both, `appearance_distances` is not called at all.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"lambda must be in [0,1], got {lam}")
    if t1 <= 0 or t2 <= 0:
        raise ValidationError("gate thresholds must be positive")
    n, m = len(y), len(measurements)
    if n == 0 or m == 0:
        return CostMatrix(values=np.full((n, m), np.inf),
                          admissible=np.zeros((n, m), dtype=bool))

    d1 = motion_distances(y, s, ok, measurements)
    admissible = ok[:, None] & (d1 <= t1)
    values = np.where(admissible, d1, np.inf)
    if not (fill.any() and has_desc.any()):
        return CostMatrix(values=values, admissible=admissible)
    # the pairs inside the motion gate that have an appearance distance
    defined = admissible & (fill > 0)[:, None] & has_desc
    d2 = appearance_distances(gallery, rows, fill, descriptors, defined)
    admissible &= ~defined | (d2 <= t2)
    values[~admissible] = np.inf
    both = defined & admissible
    values[both] = lam * d1[both] + (1.0 - lam) * d2[both]
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
    """Second-stage cost matrix: IoU distance (1 - IoU) in every cell, gated at max_distance."""
    dist = 1.0 - iou_matrix(track_boxes, det_boxes)
    return CostMatrix(values=dist, admissible=dist <= max_distance)


def solve_assignment(cost: CostMatrix, levels: np.ndarray | None = None) -> AssignmentResult:
    """Matching with the most admissible pairs, and among those the least cost.

    Inadmissible pairs never end up matched; tracks and detections left
    over come back as unmatched. The admissible pairs form a bipartite
    graph, and the objective separates over its connected components. A
    pair alone in its row and its column is a component of its own and is
    in every optimum, so it is matched directly; a row or column with no
    admissible pair stays unmatched. Only the rows and columns left after
    that, the contested ones, go to scipy's `linear_sum_assignment`, as
    one sub-block. Whatever values its inadmissible cells carry, they are
    filled with one cost larger than the sub-block's admissible maximum
    plus (min(rows, columns) - 1) times its admissible spread: then
    dropping an admissible match always costs more than any cheaper
    arrangement gains. Among tied optima the pick is scipy's on that
    sub-block, not on the whole matrix. `scipy.optimize` is imported only
    when a sub-block is left: loading it takes longer than importing the
    rest of the package, and a scene where no two pairs compete never
    needs it.

    levels (n,), when given, turns the solve into a matching cascade: the
    rows of each level, lowest first, are solved alone against the columns
    the lower levels left, as above. A forced pair of the whole matrix is
    forced in its level's slice too, since no other row admits its column,
    so the forced pairs are still taken in one pass, and only the contested
    rows go through the levels, over the contested columns.
    """
    n, m = cost.shape
    rows, cols = _assign(cost.values, cost.admissible, levels)
    taken_rows, taken_cols = np.zeros(n, dtype=bool), np.zeros(m, dtype=bool)
    taken_rows[rows] = True
    taken_cols[cols] = True
    matches = np.empty((len(rows), 2), dtype=np.int64)
    matches[:, 0], matches[:, 1] = rows, cols
    return AssignmentResult(matches, (~taken_rows).nonzero()[0], (~taken_cols).nonzero()[0])


def _assign(values: np.ndarray, admissible: np.ndarray, levels: np.ndarray | None):
    """(rows, cols) of `solve_assignment`'s matched pairs, rows ascending."""
    per_row = admissible.sum(axis=1)
    forced = admissible & (per_row == 1)[:, None] & (admissible.sum(axis=0) == 1)
    rows, cols = forced.nonzero()   # row-major, so rows ascend
    if len(rows) == per_row.sum():   # every admissible pair is forced
        return rows, cols
    contested = admissible & ~forced
    open_rows = contested.any(axis=1).nonzero()[0]
    open_cols = contested.any(axis=0).nonzero()[0]
    if levels is None:
        from scipy.optimize import linear_sum_assignment

        block = np.ix_(open_rows, open_cols)
        sub_admissible, sub_values = admissible[block], values[block]
        allowed = sub_values[sub_admissible]
        lo, hi = allowed.min(), allowed.max()
        # abs(hi) + 1 keeps fill above the bound once rounded, whatever hi's size
        fill = hi + min(sub_values.shape) * (hi - lo) + abs(hi) + 1.0
        # the pairs that fill paid for are dropped
        sub_rows, sub_cols = linear_sum_assignment(
            np.where(sub_admissible, sub_values, fill))
        keep = sub_admissible[sub_rows, sub_cols]
        rows = np.concatenate([rows, open_rows[sub_rows[keep]]])
        cols = np.concatenate([cols, open_cols[sub_cols[keep]]])
    else:
        open_levels = levels[open_rows]
        for level in np.unique(open_levels):
            group = open_rows[open_levels == level]
            block = np.ix_(group, open_cols)
            sub_rows, sub_cols = _assign(values[block], admissible[block], None)
            rows = np.concatenate([rows, group[sub_rows]])
            cols = np.concatenate([cols, open_cols[sub_cols]])
            open_cols = np.delete(open_cols, sub_cols)
    order = np.argsort(rows)
    return rows[order], cols[order]
