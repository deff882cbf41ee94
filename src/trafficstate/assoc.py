"""Track-to-detection association: distances, gating, cost matrix, solver.

Every kernel takes all tracks and detections at once, as the arrays the
tracker holds. Motion distance is the squared Mahalanobis distance between
a detection and a track's projected measurement distribution; appearance
distance is the smallest cosine distance against the track's descriptor
gallery, a ring buffer in the tracker's shared gallery store. A motion
distance sums its four squares in one fixed order, and an appearance
distance is one product over a view of the track's filled slots, so a
pair's distances do not depend on what else is in the call. A frame's
detections carry descriptors (m, D) all together or not at all, with
D = 0, in which case no appearance distance is computed. Both distances
are thresholded into a joint admissibility gate, motion first: no pair
outside the motion gate can be admissible, so the pairs inside it are
taken once, as index arrays, and only they get an appearance distance,
gate and combined cost. Appearance distances come in that pair form, one
product per pair and one maximum reduction over a block of at most
PRODUCT_BLOCK products. The gated costs form one cost matrix, solved as a
linear assignment problem, whose matches and leftovers come back as index
arrays. The second matching stage uses IoU distance instead; its IoU
kernel, in the pair form `iou_pairs`, also serves detection evaluation in
`metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError, ValidationError

# 0.95 quantile of chi-square with 4 dof: the motion gate for a 4-dim measurement.
CHI2_95_4DOF = 9.4877
DEFAULT_APPEARANCE_GATE = 0.2
# Second-stage gate on IoU distance (1 - IoU).
DEFAULT_IOU_GATE = 0.7

GALLERY_CAPACITY = 100
# The most pair products `appearance_distances` holds at once, 512 kB of
# float64; above tracker.MAX_GALLERY_CAPACITY, so that one pair's products
# always fit.
PRODUCT_BLOCK = 2**16


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
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def _boxes(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    if np.count_nonzero(a[:, 2:] <= 0):
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

    y (4, n) and s (4, n) are the tracks' projected measurement means and
    the diagonals of their covariances, a column per track, and
    measurements (4, m) holds a column per detection; tracks with ok
    False get +inf. Each residual is whitened componentwise by 1 / sqrt(s),
    with no matrix factorization, and its squares are summed in one fixed
    order, ((w0² + w1²) + w2²) + w3², so that a pair's distance does not
    depend on the other tracks and detections in the call. A track
    marked ok whose variances are not all positive raises NumericalError.
    Arrays in other shapes raise ContractError: a (1, 4) row per track
    would otherwise broadcast into a wrong (4, 4) result.
    """
    if not (y.shape[0] == measurements.shape[0] == 4 and s.shape == y.shape
            and ok.shape == y.shape[1:]):
        raise ContractError("motion_distances takes y and s as (4, n), ok as (n,) and "
                            "measurements as (4, m)")
    usable = ok.nonzero()[0]
    y, s = y.take(usable, 1), s.take(usable, 1)
    # counts the positive variances, so that NaN is rejected too
    if np.count_nonzero(s > 0) < s.size:
        raise NumericalError("projection covariance not positive-definite")
    white = measurements[:, None, :] - y[:, :, None]      # (4, u, m), a block per component
    white *= (1.0 / np.sqrt(s))[:, :, None]
    d1 = np.full((len(ok), measurements.shape[1]), np.inf)
    # a square or a sum past float max is +inf, which the finite gate keeps out
    with np.errstate(over="ignore"):
        white *= white
        d1[usable] = ((white[0] + white[1]) + white[2]) + white[3]
    return d1


def appearance_distances(gallery: np.ndarray, rows: np.ndarray, fill: np.ndarray,
                         descriptors: np.ndarray, tracks: np.ndarray,
                         cols: np.ndarray) -> np.ndarray:
    """Smallest cosine distances (k,) of the k pairs (tracks[p], cols[p]).

    gallery (S, cap, D) holds unit-norm descriptor buffers: track i's
    members are the first fill[i] slots of gallery[rows[i]]. descriptors
    (m, D) holds the detections' unit-norm descriptors. Every requested
    track must have a member; a pair whose track has none raises
    ContractError.

    Each pair (i, j) is one (f, D) @ (D,) product over a view of track i's
    filled slots, gallery[rows[i], :fill[i]].dot(descriptors[j]): nothing
    is gathered, and only filled slots are read. Each product is written
    into its place in one buffer of concatenated products, whose maxima,
    one per pair, come from one np.maximum.reduceat; the distance is
    1 - max, clipped to [0, 2]. A pair's distance does not depend on the
    other pairs requested. The buffer holds at most PRODUCT_BLOCK values:
    the pairs go through it in blocks of PRODUCT_BLOCK // cap, so that many
    requests against full galleries never hold all their products at once.
    """
    best = np.empty(len(tracks))
    step = max(1, PRODUCT_BLOCK // gallery.shape[1])   # pairs per block
    for a in range(0, len(tracks), step):
        block = slice(a, a + step)
        f = fill.take(tracks[block])
        if np.count_nonzero(f < 1):
            raise ContractError("appearance_distances takes only tracks with gallery members")
        ends = np.cumsum(f)
        products = np.empty(ends[-1])
        for r, n, j, end in zip(rows.take(tracks[block]).tolist(), f.tolist(),
                                cols[block].tolist(), ends.tolist()):
            gallery[r, :n].dot(descriptors[j], out=products[end - n:end])
        best[block] = np.maximum.reduceat(products, ends - f)
    np.subtract(1.0, best, out=best)
    return np.clip(best, 0.0, 2.0, out=best)


def build_cost_matrix(
    y: np.ndarray,
    s: np.ndarray,
    ok: np.ndarray,
    measurements: np.ndarray,
    gallery: np.ndarray,
    rows: np.ndarray,
    fill: np.ndarray,
    descriptors: np.ndarray,
    lam: float,
    t1: float = CHI2_95_4DOF,
    t2: float = DEFAULT_APPEARANCE_GATE,
) -> CostMatrix:
    """Weighted sum of motion and appearance distances, gated.

    Tracks come as in `motion_distances` and `appearance_distances`, and
    detections as their (4, m) measurement vectors plus descriptors (m, D),
    with D = 0 when the detections carry none. The motion gate goes first:
    only a pair inside it can be admissible, so the pairs inside it whose
    track has a gallery member are taken once, as index arrays, and only
    they get an appearance distance, gate and combined cost.
    cost = lam * d_motion + (1 - lam) * d_appearance on admissible pairs;
    everything else holds +inf. Pairs for which no appearance distance
    exists (no gallery member or no descriptor) keep motion-only cost and
    a motion-only gate; when no pair has both, `appearance_distances` is
    not called at all. Both gates must be positive and the motion gate t1
    finite: the tracks that are not ok get a motion distance of +inf,
    which a finite gate keeps out.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"lambda must be in [0,1], got {lam}")
    if not (0 < t1 < np.inf and t2 > 0):
        raise ValidationError("gate thresholds must be positive, the motion gate finite")
    d1 = motion_distances(y, s, ok, measurements)
    # the rows that are not ok hold +inf, outside the finite gate
    admissible = d1 <= t1
    values = np.where(admissible, d1, np.inf)
    if not (descriptors.shape[1] and np.count_nonzero(fill)):
        return CostMatrix(values=values, admissible=admissible)
    # the pairs inside the motion gate that have an appearance distance
    tracks, cols = np.nonzero(admissible & (fill > 0)[:, None])
    d2 = appearance_distances(gallery, rows, fill, descriptors, tracks, cols)
    inside = d2 <= t2
    admissible[tracks, cols] = inside
    values[tracks, cols] = np.where(inside, lam * values[tracks, cols] + (1.0 - lam) * d2,
                                    np.inf)
    return CostMatrix(values=values, admissible=admissible)


def measurements_of(boxes: np.ndarray) -> np.ndarray:
    """(4, m) measurement vectors (center x, center y, aspect, height), a
    column per box, of (m, 4) boxes."""
    out = boxes.T.copy()   # x, y, w, h, turned into u, v, g, h in place
    out[:2] += out[2:] / 2.0
    out[2] /= out[3]
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
    n, m = admissible.shape
    rows, cols = admissible.nonzero()   # row-major, so rows ascend
    # a pair is forced when it is the only admissible one in its row and
    # in its column; the counts come from the admissible pairs, not from
    # the whole matrix
    forced = (np.bincount(rows, minlength=n)[rows] == 1) \
        & (np.bincount(cols, minlength=m)[cols] == 1)
    if np.count_nonzero(forced) == len(rows):   # every admissible pair is forced
        return rows, cols
    open_rows = np.bincount(rows[~forced], minlength=n).nonzero()[0]
    open_cols = np.bincount(cols[~forced], minlength=m).nonzero()[0]
    rows, cols = rows[forced], cols[forced]
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
        # sorted from a set: np.unique would load numpy.ma on first use
        for level in sorted(set(open_levels.tolist())):
            group = open_rows[open_levels == level]
            block = np.ix_(group, open_cols)
            sub_rows, sub_cols = _assign(values[block], admissible[block], None)
            rows = np.concatenate([rows, group[sub_rows]])
            cols = np.concatenate([cols, open_cols[sub_cols]])
            open_cols = np.delete(open_cols, sub_cols)
    order = np.argsort(rows)
    return rows[order], cols[order]
