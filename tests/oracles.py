"""Independent reference implementations the tests check the engine against.

Everything here is deliberately brute force: permutation enumeration for
assignment, threshold enumeration for average precision, direct
definition-scanning for the interpolated precision, one-track, one-pair
scalar forms of the engine's batched Kalman, distance and IoU kernels,
the Kalman steps and the Mahalanobis distance batched in their dense
8-by-8 form with LAPACK calls, which the engine's elementwise block form
must match bit for bit, the gallery cosine distance with one product and
one max per pair, which the engine's blocked reduction must match bit for
bit, the calibration transform with its trigonometry
evaluated afresh on every call, trajectory assembly one track row at a
time, detection parsing one row at a time, detection evaluation one
`Detection` row at a time, evaluation files read one row at a time, and
the matching cascade one miss age at a time. The row parsers check each
field against the input contract restated here (its bounds and
messages), not with the parser's own checks. Two oracles share code with
the package under test: cascade_by_age solves each age's
slice with the engine's `assoc.solve_assignment` (checked against the
brute-force assignment on its own): what it checks is the split into
ages, not the solve of a slice. And generate_by_scan maps each world
position to pixels with the engine's `calib.to_pixel` and draws the
embedding means with `synth`'s own helper: what it checks is the sampled
positions (scalar `world_pos`), which agents are visited on a frame, in
which order, which interval holds each frame, and the crossing (scalar
`segments_intersect` and its direction test).
"""

import itertools
import math

import numpy as np
import scipy.linalg
import scipy.special

from trafficstate import synth
from trafficstate.assoc import CostMatrix, solve_assignment
from trafficstate.calib import to_pixel
from trafficstate.detstream import Detection
from trafficstate.errors import NumericalError, ParseError, ValidationError


def brute_force_gated_assignment(values: np.ndarray, admissible: np.ndarray):
    """(most admissible matches, least total cost among those) of a gated matrix.

    Every matching of admissible pairs is the admissible part of some map of
    the smaller side into the larger, so enumerating those maps finds both.
    The values of inadmissible cells are never read.
    """
    if values.shape[0] > values.shape[1]:
        values, admissible = values.T, admissible.T
    n, m = values.shape
    best = (0, 0.0)
    for cols in itertools.permutations(range(m), n):
        pairs = [(i, j) for i, j in enumerate(cols) if admissible[i, j]]
        cost = sum(values[i, j] for i, j in pairs)
        if (len(pairs), -cost) > (best[0], -best[1]):
            best = (len(pairs), cost)
    return best


def cascade_by_age(values: np.ndarray, admissible: np.ndarray, misses: np.ndarray):
    """DeepSORT's matching cascade, one miss age at a time, freshest first.

    Each age solves the slice of all its rows and the columns the younger
    ages left unmatched. Returns (matches (k, 2) by row, unmatched rows,
    unmatched columns), each ascending.
    """
    remaining = np.arange(values.shape[1])
    rows, cols, leftover = [], [], []
    for age in sorted(set(misses.tolist())):
        group = np.flatnonzero(misses == age)
        cells = np.ix_(group, remaining)
        result = solve_assignment(CostMatrix(values=values[cells],
                                             admissible=admissible[cells]))
        rows += group[result.matches[:, 0]].tolist()
        cols += remaining[result.matches[:, 1]].tolist()
        leftover += group[result.unmatched_tracks].tolist()
        remaining = remaining[result.unmatched_detections]
    matches = np.array(sorted(zip(rows, cols)), dtype=np.int64).reshape(-1, 2)
    return matches, np.array(sorted(leftover), dtype=np.int64), remaining


def threshold_enumeration_ap(labeled, n_gt: int) -> float:
    """Average precision by enumerating every confidence threshold.

    For each prefix of the confidence-ranked detections, recount TP/FP from
    scratch; interpolated precision at each recall level is found by
    scanning all thresholds (no running-max trick); the area is the sum of
    recall-step rectangles.
    """
    order = sorted(range(len(labeled)), key=lambda i: (-labeled[i][0], i))
    flags = [labeled[i][1] for i in order]
    points = []
    for k in range(1, len(flags) + 1):
        prefix = flags[:k]
        tp = sum(1 for f in prefix if f)
        points.append((tp / n_gt, tp / k))
    ap = 0.0
    prev_recall = 0.0
    for idx, (r, _) in enumerate(points):
        if r == prev_recall:
            continue
        p_interp = max(p for rr, p in points if rr >= r)
        ap += (r - prev_recall) * p_interp
        prev_recall = r
    return ap


def simulate_constant_velocity(kf, h, pos0, vel, steps):
    """Drive a filter with exact linear measurements; return error history.

    Yields (step, position error inf-norm, velocity error inf-norm) after
    each predict/update cycle of the noiseless constant-velocity sequence,
    run through the filter's batched operations with one track.
    """
    # one track: a measurement column (4, 1), so means (8, 1) and covs (3, 4, 1)
    means, covs = kf.initiate(np.array([[pos0[0]], [pos0[1]], [0.5], [h]]))
    history = []
    for k in range(1, steps + 1):
        true_pos = pos0 + vel * k
        z = np.array([[true_pos[0]], [true_pos[1]], [0.5], [h]])
        means, covs = kf.predict_many(means, covs)
        means, covs = kf.update_many(means, covs, z, *kf.project_many(means, covs))
        pos_err = float(np.max(np.abs(means[:2, 0] - true_pos)))
        vel_err = float(np.max(np.abs(means[4:6, 0] - vel)))
        history.append((k, pos_err, vel_err))
    return history


# -- single-track Kalman steps ------------------------------------------------
# Noise stds scale with box height h except for the aspect-ratio terms; the
# filter's parameters are read from kf, the schedules are written out here.

def _transition():
    f = np.eye(8)
    f[:4, 4:] = np.eye(4)
    return f


def kalman_initiate(kf, z):
    """(mean (8,), cov (8, 8)) of one track started from measurement z (4,):
    the mean is z with zero velocities, the covariance diagonal."""
    h, wp, wv = z[3], kf.pos_weight, kf.vel_weight
    std = np.array([2 * wp * h, 2 * wp * h, kf.aspect_proc_std, 2 * wp * h,
                    10 * wv * h, 10 * wv * h, kf.aspect_vel_std, 10 * wv * h])
    mean = np.zeros(8)
    mean[:4] = z
    return mean, np.diag(std * std)


def kalman_predict(kf, mean, cov):
    """One constant-velocity step of one track's (mean (8,), cov (8, 8))."""
    h, wp, wv = mean[3], kf.pos_weight, kf.vel_weight
    std = np.array([wp * h, wp * h, kf.aspect_proc_std, wp * h,
                    wv * h, wv * h, kf.aspect_vel_std, wv * h])
    f = _transition()
    cov = f @ cov @ f.T + np.diag(std * std)
    return f @ mean, 0.5 * (cov + cov.T)


def kalman_project(kf, mean, cov):
    """(y (4,), s (4, 4)): one track's belief in measurement space."""
    h, wp = mean[3], kf.pos_weight
    std = np.array([wp * h, wp * h, kf.aspect_meas_std, wp * h])
    s = cov[:4, :4] + np.diag(std * std)
    return mean[:4].copy(), 0.5 * (s + s.T)


def kalman_update(kf, mean, cov, z):
    """Kalman correction of one track against measurement z (4,)."""
    y, s = kalman_project(kf, mean, cov)
    chol = scipy.linalg.cho_factor(s, lower=True)
    gain = scipy.linalg.cho_solve(chol, cov[:, :4].T).T
    mean = mean + gain @ (np.asarray(z, dtype=np.float64) - y)
    cov = cov - gain @ s @ gain.T
    mean[2] = max(mean[2], 1e-6)  # aspect and height floors
    mean[3] = max(mean[3], 1e-6)
    return mean, 0.5 * (cov + cov.T)


# -- the filter's batched steps in dense 8 x 8 form ------------------------------
# The engine holds each covariance as (3, 4) blocks and works elementwise;
# these are the same steps written with full matrices and LAPACK calls.

def dense_covariance(blocks):
    """(n, 8, 8) covariances from the engine's (3, 4, n) blocks: rows
    a = P[i, i], b = P[i, i + 4] = P[i + 4, i] and c = P[i + 4, i + 4]."""
    blocks = np.moveaxis(np.asarray(blocks, dtype=np.float64), -1, 0)
    i = np.arange(4)
    dense = np.zeros((len(blocks), 8, 8))
    dense[:, i, i] = blocks[:, 0]
    dense[:, i, i + 4] = blocks[:, 1]
    dense[:, i + 4, i] = blocks[:, 1]
    dense[:, i + 4, i + 4] = blocks[:, 2]
    return dense


def _stds(kf, h):
    """(process (n, 8), measurement (n, 4)) noise stds at box heights h (n,)."""
    wp, wv = kf.pos_weight, kf.vel_weight
    one = np.ones_like(h)
    process = np.stack([wp * h, wp * h, kf.aspect_proc_std * one, wp * h,
                        wv * h, wv * h, kf.aspect_vel_std * one, wv * h], axis=-1)
    measurement = np.stack([wp * h, wp * h, kf.aspect_meas_std * one, wp * h], axis=-1)
    return process, measurement


def dense_predict_many(kf, means, covs):
    """Predict of stacked states (n, 8) and dense covariances (n, 8, 8)."""
    std = _stds(kf, means[:, 3])[0]
    f = _transition()
    means = means @ f.T
    covs = f @ covs @ f.T
    idx = np.arange(8)
    covs[:, idx, idx] += std * std
    covs = 0.5 * (covs + np.transpose(covs, (0, 2, 1)))
    return means, covs


def dense_project_many(kf, means, covs):
    """(y (n, 4), S (n, 4, 4), ok (n,)): ok is the eigenvalue condition test."""
    std = _stds(kf, means[:, 3])[1]
    y = means[:, :4].copy()
    s = covs[:, :4, :4].copy()
    idx = np.arange(4)
    s[:, idx, idx] += std * std
    s = 0.5 * (s + np.transpose(s, (0, 2, 1)))
    eig = np.linalg.eigvalsh(s)
    ok = (eig[:, 0] > 0) & (eig[:, -1] <= 1e12 * eig[:, 0])
    return y, s, ok


def dense_update_many(means, covs, measurements, y, s, ok):
    """Update of dense states by a gain from a LAPACK solve against S (n, 4, 4)."""
    if not np.all(ok):
        raise NumericalError("ill-conditioned innovation covariance in batch")
    ph_t = covs[:, :, :4]
    gain = np.transpose(np.linalg.solve(s, np.transpose(ph_t, (0, 2, 1))), (0, 2, 1))
    innov = measurements - y
    means = means + (gain @ innov[:, :, None])[:, :, 0]
    covs = covs - gain @ s @ np.transpose(gain, (0, 2, 1))
    means[:, 2] = np.maximum(means[:, 2], 1e-6)  # aspect and height floors
    means[:, 3] = np.maximum(means[:, 3], 1e-6)
    covs = 0.5 * (covs + np.transpose(covs, (0, 2, 1)))
    return means, covs


def cholesky_motion_distances(y, s, ok, measurements):
    """All-pairs squared Mahalanobis distances (n, m) against dense S (n, 4, 4),
    each residual whitened by the inverse of a Cholesky factor and its
    squares summed as ((w0² + w1²) + w2²) + w3²; +inf where ok is False."""
    d1 = np.full((len(y), len(measurements)), np.inf)
    if not ok.any() or len(measurements) == 0:
        return d1
    resid = measurements.T[None, :, :] - y[ok][:, :, None]
    try:
        chol = np.linalg.cholesky(s[ok])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"projection covariance not positive-definite: {exc}") from None
    white = np.linalg.inv(chol) @ resid
    sq = white * white
    d1[ok] = ((sq[:, 0] + sq[:, 1]) + sq[:, 2]) + sq[:, 3]
    return d1


# -- association distances, one pair at a time ----------------------------------

def mahalanobis_sq(y, s, d):
    """Squared Mahalanobis distance of measurement d from N(y, s), the
    squares of the whitened residual summed as ((z0² + z1²) + z2²) + z3²."""
    resid = np.asarray(d, dtype=np.float64) - y
    z = scipy.linalg.solve_triangular(np.linalg.cholesky(s), resid, lower=True)
    sq = z * z
    return float(((sq[0] + sq[1]) + sq[2]) + sq[3])


def cosine_gallery_distance(members, r):
    """Smallest cosine distance between query r and any gallery member row."""
    dots = [float(np.dot(m, r)) for m in members]
    return min(2.0, max(0.0, 1.0 - max(dots)))


def appearance_by_pairs(gallery, rows, fill, descriptors, tracks, cols):
    """`assoc.appearance_distances` with a product and a max per pair:
    1 - max(gallery[rows[i], :fill[i]] @ descriptors[j]) for each pair
    (tracks[p], cols[p]), clipped to [0, 2]."""
    best = [(gallery[r, :f] @ descriptors[j]).max()
            for r, f, j in zip(rows[tracks].tolist(), fill[tracks].tolist(), cols.tolist())]
    return np.clip(1.0 - np.array(best, dtype=np.float64), 0.0, 2.0)


def gate(d1, d2, t1, t2):
    """Admissible iff both distances sit within their gating regions."""
    return d1 <= t1 and d2 <= t2


def iou(box_a, box_b):
    """Intersection over union of two (x, y, w, h) pixel boxes."""
    ax, ay, aw, ah = box_a
    bx, by, bw, bh = box_b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def calib_to_world(x, y, phi, omega, delta_deg, x0, y0):
    """Skewed image point (pixels) to world (meters), trig taken per call."""
    sin_d = float(scipy.special.sindg(delta_deg))
    cot = float(scipy.special.cosdg(delta_deg)) / sin_d
    return x0 + (x + phi * cot * y) / phi, y0 + y * sin_d / omega


def calib_to_pixel(wx, wy, phi, omega, delta_deg, x0, y0):
    """Inverse of calib_to_world, trig taken per call."""
    sin_d = float(scipy.special.sindg(delta_deg))
    cot = float(scipy.special.cosdg(delta_deg)) / sin_d
    y = (wy - y0) * omega / sin_d
    return (wx - x0) * phi - phi * cot * y, y


def greedy_match(detections, ground_truths, iou_threshold, same_class=True):
    """Confidence-ordered greedy matching by a double loop over scalar IoU.

    Returns the matched ground-truth index (or -1) per detection.
    """
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i].confidence, i))
    matched_gt = [-1] * len(detections)
    taken = set()
    for i in order:
        best_j, best_iou = None, 0.0
        for j, gt in enumerate(ground_truths):
            if j in taken or (same_class and gt.class_id != detections[i].class_id):
                continue
            overlap = iou(detections[i].bbox, gt.bbox)
            if overlap >= iou_threshold and overlap > best_iou:
                best_j, best_iou = j, overlap
        if best_j is not None:
            matched_gt[i] = best_j
            taken.add(best_j)
    return matched_gt


def evaluate_by_rows(predictions, ground_truths, n_classes, iou_threshold):
    """Detection evaluation over frame-indexed lists of Detection rows.

    Each frame is matched twice by greedy_match, class-aware for the hit
    labels and class-agnostic for the confusion counts; average precision
    comes from threshold enumeration. Returns a dict with per-class n_gt,
    labeled (confidence, hit) lists and ap (None without ground truth),
    and map_50 and confusion.
    """
    n_gt = [0] * n_classes
    labeled = [[] for _ in range(n_classes)]
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for frame in sorted(set(predictions) | set(ground_truths)):
        dets, gts = predictions.get(frame, []), ground_truths.get(frame, [])
        for box in list(dets) + list(gts):
            if not 0 <= box.class_id < n_classes:
                raise ValidationError(
                    f"class id {box.class_id} outside the {n_classes}-class catalog")
        for gt in gts:
            n_gt[gt.class_id] += 1
        hits = greedy_match(dets, gts, iou_threshold, same_class=True)
        for det, j in zip(dets, hits):
            labeled[det.class_id].append((det.confidence, j >= 0))
        for det, j in zip(dets, greedy_match(dets, gts, iou_threshold, same_class=False)):
            if j >= 0:
                confusion[gts[j].class_id, det.class_id] += 1
    ap = [threshold_enumeration_ap(labeled[k], n_gt[k]) if n_gt[k] else None
          for k in range(n_classes)]
    evaluated = [a for a in ap if a is not None]
    if not evaluated:
        raise ValidationError("no ground-truth instances to evaluate against")
    return dict(n_gt=n_gt, labeled=labeled, ap=ap,
                map_50=sum(evaluated) / len(evaluated), confusion=confusion)


# -- trajectory assembly, one track row at a time -----------------------------------

def assemble_by_rows(frames, calib):
    """(track_id, class_id, points) per track, in id order, from LiveTracks records.

    Each row's box centre goes through calib_to_world on its own; a track's
    class is its label on its last row.
    """
    by_id = {}
    for rec in frames:
        for tid, k, (x, y, w, h) in zip(rec.ids.tolist(), rec.class_ids.tolist(),
                                        rec.boxes.tolist()):
            wx, wy = calib_to_world(x + w / 2.0, y + h / 2.0, calib.phi, calib.omega,
                                    calib.delta_deg, calib.x0, calib.y0)
            entry = by_id.setdefault(tid, [tid, k, []])
            entry[1] = k
            entry[2].append((rec.frame, wx, wy))
    return [tuple(by_id[tid]) for tid in sorted(by_id)]


# -- the line-of-interest test, one segment at a time ------------------------------
# The closed-segment test and the direction sign, restated: the engine's
# elementwise pass over every segment is what these check.

def _orientation(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _in_box(p, q, r):
    return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))


def segments_meet(p1, p2, a, b):
    """Closed-segment intersection of p1 -> p2 with a -> b; collinear overlap counts."""
    o1, o2 = _orientation(p1, p2, a), _orientation(p1, p2, b)
    o3, o4 = _orientation(a, b, p1), _orientation(a, b, p2)
    if ((o1 > 0 and o2 < 0) or (o1 < 0 and o2 > 0)) \
            and ((o3 > 0 and o4 < 0) or (o3 < 0 and o4 > 0)):
        return True
    return ((o1 == 0 and _in_box(p1, p2, a)) or (o2 == 0 and _in_box(p1, p2, b))
            or (o3 == 0 and _in_box(a, b, p1)) or (o4 == 0 and _in_box(a, b, p2)))


def motion_sign(p1, p2, a, b):
    """Sign of the motion p1 -> p2 relative to a -> b, 0 when parallel."""
    cross = (b[0] - a[0]) * (p2[1] - p1[1]) - (b[1] - a[1]) * (p2[0] - p1[0])
    return (cross > 0) - (cross < 0)


def loi_crossing(loi):
    """crosses(p, q) for measure_by_rescan: the segment meets loi and, when
    loi has a direction, moves with that sign."""
    return lambda p, q: segments_meet(p, q, loi.a, loi.b) and (
        loi.direction is None or motion_sign(p, q, loi.a, loi.b) == loi.direction)


# -- interval measurement by per-interval rescan ----------------------------------

def point_rows(rows):
    """[(frame, x, y), ...] as the structured array a Trajectory's points are."""
    return np.array(rows, dtype=[("frame", np.int64), ("x", np.float64), ("y", np.float64)])


def grid_by_formula(interval_s, total_duration):
    """[(start, end), ...] of the interval grid: interval i spans i * interval_s
    to min((i + 1) * interval_s, total_duration)."""
    n = max(0, math.ceil(total_duration / interval_s - 1e-12))
    return [(i * interval_s, min((i + 1) * interval_s, total_duration)) for i in range(n)]


def measure_by_rescan(trajectories, crosses, interval_s, fps, total_duration):
    """Per-interval counts, flows and speeds, rescanning every track per interval.

    trajectories carry .class_id and .points, whose .tolist() gives
    [(frame, x, y), ...]; crosses(p, q) says whether the segment p -> q
    counts as a crossing (line test and direction filter). Returns one dict
    per interval of the grid [i * interval_s, min((i + 1) * interval_s,
    total_duration)), with keys start, end, counts, flows and speeds. A
    track counts once, at the later frame of its first counting segment, in
    interval min(int(t / interval_s), n - 1) when 0 <= t <= total_duration. Its
    speed in an interval is the path through the points with
    start <= t < end (the last interval also takes t == end) over their
    elapsed time.
    """
    out = [dict(start=start, end=end, counts={}, flows={}, speeds={})
           for start, end in grid_by_formula(interval_s, total_duration)]
    n = len(out)
    for traj in trajectories:
        pts = traj.points.tolist()
        frame = next((f1 for (_, x0, y0), (f1, x1, y1) in zip(pts, pts[1:])
                      if crosses((x0, y0), (x1, y1))), None)
        if frame is None or n == 0 or not 0 <= frame / fps <= total_duration:
            continue
        counts = out[min(int(frame / fps / interval_s), n - 1)]["counts"]
        counts[traj.class_id] = counts.get(traj.class_id, 0) + 1
    for m in out:
        for k, c in m["counts"].items():
            m["flows"][k] = c * 3600.0 / interval_s
    for idx, m in enumerate(out):
        closed = idx == n - 1
        for traj in trajectories:
            inside = [(f, x, y) for f, x, y in traj.points.tolist()
                      if m["start"] <= f / fps < m["end"]
                      or (closed and f / fps == m["end"])]
            if len(inside) < 2:
                continue
            path = 0.0
            for (_, x0, y0), (_, x1, y1) in zip(inside, inside[1:]):
                path += math.hypot(x1 - x0, y1 - y0)
            elapsed = (inside[-1][0] - inside[0][0]) / fps
            m["speeds"].setdefault(traj.class_id, []).append(path / elapsed)
    return out


def rows_from_rescan(measured):
    """measure_by_rescan's intervals as intervals-file rows: a tuple
    (interval, start, end, class, count, flow_vph, mean_speed_kmh,
    n_speed_tracks) for each class with a crossing or a speed, in
    (interval, class) order; the mean is None without a speed."""
    rows = []
    for i, m in enumerate(measured):
        for k in sorted(m["counts"].keys() | m["speeds"].keys()):
            speeds = m["speeds"].get(k, [])
            mean = sum(speeds) / len(speeds) * 3.6 if speeds else None
            rows.append((i, m["start"], m["end"], k, m["counts"].get(k, 0),
                         m["flows"].get(k, 0.0), mean, len(speeds)))
    return rows


def row_fields(row):
    """An IntervalRow as a rows_from_rescan tuple: nan compares as None."""
    mean = None if math.isnan(row.mean_speed_kmh) else row.mean_speed_kmh
    return (row.interval, row.start, row.end, row.class_id, row.count, row.flow_vph, mean,
            row.n_speed_tracks)


# -- detection parsing, one row at a time ---------------------------------------
# The input contract's bounds and messages, restated: the engine's field checks
# are what these oracles check.

MAX_BOX_PX = 1e5
MAX_CLASS_ID = 2**63 - 1
UNIT_NORM_TOL = 1e-9


def parse_head(parts, line_no, path):
    """(frame, x, y, w, h, conf, class_id) of a row's first 7 fields, each
    converted by int() or float(), then checked in the contract's order."""
    try:
        frame = int(parts[0])
        x, y, w, h = (float(p) for p in parts[1:5])
        conf = float(parts[5])
        class_id = int(parts[6])
    except ValueError as exc:
        raise ParseError(f"unparseable field ({exc})", line_no, path) from None
    box = (x, y, w, h)
    if not all(-MAX_BOX_PX <= v <= MAX_BOX_PX for v in box):
        raise ParseError(f"bounding box values must be finite and within "
                         f"±{MAX_BOX_PX:g} px, got {box}", line_no, path)
    if frame < 1:
        raise ParseError(f"frame index must be >= 1, got {frame}", line_no, path)
    if class_id < 0 or class_id > MAX_CLASS_ID:
        raise ParseError(f"class id must be in [0, {MAX_CLASS_ID}], got {class_id}",
                         line_no, path)
    if not (w > 0 and h > 0):
        raise ParseError(f"bounding box width/height must be positive, got ({w}, {h})",
                         line_no, path)
    if not (0.0 <= conf <= 1.0):
        raise ParseError(f"confidence must be in [0,1], got {conf}", line_no, path)
    return frame, x, y, w, h, conf, class_id


def parse_descriptor(fields, line_no, path):
    """One row's descriptor, each value read by float(), at unit norm.

    A descriptor within 1e-9 of unit norm is kept as written; one whose
    squares overflow or underflow is first divided by its largest |value|.
    """
    try:
        raw = [float(p) for p in fields]
    except ValueError as exc:
        raise ParseError(f"unparseable embedding ({exc})", line_no, path) from None
    if not all(math.isfinite(v) for v in raw):
        raise ParseError("non-finite embedding value", line_no, path)
    if not any(raw):
        raise ParseError("appearance descriptor has zero norm", line_no, path)
    v = np.array(raw)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm == 0.0 or math.isinf(norm):
        v = v / max(abs(x) for x in raw)
        norm = float(np.linalg.norm(v))
    return v if abs(norm - 1.0) <= UNIT_NORM_TOL else v / norm


def parse_row(parts, line_no, path):
    """(frame, Detection, embedding dim) of one fully split row; dim 0 means
    no descriptor."""
    frame, x, y, w, h, conf, class_id = parse_head(parts, line_no, path)
    dim = len(parts) - 7
    appearance = parse_descriptor(parts[7:], line_no, path) if dim > 0 else None
    det = Detection(frame=frame, class_id=class_id, bbox=(x, y, w, h),
                    confidence=conf, appearance=appearance)
    return frame, det, dim


def parse_by_rows(source, min_confidence=0.0, path=None):
    """Yield (frame, [Detection, ...]) per frame of a detection stream.

    Each row is split in full and parsed alone by parse_row, its
    descriptor read with float() and normalized by itself; its dimension
    and frame order are checked after that, and rows below min_confidence
    are dropped only then.
    """
    embed_dim = None
    current_frame = None
    batch = []

    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 7:
            raise ParseError(
                f"expected at least 7 comma-separated columns, got {len(parts)}",
                line_no, path,
            )
        frame, det, dim = parse_row(parts, line_no, path)

        if embed_dim is None:
            embed_dim = dim
        elif dim != embed_dim:
            raise ParseError(
                f"embedding dimension {dim} does not match expected {embed_dim}",
                line_no, path,
            )

        if current_frame is None:
            current_frame = frame
        elif frame < current_frame:
            raise ParseError(
                f"frame {frame} after frame {current_frame}; stream must be "
                "ordered by frame", line_no, path,
            )
        elif frame > current_frame:
            yield current_frame, batch
            current_frame, batch = frame, []

        if det.confidence >= min_confidence:
            batch.append(det)

    if current_frame is not None:
        yield current_frame, batch


def load_boxes_by_rows(source, require_confidence=False, path=None):
    """{frame: [Detection, ...]} of an evaluation file, frames in the order
    of their first row and each frame's rows in file order.

    A 6-column row is a ground truth without confidence; every other row is
    read by parse_row, its descriptor checked and then dropped. Ground
    truths (require_confidence False) all get confidence 1.0.
    """
    frames = {}
    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) == 6:
            if require_confidence:
                raise ParseError("prediction rows need a confidence column", line_no, path)
            parts = parts[:5] + ["1.0", parts[5]]
        elif len(parts) < 6:
            raise ParseError(f"expected at least 6 comma-separated columns, got {len(parts)}",
                             line_no, path)
        frame, det, _ = parse_row(parts, line_no, path)
        det.appearance = None
        if not require_confidence:
            det.confidence = 1.0
        frames.setdefault(frame, []).append(det)
    return frames


# -- synthetic scenes, every agent checked on every frame ----------------------------

def _alive_frames(agent, n_frames):
    last = n_frames if agent.end_frame is None else min(agent.end_frame, n_frames)
    return range(agent.spawn_frame, last + 1)


def world_pos(agent, frame, fps):
    """An agent's world position on a frame, from its constant velocity."""
    dt = (frame - agent.spawn_frame) / fps
    return agent.x0_m + agent.vx_mps * dt, agent.y0_m + agent.vy_mps * dt


def segments_intersect(p1, p2, a, b):
    """Closed-segment intersection by solving the parametric 2x2 system."""
    rx, ry = p2[0] - p1[0], p2[1] - p1[1]
    sx, sy = b[0] - a[0], b[1] - a[1]
    qx, qy = a[0] - p1[0], a[1] - p1[1]
    denom = rx * sy - ry * sx
    if denom == 0.0:
        if qx * ry - qy * rx != 0.0:
            return False
        rr = rx * rx + ry * ry
        if rr == 0.0:
            return (min(a[0], b[0]) <= p1[0] <= max(a[0], b[0])
                    and min(a[1], b[1]) <= p1[1] <= max(a[1], b[1]))
        t0 = (qx * rx + qy * ry) / rr
        t1 = t0 + (sx * rx + sy * ry) / rr
        return max(min(t0, t1), 0.0) <= min(max(t0, t1), 1.0)
    t = (qx * sy - qy * sx) / denom
    u = (qx * ry - qy * rx) / denom
    return 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0


def generate_by_scan(spec, loi, interval_s):
    """synth.generate, testing every agent for life on every frame, and
    rescanning each agent's frames once per interval for the ground truth.
    The truth has synth.GroundTruth's fields, its trajectories as one list
    of (frame, x, y) tuples per agent."""
    rng = np.random.default_rng(spec.seed)
    n_frames = spec.n_frames
    occluded = set()
    for agent_idx, first, last in spec.occlusions:
        for f in range(first, last + 1):
            occluded.add((agent_idx, f))
    means = None
    if spec.embedding_dim > 0:
        means = synth._embedding_means(len(spec.agents), spec.embedding_dim, rng)
    batches = []
    for frame in range(1, n_frames + 1):
        dets = []
        for idx, agent in enumerate(spec.agents):
            if frame not in _alive_frames(agent, n_frames):
                continue
            if (idx, frame) in occluded:
                continue
            if spec.miss_prob > 0 and rng.random() < spec.miss_prob:
                continue
            wx, wy = world_pos(agent, frame, spec.fps)
            cx, cy = to_pixel(wx, wy, spec.calibration)
            if spec.noise_std_px > 0:
                offset = rng.normal(0.0, spec.noise_std_px, size=2)
                cx, cy = cx + offset[0], cy + offset[1]
            bbox = (cx - agent.box_w_px / 2.0, cy - agent.box_h_px / 2.0,
                    agent.box_w_px, agent.box_h_px)
            appearance = None
            if means is not None:
                vec = means[idx]
                if spec.embedding_noise_std > 0:
                    vec = vec + rng.normal(0.0, spec.embedding_noise_std,
                                           size=spec.embedding_dim)
                norm = np.linalg.norm(vec)
                if norm == 0.0:
                    vec = means[idx]
                    norm = 1.0
                appearance = vec / norm
            dets.append(Detection(frame=frame, class_id=agent.class_id,
                                  bbox=bbox, confidence=1.0,
                                  appearance=appearance))
        batches.append((frame, dets))
    return batches, _ground_truth_by_scan(spec, loi, interval_s)


def _ground_truth_by_scan(spec, loi, interval_s):
    n_frames = spec.n_frames
    grid = grid_by_formula(interval_s, spec.duration_s)
    n_intervals = len(grid)
    trajectories, counts, speeds = [], {}, {}
    for agent in spec.agents:
        frames = _alive_frames(agent, n_frames)
        traj = [(f, *world_pos(agent, f, spec.fps)) for f in frames]
        trajectories.append(traj)

        crossing_frame = None
        for (f0, x0, y0), (f1, x1, y1) in zip(traj, traj[1:]):
            if not segments_intersect((x0, y0), (x1, y1), loi.a, loi.b):
                continue
            if loi.direction is not None:
                cross = (loi.b[0] - loi.a[0]) * (y1 - y0) \
                    - (loi.b[1] - loi.a[1]) * (x1 - x0)
                sign = (cross > 0) - (cross < 0)
                if sign != loi.direction:
                    continue
            crossing_frame = f1
            break
        if crossing_frame is not None:
            t = crossing_frame / spec.fps
            if t <= spec.duration_s and n_intervals > 0:
                key = (min(int(t / interval_s), n_intervals - 1), agent.class_id)
                counts[key] = counts.get(key, 0) + 1

        for i, (start, end) in enumerate(grid):
            closed_end = i == n_intervals - 1
            inside = [
                f for f in frames
                if start <= f / spec.fps < end
                or (closed_end and f / spec.fps == end)
            ]
            if len(inside) >= 2:
                speeds.setdefault((i, agent.class_id), []).append(agent.speed_mps)
    return synth.GroundTruth(trajectories=trajectories, counts=counts, speeds=speeds,
                             interval_s=interval_s, total_duration=spec.duration_s)
