"""Independent reference implementations the tests check the engine against.

Everything here is deliberately brute force: permutation enumeration for
assignment, threshold enumeration for average precision, direct
definition-scanning for the interpolated precision, and one-track,
one-pair scalar forms of the engine's batched Kalman, distance and IoU
kernels, the calibration transform with its trigonometry evaluated
afresh on every call, trajectory assembly one track row at a time, and
detection parsing one row at a time. None of it shares code with the
package under test, except that parse_by_rows reads each row with
`detstream.parse_row`: what it checks the batched parser against is the
grouping into frames, the order in which a row's errors are raised, and
each descriptor's values and normalization computed alone.
"""

import itertools
import math

import numpy as np
import scipy.linalg
import scipy.special

from trafficstate.detstream import parse_row
from trafficstate.errors import ParseError


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
    mean, cov = kf.initiate(np.array([pos0[0], pos0[1], 0.5, h]))
    means, covs = mean[None], cov[None]
    history = []
    for k in range(1, steps + 1):
        true_pos = pos0 + vel * k
        z = np.array([[true_pos[0], true_pos[1], 0.5, h]])
        means, covs = kf.predict_many(means, covs)
        means, covs = kf.update_many(means, covs, z, *kf.project_many(means, covs))
        pos_err = float(np.max(np.abs(means[0, :2] - true_pos)))
        vel_err = float(np.max(np.abs(means[0, 4:6] - vel)))
        history.append((k, pos_err, vel_err))
    return history


# -- single-track Kalman steps ------------------------------------------------
# Noise stds scale with box height h except for the aspect-ratio terms; the
# filter's parameters are read from kf, the schedules are written out here.

def _transition():
    f = np.eye(8)
    f[:4, 4:] = np.eye(4)
    return f


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


# -- association distances, one pair at a time ----------------------------------

def mahalanobis_sq(y, s, d):
    """Squared Mahalanobis distance of measurement d from N(y, s)."""
    resid = np.asarray(d, dtype=np.float64) - y
    z = scipy.linalg.solve_triangular(np.linalg.cholesky(s), resid, lower=True)
    return float(z @ z)


def cosine_gallery_distance(members, r):
    """Smallest cosine distance between query r and any gallery member row."""
    dots = [float(np.dot(m, r)) for m in members]
    return min(2.0, max(0.0, 1.0 - max(dots)))


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


# -- interval measurement by per-interval rescan ----------------------------------

def measure_by_rescan(trajectories, crosses, interval_s, fps, total_duration):
    """Per-interval counts, flows and speeds, rescanning every track per interval.

    trajectories carry .class_id and .points [(frame, x, y), ...];
    crosses(p, q) says whether the segment p -> q counts as a crossing
    (line test and direction filter). Returns one dict per interval of the
    grid [i * interval_s, min((i + 1) * interval_s, total_duration)), with
    keys start, end, counts, flows and speeds. A track counts once, at the
    later frame of its first counting segment, in interval
    min(int(t / interval_s), n - 1) when t <= total_duration. Its speed in
    an interval is the path through the points with start <= t < end (the
    last interval also takes t == end) over their elapsed time.
    """
    n = max(0, math.ceil(total_duration / interval_s - 1e-12))
    out = [dict(start=i * interval_s, end=min((i + 1) * interval_s, total_duration),
                counts={}, flows={}, speeds={}) for i in range(n)]
    for traj in trajectories:
        pts = traj.points
        frame = next((f1 for (_, x0, y0), (f1, x1, y1) in zip(pts, pts[1:])
                      if crosses((x0, y0), (x1, y1))), None)
        if frame is None or n == 0 or frame / fps > total_duration:
            continue
        counts = out[min(int(frame / fps / interval_s), n - 1)]["counts"]
        counts[traj.class_id] = counts.get(traj.class_id, 0) + 1
    for m in out:
        for k, c in m["counts"].items():
            m["flows"][k] = c * 3600.0 / interval_s
    for idx, m in enumerate(out):
        closed = idx == n - 1
        for traj in trajectories:
            inside = [(f, x, y) for f, x, y in traj.points
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


# -- detection parsing, one row at a time ---------------------------------------

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
