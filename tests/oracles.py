"""Independent reference implementations the tests check the engine against.

Everything here is deliberately brute force: permutation enumeration for
assignment, threshold enumeration for average precision, direct
definition-scanning for the interpolated precision, and one-track,
one-pair scalar forms of the engine's batched Kalman, distance and IoU
kernels. None of it shares code with the package under test.
"""

import itertools
import math

import numpy as np
import scipy.linalg


def brute_force_assignment(values: np.ndarray) -> float:
    """Minimum total cost over all maximum-cardinality partial permutations.

    Enumerates every way to pair each row (or column, whichever side is
    smaller) with a distinct column (row); cost includes sentinel entries.
    """
    n, m = values.shape
    if n == 0 or m == 0:
        return 0.0
    best = math.inf
    if n <= m:
        for cols in itertools.permutations(range(m), n):
            total = sum(values[i, j] for i, j in enumerate(cols))
            best = min(best, total)
    else:
        for rows in itertools.permutations(range(n), m):
            total = sum(values[i, j] for j, i in enumerate(rows))
            best = min(best, total)
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
    mean, cov = kf.initiate((pos0[0] - 0.25 * h, pos0[1] - 0.5 * h, 0.5 * h, h))
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


def greedy_match(detections, ground_truths, iou_threshold, same_class=True):
    """Confidence-ordered greedy matching by a double loop over scalar IoU.

    Returns the matched ground-truth index (or None) per detection.
    """
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i].confidence, i))
    matched_gt = [None] * len(detections)
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
