"""Detection evaluation metrics and measurement-validation statistics.

Evaluation side: `load_boxes` reads evaluation files with
`detstream.read_rows` into one `DetectionBatch` per frame. Greedy
confidence-ordered IoU matching gives each detection the ground truth it
claimed (or -1), from one IoU pass per frame over the pairs whose boxes
meet on both axes, both among its own class, which decides its hit, and
among all classes, which fills a true-by-predicted confusion matrix. The
report holds per-class arrays: ground-truth, detection and true-positive
counts, each one `np.bincount`, and average precision as the area under
the interpolated precision-recall step curve, from a stable sort of each
class's detections by confidence; mAP averages the classes with ground
truth. Precision, recall and F1 derive from the counts as the report is
written. Validation side: RMSE, Pearson correlation, and
a paired two-tailed t-test with exact t-distribution p-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .assoc import iou_pairs
from .detstream import DetectionBatch, numbered_rows, read_rows
from .errors import NumericalError, ParseError, ValidationError

DEFAULT_IOU_THRESHOLD = 0.5


# ---------------------------------------------------------------------------
# matching detections to ground truth


def _meeting_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of every pair of boxes a[rows], b[cols] whose extents can
    overlap on both axes, a superset of the pairs with positive IoU.

    A positive IoU needs a positive x-overlap, min(ax + aw, bx + bw) -
    max(ax, bx) > 0, so bx < ax + aw and bx + bw > ax, with the right edges
    rounded as the IoU kernel rounds them; and the same on y. With b sorted
    by left edge, the first x condition holds on a prefix; and every box
    before the first whose running maximum of right edges passes ax fails
    the second. The pairs that sweep leaves are then tested on y. No bound
    is computed by subtraction, so none can round below an overlap of one ulp.
    """
    order = np.argsort(b[:, 0], kind="stable")
    left = b[order, 0]
    reach = np.maximum.accumulate(left + b[order, 2])
    lo = np.searchsorted(reach, a[:, 0], side="right")
    hi = np.searchsorted(left, a[:, 0] + a[:, 2], side="left")
    counts = np.maximum(hi - lo, 0)
    rows = np.repeat(np.arange(len(a)), counts)
    # position within each row's run, plus the run's first sorted index
    offsets = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    cols = order[np.repeat(lo, counts) + offsets]
    ay, ah, by, bh = a[rows, 1], a[rows, 3], b[cols, 1], b[cols, 3]
    meet = (by < ay + ah) & (by + bh > ay)
    return rows[meet], cols[meet]


def match_to_ground_truth(
    detections: DetectionBatch,
    ground_truths: DetectionBatch,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> np.ndarray:
    """Greedy one-to-one matching, highest confidence first.

    Each detection claims the unclaimed ground truth with the highest IoU at
    or above the threshold, the first one on ties. Returns an (m, 2) int64
    array of the claimed ground truth per detection, or -1: column 0 among
    those of its own class, column 1 among all of them. IoU is computed only
    for the pairs whose boxes can meet on both axes; every other pair has
    IoU 0.
    """
    claimed = np.full((len(detections), 2), -1, dtype=np.int64)
    rows, cols = _meeting_pairs(detections.boxes, ground_truths.boxes)
    overlaps = iou_pairs(detections.boxes, ground_truths.boxes, rows, cols)
    # a pair is a candidate while its IoU is positive and clears the threshold
    keep = (overlaps >= iou_threshold) & (overlaps > 0.0)
    rows, cols, overlaps = rows[keep], cols[keep], overlaps[keep]
    # with no NaN confidence, this ranks as sorted(key=(-confidence, index))
    rank = np.argsort(np.argsort(-detections.confidence, kind="stable"))
    # the candidate pairs, each detection's in the order it prefers them
    order = np.lexsort((cols, -overlaps, rank[rows]))
    rows, cols = rows[order], cols[order]
    same = detections.class_ids[rows] == ground_truths.class_ids[cols]
    for column, pairs in enumerate((same, slice(None))):
        claims: dict[int, int] = {}
        taken: set[int] = set()
        for i, j in zip(rows[pairs].tolist(), cols[pairs].tolist()):
            if i not in claims and j not in taken:
                claims[i] = j
                taken.add(j)
        claimed[list(claims), column] = list(claims.values())
    return claimed


# ---------------------------------------------------------------------------
# scalar metrics


def precision(tp: int, fp: int) -> float:
    return tp / (tp + fp) if tp + fp > 0 else 0.0


def recall(tp: int, fn: int) -> float:
    return tp / (tp + fn) if tp + fn > 0 else 0.0


def f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def average_precision(confidence: np.ndarray, hits: np.ndarray, n_gt: int) -> float:
    """Area under the interpolated precision-recall curve for one class.

    confidence and hits hold one entry per detection of the class. The
    detections are ranked by descending confidence, ties in input order.
    Precision is made monotone non-increasing over recall before summing
    the recall-step rectangles in rank order.
    """
    if n_gt < 1:
        raise ValidationError("average precision needs at least one ground truth")
    # stable, so ties keep their input order; -0.0 ties with 0.0
    tp = np.cumsum(np.asarray(hits, bool)[np.argsort(-np.asarray(confidence), kind="stable")])
    envelope = np.maximum.accumulate((tp / np.arange(1, len(tp) + 1))[::-1])[::-1]
    # np.cumsum adds in order; np.sum adds pairwise
    return float(np.cumsum(np.append(0.0, np.diff(tp / n_gt, prepend=0.0) * envelope))[-1])


def mean_ap(per_class_ap: Sequence[float]) -> float:
    if len(per_class_ap) == 0:
        raise ValidationError("mean AP needs at least one evaluated class")
    return float(sum(per_class_ap)) / len(per_class_ap)


# ---------------------------------------------------------------------------
# whole-dataset evaluation


@dataclass
class EvalReport:
    """Per-class (K,) counts and AP; ap is NaN where a class has no ground truth."""

    n_gt: np.ndarray                # int64
    n_det: np.ndarray               # int64
    tp: np.ndarray                  # int64
    ap: np.ndarray                  # float64
    map_50: float
    confusion: np.ndarray           # raw match counts, true rows x predicted cols
    iou_threshold: float

    def confusion_normalized(self) -> np.ndarray:
        """Rows scaled to sum to one; all-zero rows stay zero."""
        totals = self.confusion.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(totals > 0, self.confusion / totals, 0.0)
        return out


def confusion_matrix(true_classes, pred_classes, n_classes: int) -> np.ndarray:
    """Counts of (true class, predicted class) pairs, true rows x predicted cols."""
    cells = n_classes * np.asarray(true_classes, np.int64) + np.asarray(pred_classes, np.int64)
    return np.bincount(cells, minlength=n_classes * n_classes).reshape(n_classes, n_classes)


def evaluate_detections(
    predictions: dict[int, DetectionBatch],
    ground_truths: dict[int, DetectionBatch],
    n_classes: int,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> EvalReport:
    """Full evaluation over frame-indexed predictions and ground truths.

    Each frame is matched once: its class-aware claims label the detections,
    and its class-agnostic claims fill the confusion matrix.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValidationError(f"iou threshold must be in [0, 1], got {iou_threshold}")
    frames = sorted(set(predictions) | set(ground_truths))
    none = DetectionBatch.stack(0, [])
    dets = [predictions.get(f, none) for f in frames]
    gts = [ground_truths.get(f, none) for f in frames]
    # frame by frame, the detections' class ids and then the ground truths'
    ids = np.concatenate([none.class_ids] + [b.class_ids for pair in zip(dets, gts) for b in pair])
    bad = ids[(ids < 0) | (ids >= n_classes)]
    if len(bad):
        raise ValidationError(f"class id {bad[0]} outside the {n_classes}-class catalog")
    if not any(len(g) for g in gts):
        raise ValidationError("no ground-truth instances to evaluate against")
    claims = np.concatenate([match_to_ground_truth(d, g, iou_threshold)
                             for d, g in zip(dets, gts)])
    det_classes = np.concatenate([d.class_ids for d in dets])
    gt_classes = np.concatenate([g.class_ids for g in gts])
    confidence = np.concatenate([d.confidence for d in dets])
    hits = claims[:, 0] >= 0
    n_gt = np.bincount(gt_classes, minlength=n_classes)
    n_det = np.bincount(det_classes, minlength=n_classes)
    tp = np.bincount(det_classes[hits], minlength=n_classes)
    # each class's detections as one run, in frame and then row order
    by_class = np.argsort(det_classes, kind="stable")
    ends = np.cumsum(n_det)
    ap = np.full(n_classes, np.nan)
    for k in np.flatnonzero(n_gt).tolist():
        run = by_class[ends[k] - n_det[k]:ends[k]]
        ap[k] = average_precision(confidence[run], hits[run], int(n_gt[k]))
    # the class-agnostic claims, as indices into the ground truths of all frames
    first_gt = np.repeat(np.cumsum([0] + [len(g) for g in gts[:-1]]), [len(d) for d in dets])
    agnostic = claims[:, 1] >= 0
    confusion = confusion_matrix(gt_classes[claims[agnostic, 1] + first_gt[agnostic]],
                                 det_classes[agnostic], n_classes)
    return EvalReport(n_gt=n_gt, n_det=n_det, tp=tp, ap=ap,
                      map_50=mean_ap(ap[n_gt > 0].tolist()),
                      confusion=confusion, iou_threshold=iou_threshold)


# ---------------------------------------------------------------------------
# validation statistics


def _as_series(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValidationError(f"series must be 1-d and equal length, got {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValidationError("series must hold at least 2 values")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("series must hold finite values")
    return a, b


def _scale(*series: np.ndarray) -> float:
    """1.0, or the largest |value| of the series, of length n, when it passes
    sqrt(float max / n) / 8: below that, n squares of differences of their
    values or of deviations from a mean sum to at most a quarter of float
    max. Dividing by 1.0 changes no bit."""
    largest = max(float(np.abs(s).max()) for s in series)
    n = len(series[0])
    return largest if largest > math.sqrt(np.finfo(np.float64).max / n) / 8 else 1.0


def rmse(a, b) -> float:
    a, b = _as_series(a, b)
    scale = _scale(a, b)
    return scale * float(np.sqrt(np.mean((a / scale - b / scale) ** 2)))


def pearson(a, b) -> float:
    """Pearson correlation, computed on each series over its own _scale."""
    a, b = _as_series(a, b)
    a, b = a / _scale(a), b / _scale(b)
    da = a - a.mean()
    db = b - b.mean()
    na = float(np.linalg.norm(da))
    nb = float(np.linalg.norm(db))
    if na == 0.0 or nb == 0.0:
        raise NumericalError("correlation undefined for a zero-variance series")
    return float(da @ db / (na * nb))


def paired_t_test(a, b) -> tuple[float, float]:
    """Paired two-tailed t statistic and exact p-value.

    The p-value comes from the t distribution with n-1 degrees of freedom,
    evaluated through the regularized incomplete beta function. Zero
    variance of the differences yields t=0, p=1 when the series agree and
    an infinite t (p=0) when they differ by a constant. t is the same for
    the series over their common _scale, on which it is computed. `betainc`
    is imported on first use: only `stats` needs it, and `eval`, which
    imports this module, would otherwise load `scipy.special` for nothing.
    """
    a, b = _as_series(a, b)
    scale = _scale(a, b)
    d = a / scale - b / scale
    n = d.size
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    t = mean / (sd / math.sqrt(n))
    df = n - 1
    from scipy.special import betainc

    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return t, p


# ---------------------------------------------------------------------------
# evaluation file I/O

# Ground-truth rows may drop the confidence, which load_boxes puts back as
# 1.0 before detstream.read_rows, which reads 7+ columns only, sees them:
#   frame,x,y,w,h,class            (6 columns)
#   frame,x,y,w,h,conf,class[,..]  (7+ columns, a ground truth's conf ignored)
# Descriptor columns are checked as detection rows' are, then dropped.


def load_boxes(
    source: IO[str] | Iterable[str],
    require_confidence: bool = False,
    path=None,
    n_classes: Optional[int] = None,
) -> dict[int, DetectionBatch]:
    """Frame-indexed boxes from an evaluation file, order-insensitive.

    Frames come in the order of their first row, each frame's rows in file
    order. Ground truths (require_confidence False) all get confidence 1.0;
    a line of theirs with exactly five commas gets it at its last comma.
    The rows are read by detstream.read_rows; a bad file raises the
    ParseError of its first bad row. With
    n_classes given, so does a file with a class id of n_classes or more.
    """
    lines = list(source)
    if not require_confidence:
        lines = [s if s.count(",") != 5 else ",1.0,".join(s.rsplit(",", 1)) for s in lines]
    frames, boxes, conf, class_ids, _ = read_rows(lines, 1, path)
    bad = np.flatnonzero(class_ids >= n_classes) if n_classes is not None else []
    if len(bad):
        raise ParseError(f"class id {class_ids[bad[0]]} outside the {n_classes}-class catalog",
                         numbered_rows(lines, 1)[bad[0]][0], path)
    n = len(frames)
    if not n:
        return {}
    if not require_confidence:
        conf = np.ones(n)
    order = np.argsort(frames, kind="stable")
    frames = frames[order]
    bounds = np.concatenate(([0], np.flatnonzero(frames[1:] != frames[:-1]) + 1, [n]))
    boxes, conf, class_ids = boxes[order], conf[order], class_ids[order]
    batches = {}
    # a stable sort puts each frame's first row first in its run
    for g in np.argsort(order[bounds[:-1]]).tolist():
        s, e = bounds[g], bounds[g + 1]
        frame = int(frames[s])
        batches[frame] = DetectionBatch(frame=frame, boxes=boxes[s:e], confidence=conf[s:e],
                                        class_ids=class_ids[s:e], appearance=np.empty((e - s, 0)))
    return batches


EVAL_HEADER = "class\tname\tn_gt\tn_det\ttp\tfp\tfn\tprecision\trecall\tf1\tap"


def _report_row(label: str, name: str, n_gt: int, n_det: int, tp: int, ap: float) -> str:
    fp, fn = n_det - tp, n_gt - tp
    p, r = precision(tp, fp), recall(tp, fn)
    return "\t".join([label, name, str(n_gt), str(n_det), str(tp), str(fp), str(fn),
                      f"{p:.6g}", f"{r:.6g}", f"{f1(p, r):.6g}", f"{ap:.6g}"]) + "\n"


def write_eval_report(out: IO[str], report: EvalReport, class_names) -> None:
    """Per-class rows then a summary row; the summary ap column is the mAP."""
    out.write(EVAL_HEADER + "\n")
    n_gt, n_det, tp = report.n_gt.tolist(), report.n_det.tolist(), report.tp.tolist()
    for k, ap in enumerate(report.ap.tolist()):
        out.write(_report_row(str(k), class_names[k], n_gt[k], n_det[k], tp[k], ap))
    out.write(_report_row("all", "-", sum(n_gt), sum(n_det), sum(tp), report.map_50))


def write_confusion(out: IO[str], report: EvalReport, class_names) -> None:
    """Row-normalized confusion matrix, true classes down, predicted across."""
    normalized = report.confusion_normalized()
    out.write("true\\pred\t" + "\t".join(str(k) for k in range(normalized.shape[1])) + "\n")
    for k in range(normalized.shape[0]):
        cols = [str(k)] + [f"{v:.6g}" for v in normalized[k]]
        out.write("\t".join(cols) + "\n")
