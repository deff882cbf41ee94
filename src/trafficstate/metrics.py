"""Detection evaluation metrics and measurement-validation statistics.

Evaluation side: greedy confidence-ordered IoU matching, which labels
each detection with the index of the ground truth it claimed (or -1),
precision, recall, F1, average precision as the area under the
interpolated precision-recall step curve, mAP, and a true-by-predicted
confusion matrix. Each class keeps only its ground-truth count and its
detections' (confidence, is_true_positive) labels; the TP, FP and FN
counts derive from them. Validation side: RMSE, Pearson correlation,
and a paired two-tailed t-test with exact t-distribution p-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .assoc import iou_matrix
from .detstream import Detection, parse_row
from .errors import NumericalError, ParseError, ValidationError

DEFAULT_IOU_THRESHOLD = 0.5


# ---------------------------------------------------------------------------
# matching detections to ground truth


def match_to_ground_truth(
    detections: Sequence[Detection],
    ground_truths: Sequence[Detection],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    same_class: bool = True,
) -> np.ndarray:
    """Greedy one-to-one matching, highest confidence first.

    Each detection claims the unmatched ground truth with the highest IoU
    at or above the threshold (same class unless same_class=False).
    Returns an int64 array with, for each detection, the index of the
    ground truth it claimed, or -1.
    """
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i].confidence, i))
    claimed = np.full(len(detections), -1, dtype=np.int64)
    overlaps = iou_matrix([d.bbox for d in detections], [g.bbox for g in ground_truths])
    # a pair is a candidate while its IoU is positive and clears the threshold
    candidate = (overlaps >= iou_threshold) & (overlaps > 0.0)
    if same_class:
        candidate &= (np.array([d.class_id for d in detections])[:, None]
                      == np.array([g.class_id for g in ground_truths])[None, :])
    for i in order:
        if not candidate[i].any():
            continue
        # the first maximum wins, as a strict > scan would pick
        j = int(np.argmax(np.where(candidate[i], overlaps[i], -1.0)))
        claimed[i] = j
        candidate[:, j] = False
    return claimed


# ---------------------------------------------------------------------------
# scalar metrics


def precision(tp: int, fp: int) -> float:
    return tp / (tp + fp) if tp + fp > 0 else 0.0


def recall(tp: int, fn: int) -> float:
    return tp / (tp + fn) if tp + fn > 0 else 0.0


def f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def average_precision(labeled: Sequence[tuple[float, bool]], n_gt: int) -> float:
    """Area under the interpolated precision-recall curve for one class.

    labeled holds (confidence, is_true_positive) for each detection of the
    class. Precision is made monotone non-increasing over recall before
    summing the recall-step rectangles.
    """
    if n_gt < 1:
        raise ValidationError("average precision needs at least one ground truth")
    order = sorted(range(len(labeled)), key=lambda i: (-labeled[i][0], i))
    points = []
    tp_cum = 0
    for rank, i in enumerate(order, start=1):
        tp_cum += 1 if labeled[i][1] else 0
        points.append((tp_cum / n_gt, tp_cum / rank))
    envelope = []
    best = 0.0
    for r, p in reversed(points):
        best = max(best, p)
        envelope.append((r, best))
    envelope.reverse()
    ap = 0.0
    prev_recall = 0.0
    for r, p in envelope:
        ap += (r - prev_recall) * p
        prev_recall = r
    return ap


def mean_ap(per_class_ap: Sequence[float]) -> float:
    if len(per_class_ap) == 0:
        raise ValidationError("mean AP needs at least one evaluated class")
    return float(sum(per_class_ap)) / len(per_class_ap)


# ---------------------------------------------------------------------------
# whole-dataset evaluation


@dataclass
class ClassEval:
    """One class's ground-truth count and (confidence, is_true_positive) per detection."""

    n_gt: int = 0
    labeled: list[tuple[float, bool]] = field(default_factory=list)
    ap: Optional[float] = None

    @property
    def n_det(self) -> int:
        return len(self.labeled)

    @property
    def tp(self) -> int:
        return sum(hit for _, hit in self.labeled)

    @property
    def fp(self) -> int:
        return self.n_det - self.tp

    @property
    def fn(self) -> int:
        return self.n_gt - self.tp

    @property
    def precision(self) -> float:
        return precision(self.tp, self.fp)

    @property
    def recall(self) -> float:
        return recall(self.tp, self.fn)

    @property
    def f1(self) -> float:
        return f1(self.precision, self.recall)


@dataclass
class EvalReport:
    per_class: dict[int, ClassEval]
    map_50: float
    confusion: np.ndarray           # raw match counts, true rows x predicted cols
    iou_threshold: float

    def confusion_normalized(self) -> np.ndarray:
        """Rows scaled to sum to one; all-zero rows stay zero."""
        totals = self.confusion.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(totals > 0, self.confusion / totals, 0.0)
        return out


def confusion_matrix(
    frames: Iterable[tuple[Sequence[Detection], Sequence[Detection]]],
    n_classes: int,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> np.ndarray:
    """Class-agnostic IoU matches bucketed by (true class, predicted class)."""
    mat = np.zeros((n_classes, n_classes), dtype=np.int64)
    for dets, gts in frames:
        claimed = match_to_ground_truth(dets, gts, iou_threshold, same_class=False)
        for det, j in zip(dets, claimed.tolist()):
            if j >= 0:
                mat[gts[j].class_id, det.class_id] += 1
    return mat


def evaluate_detections(
    predictions: dict[int, list[Detection]],
    ground_truths: dict[int, list[Detection]],
    n_classes: int,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> EvalReport:
    """Full evaluation over frame-indexed predictions and ground truths."""
    per_class = {k: ClassEval() for k in range(n_classes)}
    all_frames = sorted(set(predictions) | set(ground_truths))
    for frame in all_frames:
        dets = predictions.get(frame, [])
        gts = ground_truths.get(frame, [])
        for box in list(dets) + list(gts):
            if box.class_id >= n_classes:
                raise ValidationError(
                    f"class id {box.class_id} outside the {n_classes}-class catalog"
                )
        hits = match_to_ground_truth(dets, gts, iou_threshold) >= 0
        for gt in gts:
            per_class[gt.class_id].n_gt += 1
        for det, hit in zip(dets, hits.tolist()):
            per_class[det.class_id].labeled.append((det.confidence, hit))
    for ce in per_class.values():
        if ce.n_gt > 0:
            ce.ap = average_precision(ce.labeled, ce.n_gt)
    evaluated = [ce.ap for ce in per_class.values() if ce.ap is not None]
    if not evaluated:
        raise ValidationError("no ground-truth instances to evaluate against")
    confusion = confusion_matrix(
        ((predictions.get(f, []), ground_truths.get(f, [])) for f in all_frames),
        n_classes, iou_threshold,
    )
    return EvalReport(per_class=per_class, map_50=mean_ap(evaluated),
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
    return a, b


def rmse(a, b) -> float:
    a, b = _as_series(a, b)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def pearson(a, b) -> float:
    a, b = _as_series(a, b)
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
    an infinite t (p=0) when they differ by a constant. `betainc` is
    imported on first use: only `stats` needs it, and `eval`, which
    imports this module, would otherwise load `scipy.special` for nothing.
    """
    a, b = _as_series(a, b)
    d = a - b
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

# Ground-truth rows reuse the detection format minus confidence:
#   frame,x,y,w,h,class            (6 columns)
#   frame,x,y,w,h,conf,class[,..]  (7+ columns, conf ignored)


def load_boxes(
    source: IO[str] | Iterable[str],
    require_confidence: bool = False,
    path=None,
) -> dict[int, list[Detection]]:
    """Frame-indexed boxes from an evaluation file, order-insensitive."""
    frames: dict[int, list[Detection]] = {}
    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) == 6:
            if require_confidence:
                raise ParseError("prediction rows need a confidence column",
                                 line_no, path)
            parts = parts[:5] + ["1.0", parts[5]]
        elif len(parts) < 6:
            raise ParseError(
                f"expected at least 6 comma-separated columns, got {len(parts)}",
                line_no, path,
            )
        frame, det, _ = parse_row(parts, line_no, path)
        if not require_confidence and len(parts) >= 7:
            det.confidence = 1.0
        frames.setdefault(frame, []).append(det)
    return frames


EVAL_HEADER = "class\tname\tn_gt\tn_det\ttp\tfp\tfn\tprecision\trecall\tf1\tap"


def write_eval_report(out: IO[str], report: EvalReport, class_names) -> None:
    """Per-class rows then a summary row; the summary ap column is the mAP."""
    out.write(EVAL_HEADER + "\n")
    tp = fp = fn = 0
    for k in sorted(report.per_class):
        ce = report.per_class[k]
        tp, fp, fn = tp + ce.tp, fp + ce.fp, fn + ce.fn
        cols = [str(k), class_names[k], str(ce.n_gt), str(ce.n_det),
                str(ce.tp), str(ce.fp), str(ce.fn),
                f"{ce.precision:.6g}", f"{ce.recall:.6g}", f"{ce.f1:.6g}",
                f"{ce.ap:.6g}" if ce.ap is not None else "nan"]
        out.write("\t".join(cols) + "\n")
    p = precision(tp, fp)
    r = recall(tp, fn)
    cols = ["all", "-", str(sum(c.n_gt for c in report.per_class.values())),
            str(sum(c.n_det for c in report.per_class.values())),
            str(tp), str(fp), str(fn),
            f"{p:.6g}", f"{r:.6g}", f"{f1(p, r):.6g}", f"{report.map_50:.6g}"]
    out.write("\t".join(cols) + "\n")


def write_confusion(out: IO[str], report: EvalReport, class_names) -> None:
    """Row-normalized confusion matrix, true classes down, predicted across."""
    normalized = report.confusion_normalized()
    out.write("true\\pred\t" + "\t".join(str(k) for k in range(normalized.shape[1])) + "\n")
    for k in range(normalized.shape[0]):
        cols = [str(k)] + [f"{v:.6g}" for v in normalized[k]]
        out.write("\t".join(cols) + "\n")
