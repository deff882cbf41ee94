"""Detection evaluation metrics and measurement-validation statistics.

Evaluation side: `load_boxes` reads evaluation files into one
`DetectionBatch` per frame. Greedy confidence-ordered IoU matching gives
each detection the ground truth it claimed (or -1), from one IoU pass
per frame over the pairs whose boxes meet, both among its own class,
which decides its hit, and among all classes, which fills a
true-by-predicted confusion matrix. Then precision, recall,
F1, average precision as the area under the interpolated precision-recall
step curve, and mAP. Each class keeps only its ground-truth count and its
detections' (confidence, is_true_positive) labels; the TP, FP and FN
counts derive from them. Validation side: RMSE, Pearson correlation, and
a paired two-tailed t-test with exact t-distribution p-values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .assoc import iou_pairs
from .detstream import DetectionBatch, _frame_batch, _parse_embedding, _parse_head, _valid_rows
from .errors import NumericalError, ParseError, ValidationError

DEFAULT_IOU_THRESHOLD = 0.5


# ---------------------------------------------------------------------------
# matching detections to ground truth


def _meeting_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of every pair of boxes a[rows], b[cols] whose x-extents
    can overlap, a superset of the pairs with positive IoU.

    A positive IoU needs a positive x-overlap, min(ax + aw, bx + bw) -
    max(ax, bx) > 0, so bx < ax + aw and bx + bw > ax, with the right edges
    rounded as the IoU kernel rounds them. With b sorted by left edge, the
    first condition holds on a prefix; and every box before the first whose
    running maximum of right edges passes ax fails the second. No bound is
    computed by subtraction, so none can round below an overlap of one ulp.
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
    return rows, order[np.repeat(lo, counts) + offsets]


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
    for the pairs whose boxes can meet; every other pair has IoU 0.
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

    @cached_property
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
    claims = [match_to_ground_truth(d, g, iou_threshold) for d, g in zip(dets, gts)]
    if not any(len(g) for g in gts):
        raise ValidationError("no ground-truth instances to evaluate against")
    claims = np.concatenate(claims)
    det_classes = np.concatenate([d.class_ids for d in dets])
    gt_classes = np.concatenate([g.class_ids for g in gts])
    confidence = np.concatenate([d.confidence for d in dets])
    n_gt = np.bincount(gt_classes, minlength=n_classes).tolist()
    per_class = {k: ClassEval(n_gt=n_gt[k]) for k in range(n_classes)}
    for k, conf, hit in zip(det_classes.tolist(), confidence.tolist(),
                            (claims[:, 0] >= 0).tolist()):
        per_class[k].labeled.append((conf, hit))
    for ce in per_class.values():
        if ce.n_gt > 0:
            ce.ap = average_precision(ce.labeled, ce.n_gt)
    # the class-agnostic claims, as indices into the ground truths of all frames
    first_gt = np.repeat(np.cumsum([0] + [len(g) for g in gts[:-1]]), [len(d) for d in dets])
    agnostic = claims[:, 1] >= 0
    confusion = confusion_matrix(gt_classes[claims[agnostic, 1] + first_gt[agnostic]],
                                 det_classes[agnostic], n_classes)
    evaluated = [ce.ap for ce in per_class.values() if ce.ap is not None]
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
# Descriptor columns are checked as detection rows' are, then dropped.


def load_boxes(
    source: IO[str] | Iterable[str],
    require_confidence: bool = False,
    path=None,
) -> dict[int, DetectionBatch]:
    """Frame-indexed boxes from an evaluation file, order-insensitive.

    Frames come in the order of their first row, each frame's rows in file
    order. Ground truths (require_confidence False) all get confidence 1.0.
    The file is read as one array when it can be (see _read_block);
    otherwise, and for every bad file, row by row, which raises the
    ParseError of the first bad row.
    """
    lines = list(source)
    batches = _read_block(lines, require_confidence)
    return batches if batches is not None else _load_by_rows(lines, require_confidence, path)


def _read_block(lines: list[str], require_confidence: bool) -> Optional[dict[int, DetectionBatch]]:
    """load_boxes' result from one np.loadtxt read of all rows, or None when
    that read cannot vouch for every row.

    The columns are those of the first row: frame and class as int64, the
    box, confidence and descriptor columns as float64. numpy's int and float
    parsers accept a subset of what int() and float() accept, with the same
    values, so a read that raises or warns of nothing, and whose rows all
    pass detstream._valid_rows, is what the row loop would return. Each
    line must be one row: loadtxt skips empty lines and rejects comment
    lines, whitespace-only lines and embedded newlines, which all take the
    row loop.
    """
    first = next((s for s in map(str.strip, lines) if s and not s.startswith("#")), "")
    n_cols = first.count(",") + 1
    if n_cols < 6 or (n_cols == 6 and require_confidence):
        return None
    fields = [("frame", "i8"), ("box", "f8", (4,))]
    fields += [("conf", "f8")] if n_cols > 6 else []
    fields += [("class", "i8")]
    fields += [("descriptor", "f8", (n_cols - 7,))] if n_cols > 7 else []
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, dtype=np.dtype(fields), delimiter=",", comments=None,
                              ndmin=1)
    except (ValueError, Warning):
        return None
    n = len(rows)
    conf = rows["conf"] if n_cols > 6 else np.ones(n)
    descriptors = rows["descriptor"] if n_cols > 7 else np.empty((n, 0))
    if not _valid_rows(rows["frame"], rows["box"], conf, rows["class"], descriptors).all():
        return None
    if not require_confidence:
        conf = np.ones(n)
    order = np.argsort(rows["frame"], kind="stable")
    frames = rows["frame"][order]
    bounds = np.concatenate(([0], np.flatnonzero(frames[1:] != frames[:-1]) + 1, [n]))
    boxes, conf, class_ids = rows["box"][order], conf[order], rows["class"][order]
    batches = {}
    # a stable sort puts each frame's first row first in its run
    for g in np.argsort(order[bounds[:-1]]).tolist():
        s, e = bounds[g], bounds[g + 1]
        frame = int(frames[s])
        batches[frame] = DetectionBatch(frame=frame, boxes=boxes[s:e], confidence=conf[s:e],
                                        class_ids=class_ids[s:e], appearance=np.empty((e - s, 0)))
    return batches


def _load_by_rows(lines: list[str], require_confidence: bool, path) -> dict[int, DetectionBatch]:
    """load_boxes' result one row at a time, with detstream's row checks."""
    frames: dict[int, list[tuple]] = {}
    for line_no, line in enumerate(lines, start=1):
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
        head = _parse_head(parts, line_no, path)
        if len(parts) > 7:
            _parse_embedding(parts[7:], line_no, path)
        if not require_confidence:
            head = head[:5] + (1.0, head[6])
        frames.setdefault(head[0], []).append(head)
    return {frame: _frame_batch(frame, [], heads, [], dim=0, min_confidence=0.0, path=path)
            for frame, heads in frames.items()}


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
