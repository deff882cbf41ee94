"""Score a detector against ground truth: P/R/F1, AP, mAP, confusion.

Fakes a detector that finds most objects, misses a few, hallucinates one,
and occasionally mislabels a class, then walks through the evaluation
report the same way a model-validation run would.
"""

import numpy as np

from trafficstate import Detection, DetectionBatch, evaluate_detections, f1, precision, recall

rng = np.random.default_rng(0)
N_CLASSES = 4
NAMES = ["car", "bus", "rickshaw", "pedestrian"]

ground_truths = {}
predictions = {}
for frame in range(1, 21):
    gts, preds = [], []
    for k in range(rng.integers(2, 6)):
        x, y = rng.uniform(0, 900, size=2)
        cls = int(rng.integers(0, N_CLASSES))
        gts.append(Detection(frame=frame, class_id=cls, bbox=(x, y, 60, 40),
                             confidence=1.0))
        if rng.random() < 0.85:  # detected, with localization jitter
            label = cls if rng.random() < 0.9 else int(rng.integers(0, N_CLASSES))
            preds.append(Detection(
                frame=frame, class_id=label,
                bbox=(x + rng.normal(0, 3), y + rng.normal(0, 3), 60, 40),
                confidence=float(rng.uniform(0.3, 1.0)),
            ))
    if rng.random() < 0.3:  # one hallucination now and then
        x, y = rng.uniform(0, 900, size=2)
        preds.append(Detection(frame=frame, class_id=int(rng.integers(0, N_CLASSES)),
                               bbox=(x, y, 60, 40), confidence=float(rng.uniform(0.3, 0.9))))
    ground_truths[frame] = DetectionBatch.stack(frame, gts)
    predictions[frame] = DetectionBatch.stack(frame, preds)

report = evaluate_detections(predictions, ground_truths, N_CLASSES, iou_threshold=0.5)

print(f"{'class':<12}{'n_gt':>6}{'tp':>5}{'fp':>5}{'fn':>5}"
      f"{'prec':>8}{'rec':>8}{'f1':>8}{'ap':>8}")
n_gt, tp, n_det = report.n_gt.tolist(), report.tp.tolist(), report.n_det.tolist()
for k in range(N_CLASSES):
    fp, fn = n_det[k] - tp[k], n_gt[k] - tp[k]
    p, r = precision(tp[k], fp), recall(tp[k], fn)
    print(f"{NAMES[k]:<12}{n_gt[k]:>6}{tp[k]:>5}{fp:>5}{fn:>5}"
          f"{p:>8.3f}{r:>8.3f}{f1(p, r):>8.3f}{report.ap[k]:>8.3f}")
print(f"\nmAP@0.5 = {report.map_50:.3f}")

print("\nrow-normalized confusion (true rows, predicted columns):")
normalized = report.confusion_normalized()
print("            " + "".join(f"{n:>12}" for n in NAMES))
for k in range(N_CLASSES):
    print(f"{NAMES[k]:<12}" + "".join(f"{v:>12.2f}" for v in normalized[k]))
