"""Batched detection evaluation against the row-at-a-time evaluation oracle.

Needs hypothesis (the `test` extra in pyproject.toml); skipped without it.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trafficstate.detstream import Detection, DetectionBatch  # noqa: E402
from trafficstate.errors import ValidationError  # noqa: E402
from trafficstate.metrics import evaluate_detections  # noqa: E402

from oracles import evaluate_by_rows  # noqa: E402

N_CLASSES = 3
# a few round confidences make ties in the greedy order common
CONFIDENCE = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def frame_rows(draw, frame):
    """(detections, ground truths) of one frame. Boxes sit on a coarse grid,
    so IoUs tie often; many detections copy a ground truth's box, shifted a
    little, with its class or another."""
    def grid_box():
        return (float(draw(st.integers(0, 6)) * 4), float(draw(st.integers(0, 3)) * 4),
                float(draw(st.sampled_from([8, 10, 12]))), 10.0)

    gts = [Detection(frame=frame, class_id=draw(st.integers(0, N_CLASSES - 1)),
                     bbox=grid_box(), confidence=1.0)
           for _ in range(draw(st.integers(0, 4)))]
    dets = []
    for _ in range(draw(st.integers(0, 6))):
        if gts and draw(st.booleans()):
            base = gts[draw(st.integers(0, len(gts) - 1))]
            x, y, w, h = base.bbox
            bbox = (x + draw(st.sampled_from([0.0, 1.0, -2.0, 3.5])), y, w, h)
            class_id = draw(st.sampled_from([base.class_id] * 3 + list(range(N_CLASSES))))
        else:
            bbox, class_id = grid_box(), draw(st.integers(0, N_CLASSES - 1))
        dets.append(Detection(frame=frame, class_id=class_id, bbox=bbox,
                              confidence=draw(CONFIDENCE)))
    return dets, gts


@st.composite
def instances(draw):
    """(predictions, ground truths) by frame; a frame may appear in one only."""
    preds, gts = {}, {}
    for frame in draw(st.lists(st.integers(1, 9), max_size=4, unique=True)):
        dets, truths = draw(frame_rows(frame))
        if dets or draw(st.booleans()):
            preds[frame] = dets
        if truths or draw(st.booleans()):
            gts[frame] = truths
    return preds, gts


def stacked(frames):
    return {frame: DetectionBatch.stack(frame, dets) for frame, dets in frames.items()}


@settings(derandomize=True, max_examples=400, deadline=None)
@given(instance=instances(), iou_threshold=st.sampled_from([0.3, 0.5, 0.7]))
def test_evaluate_equals_row_oracle(instance, iou_threshold):
    preds, gts = instance
    try:
        expected = evaluate_by_rows(preds, gts, N_CLASSES, iou_threshold)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=str(exc)):
            evaluate_detections(stacked(preds), stacked(gts), N_CLASSES, iou_threshold)
        return
    report = evaluate_detections(stacked(preds), stacked(gts), N_CLASSES, iou_threshold)
    assert [report.per_class[k].n_gt for k in range(N_CLASSES)] == expected["n_gt"]
    assert [report.per_class[k].labeled for k in range(N_CLASSES)] == expected["labeled"]
    assert [report.per_class[k].ap for k in range(N_CLASSES)] == expected["ap"]
    assert report.map_50 == expected["map_50"]
    assert np.array_equal(report.confusion, expected["confusion"])
