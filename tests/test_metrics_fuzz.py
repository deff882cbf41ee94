"""Batched detection evaluation against the row-at-a-time evaluation oracle,
average precision against threshold enumeration, the array read of
evaluation files against the row-at-a-time reader, matching over the
boxes that meet against matching over the full IoU matrix, and the claims
taken without the greedy loop against the loop.

Needs hypothesis (the `test` extra in pyproject.toml); skipped without it.
"""
import io
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trafficstate.assoc import iou_matrix, iou_pairs  # noqa: E402
from trafficstate.detstream import Detection, DetectionBatch  # noqa: E402
from trafficstate.errors import ParseError, ValidationError  # noqa: E402
from trafficstate.metrics import (  # noqa: E402
    _meeting_pairs,
    average_precision,
    evaluate_detections,
    load_boxes,
    match_to_ground_truth,
)

from oracles import (  # noqa: E402
    evaluate_by_rows,
    greedy_match,
    load_boxes_by_rows,
    threshold_enumeration_ap,
)
from test_metrics import engine_labels  # noqa: E402

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
    labeled = expected["labeled"]
    assert engine_labels(stacked(preds), stacked(gts), N_CLASSES, iou_threshold) == labeled
    assert report.n_gt.tolist() == expected["n_gt"]
    assert report.n_det.tolist() == [len(lab) for lab in labeled]
    assert report.tp.tolist() == [sum(hit for _, hit in lab) for lab in labeled]
    assert [None if math.isnan(ap) else ap for ap in report.ap.tolist()] == expected["ap"]
    assert report.map_50 == expected["map_50"]
    assert np.array_equal(report.confusion, expected["confusion"])


@settings(derandomize=True, max_examples=500, deadline=None)
@given(labeled=st.lists(st.tuples(st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]),
                                            st.floats(0.0, 1.0).map(lambda c: round(c, 1))),
                                  st.booleans()), max_size=40),
       all_miss=st.booleans(), extra=st.integers(0, 3))
def test_average_precision_equals_threshold_enumeration(labeled, all_miss, extra):
    # confidences tie often, -0.0 among 0.0; lists past 16 entries leave
    # NumPy's insertion sort, where an unstable argsort would reorder ties
    if all_miss:
        labeled = [(c, False) for c, _ in labeled]
    n_gt = max(1, sum(hit for _, hit in labeled) + extra)
    confidence = np.array([c for c, _ in labeled], dtype=np.float64)
    hits = np.array([hit for _, hit in labeled], dtype=bool)
    assert average_precision(confidence, hits, n_gt) == threshold_enumeration_ap(labeled, n_gt)


# -- reading evaluation files -------------------------------------------------------

INT_TOKENS = ["1.0", "1e3", "1_0", "+1", "-0", "0", "-1", "nan", "inf", str(2**63), " 2 "]
FLOAT_TOKENS = ["nan", repr(np.nextafter(1e5, np.inf)), "-0.0", "", "-1e-9", "1.5", "inf",
                "1_0", "-0.5", "1.0000000000000002"]


@st.composite
def eval_file(draw):
    """(text, require_confidence): a valid evaluation file with frames out of
    order, then at most one field or row mutated."""
    require_confidence = draw(st.booleans())
    six = not require_confidence and draw(st.booleans())
    dim = 0 if six else draw(st.sampled_from([0, 0, 2, 3]))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = [str(draw(st.integers(1, 4))), repr(draw(st.floats(-1e3, 1e3))),
               repr(draw(st.floats(-10.0, 10.0))), repr(draw(st.floats(0.5, 50.0))), "20"]
        if not six:
            row.append(draw(st.sampled_from(["0", "0.25", "1", repr(draw(st.floats(0, 1)))])))
        row.append(str(draw(st.integers(0, 3))))
        row += [repr(draw(st.floats(0.1, 2.0))) for _ in range(dim)]
        rows.append(row)
    kind = draw(st.sampled_from(["none", "int", "float", "float", "form", "extra", "missing",
                                 "comment", "blank", "zero", "non-finite", "width"]))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    class_col = 5 if six else 6
    if kind == "int":
        row[draw(st.sampled_from([0, class_col]))] = draw(st.sampled_from(INT_TOKENS))
    elif kind == "float":
        row[draw(st.integers(1, class_col - 1))] = draw(st.sampled_from(FLOAT_TOKENS))
    elif kind == "form":                 # a 7-column row among 6, or the reverse
        if six:
            row.insert(5, "0.5")
        else:
            del row[5]
    elif kind == "extra":
        row.append("0.5")
    elif kind == "missing":
        row.pop()
    elif kind in ("zero", "non-finite") and dim:
        row[class_col + 1:] = (["0", "-0.0"] * dim)[:dim] if kind == "zero" else \
            ["1", draw(st.sampled_from(["nan", "inf", "1e400"]))] + row[class_col + 3:]
    elif kind == "width" and dim:          # every row after the first one column wider
        for r in rows[1:]:
            r.append("0.5")
    lines = [",".join(r) for r in rows]
    if kind in ("comment", "blank"):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["# note", "  # 1,2", "#"]) if kind == "comment"
                          else st.sampled_from(["", "   ", "\t"])))
    return "".join(line + "\n" for line in lines), require_confidence


def loaded(frames):
    """[(frame, bits of boxes, confidence and class_ids, appearance shape)],
    in the dict's order."""
    return [(frame, bits(b.boxes), bits(b.confidence), bits(b.class_ids), b.appearance.shape)
            for frame, b in frames.items()]


def bits(a):
    return a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()


def assert_same_load(text, require_confidence):
    """load_boxes gives the row reader's frames, in its order, or its error."""
    try:
        want = loaded({frame: DetectionBatch.stack(frame, dets) for frame, dets in
                       load_boxes_by_rows(io.StringIO(text), require_confidence, "e.txt").items()})
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            load_boxes(io.StringIO(text), require_confidence, "e.txt")
        assert str(raised.value) == str(exc)
        return
    got = load_boxes(io.StringIO(text), require_confidence, "e.txt")
    assert all(b.frame == frame for frame, b in got.items())
    assert loaded(got) == want


GOOD = "2,10,10,5,5,0.5,1,0.6,0.8\n1,30,10,5,5,0.25,0,3,4\n"


@pytest.mark.parametrize("require_confidence", [True, False])
def test_a_comment_changes_no_loaded_box(require_confidence):
    plain = GOOD + "1,50,10,5,5,0.75,2,1,0\n3,10,10,5,5,1,1,0,1\n"
    lines = plain.splitlines(keepends=True)
    commented = "".join(["# frame,x,y,w,h,conf,class,e0,e1\n"] + lines[:2]
                        + ["\n", "  # note\n"] + lines[2:])
    assert loaded(load_boxes(io.StringIO(commented), require_confidence)) == \
        loaded(load_boxes(io.StringIO(plain), require_confidence))
    assert_same_load(commented, require_confidence)


# one case per check of the array read's validator, each a row the read accepts
@pytest.mark.parametrize("row", [
    "1,1e5,10,5,5,0.5,1,1,1", "1,-100000.00000000001,10,5,5,0.5,1,1,1", "1,nan,10,5,5,0.5,1,1,1",
    "1,10,10,0,5,0.5,1,1,1", "1,10,10,5,-0.0,0.5,1,1,1",
    "0,10,10,5,5,0.5,1,1,1", "-0,10,10,5,5,0.5,1,1,1", "1,10,10,5,5,0.5,-1,1,1",
    "1,10,10,5,5,-1e-300,1,1,1", "1,10,10,5,5,1.0000000000000002,1,1,1", "1,10,10,5,5,nan,1,1,1",
    "1,10,10,5,5,0.5,1,0,-0.0", "1,10,10,5,5,0.5,1,inf,1", "1,10,10,5,5,0.5,1,1,nan",
    "1,10,10,5,5,0.5,1,1e300,1e-320",
])
@pytest.mark.parametrize("require_confidence", [True, False])
def test_load_boxes_listed_rows_equal_row_oracle(row, require_confidence):
    assert_same_load(GOOD + row + "\n", require_confidence)


# the ground-truth short form, which load_boxes gives its confidence before
# the reader sees it: each line ends a file of descriptor rows, or sits
# among them; a prediction file (require_confidence) refuses a 6-column row
@pytest.mark.parametrize("lines", [
    "1,10,10,5,5,1", "1,10,10,5,5,1\n3,10,10,5,5,1,0,1,1", " 1,10,10,5,5, 1 ",
    "# 1,10,10,5,5,1", "   \n1,10,10,5,5,0.5,1,1,1", "\t",
    "1,10,10,5,5,x", "1,10,10,5,5,", "1,10,10,5,5,1\n1,10,10,5,1",
])
@pytest.mark.parametrize("require_confidence", [True, False])
def test_load_boxes_short_form_lines_equal_row_oracle(lines, require_confidence):
    assert_same_load(GOOD + lines + "\n", require_confidence)
    assert_same_load(lines + "\n" + GOOD, require_confidence)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(case=eval_file())
def test_load_boxes_equals_row_oracle(case):
    assert_same_load(*case)


# -- matching only the boxes that meet ------------------------------------------------

@st.composite
def meeting_boxes(draw):
    """(detections, ground truths) whose edges often touch or overlap by one ulp.

    Each box is fresh, a copy of an earlier one, or starts at an earlier one's
    right edge, one ulp before it or one after; each is then a detection or a
    ground truth. Some boxes are 1e-12 wide at x = 1e5, too thin to meet anything.
    """
    boxes = []
    for _ in range(draw(st.integers(0, 10))):
        how = draw(st.sampled_from(["fresh", "thin", "copy", "touch", "before", "after"]))
        if how == "thin" or (how == "fresh" or not boxes):
            x = 1e5 if how == "thin" else float(draw(st.integers(0, 6)) * 7)
            w = 1e-12 if how == "thin" else draw(st.sampled_from([8.0, 10.0, 0.1 + 0.2]))
            box = (x, float(draw(st.integers(0, 2)) * 5), w, 10.0)
        else:
            x, y, w, h = boxes[draw(st.integers(0, len(boxes) - 1))]
            right = x + w
            start = {"copy": x, "touch": right, "before": np.nextafter(right, -np.inf),
                     "after": np.nextafter(right, np.inf)}[how]
            box = (float(start), y, draw(st.sampled_from([w, 3.0, 12.5])), h)
        boxes.append(box)
    return split_boxes(draw, boxes)


def split_boxes(draw, boxes):
    """(detections, ground truths): each box drawn into one or the other."""
    dets, gts = [], []
    for box in boxes:
        is_det = draw(st.booleans())
        (dets if is_det else gts).append(Detection(
            frame=1, class_id=draw(st.integers(0, 1)), bbox=box,
            confidence=draw(CONFIDENCE) if is_det else 1.0))
    return DetectionBatch.stack(1, dets), DetectionBatch.stack(1, gts)


@st.composite
def lane_boxes(draw):
    """(detections, ground truths) in lanes stacked on y, whose x-extents
    mostly meet. Each lane starts at the bottom edge of the one above, one
    ulp before it or one after, so boxes of adjacent lanes touch, overlap by
    one ulp or miss by one."""
    h = draw(st.sampled_from([10.0, 0.1 + 0.2, 48.0]))
    tops = [float(draw(st.integers(0, 2)) * 5)]
    for _ in range(draw(st.integers(1, 4))):
        edge = tops[-1] + h
        tops.append(float(draw(st.sampled_from([edge, np.nextafter(edge, -np.inf),
                                                np.nextafter(edge, np.inf)]))))
    boxes = [(float(draw(st.integers(0, 4)) * 5), draw(st.sampled_from(tops)),
              draw(st.sampled_from([8.0, 24.0])), h)
             for _ in range(draw(st.integers(0, 12)))]
    return split_boxes(draw, boxes)


def dense_claims(dets, gts, iou_threshold):
    """match_to_ground_truth's claims from the full IoU matrix: in confidence
    order, each detection takes the untaken ground truth of highest IoU at
    or above the threshold, the first on ties."""
    overlaps = iou_matrix(dets.boxes, gts.boxes)
    claimed = np.full((len(dets), 2), -1, dtype=np.int64)
    order = sorted(range(len(dets)), key=lambda i: (-dets.confidence[i], i))
    for column in (0, 1):
        taken = set()
        for i in order:
            for j in np.argsort(-overlaps[i], kind="stable").tolist():
                o = overlaps[i, j]
                if o < iou_threshold or o <= 0.0:
                    break
                if j not in taken and (column or dets.class_ids[i] == gts.class_ids[j]):
                    claimed[i, column] = j
                    taken.add(j)
                    break
    return claimed


@settings(derandomize=True, max_examples=500, deadline=None)
@given(instance=st.one_of(meeting_boxes(), lane_boxes()),
       iou_threshold=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_pruned_matching_equals_dense(instance, iou_threshold):
    dets, gts = instance
    overlaps = iou_matrix(dets.boxes, gts.boxes)
    rows, cols = _meeting_pairs(dets.boxes, gts.boxes)
    assert set(zip(*np.nonzero(overlaps > 0))) <= set(zip(rows.tolist(), cols.tolist()))
    assert np.array_equal(iou_pairs(dets.boxes, gts.boxes, rows, cols), overlaps[rows, cols])
    assert np.array_equal(match_to_ground_truth(dets, gts, iou_threshold),
                          dense_claims(dets, gts, iou_threshold))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(rows=frame_rows(1), iou_threshold=st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]))
def test_claims_equal_the_plain_greedy_loop(rows, iou_threshold):
    # detections that copy one ground truth contest it, grid boxes tie on IoU
    # and round confidences tie in the order; a pair alone among its
    # detection's and its ground truth's candidates is claimed without the
    # loop, and every claim must be the plain loop's
    dets, gts = rows
    claimed = match_to_ground_truth(DetectionBatch.stack(1, dets), DetectionBatch.stack(1, gts),
                                    iou_threshold)
    assert claimed[:, 0].tolist() == greedy_match(dets, gts, iou_threshold, same_class=True)
    assert claimed[:, 1].tolist() == greedy_match(dets, gts, iou_threshold, same_class=False)
