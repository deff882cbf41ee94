import io
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from trafficstate import metrics
from trafficstate.cli import main
from trafficstate.detstream import Detection, DetectionBatch
from trafficstate.errors import NumericalError, ParseError, ValidationError
from trafficstate.metrics import (
    EvalReport,
    average_precision,
    confusion_matrix,
    evaluate_detections,
    f1,
    load_boxes,
    match_to_ground_truth,
    mean_ap,
    paired_t_test,
    pearson,
    precision,
    recall,
    rmse,
    write_confusion,
    write_eval_report,
)

from oracles import greedy_match, threshold_enumeration_ap


def box(bbox, class_id=0, conf=1.0, frame=1):
    return Detection(frame=frame, class_id=class_id, bbox=bbox, confidence=conf)


def batch(*boxes, frame=1):
    """The DetectionBatch of Detection rows, moved to one frame."""
    return DetectionBatch.stack(frame, [replace(b, frame=frame) for b in boxes])


def stack_frames(frames):
    """{frame: DetectionBatch} of frame-indexed lists of Detection rows."""
    return {frame: DetectionBatch.stack(frame, dets) for frame, dets in frames.items()}


def engine_labels(predictions, ground_truths, n_classes, iou_threshold=0.5):
    """Each class's (confidence, hit) per detection, frames in order and each
    frame's rows in order, the hit read from match_to_ground_truth's column 0."""
    labeled = [[] for _ in range(n_classes)]
    none = DetectionBatch.stack(0, [])
    for frame in sorted(set(predictions) | set(ground_truths)):
        dets = predictions.get(frame, none)
        claims = match_to_ground_truth(dets, ground_truths.get(frame, none), iou_threshold)
        for k, c, hit in zip(dets.class_ids.tolist(), dets.confidence.tolist(),
                             (claims[:, 0] >= 0).tolist()):
            labeled[k].append((c, hit))
    return labeled


# -- matching -----------------------------------------------------------------

def test_match_perfect():
    claimed = match_to_ground_truth(batch(box((0, 0, 10, 10))), batch(box((0, 0, 10, 10))), 0.5)
    assert claimed.dtype == np.int64 and claimed.tolist() == [[0, 0]]


def test_match_no_ground_truth():
    assert match_to_ground_truth(batch(box((0, 0, 10, 10))), batch(), 0.5).tolist() \
        == [[-1, -1]]
    claimed = match_to_ground_truth(batch(), batch(box((0, 0, 10, 10))), 0.5)
    assert claimed.shape == (0, 2)


def test_match_one_to_one_rule():
    gt = batch(box((0, 0, 10, 10)))
    dets = batch(box((0, 0, 10, 10), conf=0.9), box((1, 0, 10, 10), conf=0.8))
    assert match_to_ground_truth(dets, gt, 0.5).tolist() == [[0, 0], [-1, -1]]


def test_match_requires_same_class():
    # column 0 claims among the detection's own class, column 1 among all
    dets = batch(box((0, 0, 10, 10), class_id=1))
    gt = batch(box((0, 0, 10, 10), class_id=2))
    assert match_to_ground_truth(dets, gt, 0.5).tolist() == [[-1, 0]]


def test_match_columns_claim_independently():
    # the confident class-1 detection takes the only ground truth class-blind,
    # which leaves it to the class-0 detection among its own class
    gt = batch(box((0, 0, 10, 10), class_id=0))
    dets = batch(box((0, 0, 10, 10), class_id=1, conf=0.9),
                 box((1, 0, 10, 10), class_id=0, conf=0.5))
    assert match_to_ground_truth(dets, gt, 0.5).tolist() == [[-1, 0], [0, -1]]


def test_match_prefers_highest_iou():
    gt = batch(box((0, 0, 10, 10)), box((3, 0, 10, 10)))
    det = batch(box((2, 0, 10, 10)))
    assert match_to_ground_truth(det, gt, 0.3).tolist() == [[1, 1]]


def test_match_equals_scalar_greedy_oracle():
    # equal IoUs: the first ground truth wins
    twins = batch(box((0, 0, 10, 10)), box((0, 0, 10, 10)))
    assert match_to_ground_truth(batch(box((1, 0, 10, 10))), twins, 0.5).tolist() == [[0, 0]]
    rng = np.random.default_rng(12)
    for _ in range(300):
        preds, gts = random_instance(rng)
        for frame in set(preds) | set(gts):
            dets, gt = preds.get(frame, []), gts.get(frame, [])
            for threshold in (0.3, 0.5):
                claimed = match_to_ground_truth(batch(*dets, frame=frame),
                                                batch(*gt, frame=frame), threshold)
                assert claimed.shape == (len(dets), 2)
                assert claimed[:, 0].tolist() == greedy_match(dets, gt, threshold, True)
                assert claimed[:, 1].tolist() == greedy_match(dets, gt, threshold, False)


def test_match_ties_in_confidence_keep_input_order():
    # equal confidences rank in input order, so the first detection claims
    gt = batch(box((0, 0, 10, 10)))
    dets = batch(box((1, 0, 10, 10), conf=0.5), box((0, 0, 10, 10), conf=0.5))
    assert match_to_ground_truth(dets, gt, 0.5).tolist() == [[0, 0], [-1, -1]]


def test_match_crowded_frame_with_tied_confidences_equals_oracle():
    # far more detections than a sort's small-array path handles, each tied
    # in confidence with about a third of the others and contending for the
    # same few ground truths
    rng = np.random.default_rng(31)
    gt = [box((float(x), 0.0, 10, 10), class_id=int(k)) for x, k in
          zip(rng.choice(np.arange(0, 200, 4), size=10, replace=False), rng.integers(0, 3, 10))]
    dets = [box((g.bbox[0] + float(rng.integers(-2, 3)), 0.0, 10, 10),
                class_id=int(rng.integers(0, 3)), conf=float(rng.choice([0.25, 0.5, 0.75])))
            for g in (gt[i] for i in rng.integers(0, 10, size=80))]
    claimed = match_to_ground_truth(batch(*dets), batch(*gt), 0.5)
    assert claimed[:, 0].tolist() == greedy_match(dets, gt, 0.5, True)
    assert claimed[:, 1].tolist() == greedy_match(dets, gt, 0.5, False)


# -- scalar metrics ---------------------------------------------------------------

def test_precision_recall_f1_examples():
    assert precision(8, 2) == pytest.approx(0.8)
    assert recall(8, 8) == pytest.approx(0.5)
    assert f1(0.8, 0.5) == pytest.approx(0.8 / 1.3)


def test_zero_denominator_conventions():
    assert precision(0, 0) == 0.0
    assert recall(0, 0) == 0.0
    assert f1(0.0, 0.0) == 0.0


def test_average_precision_perfect():
    assert average_precision(np.array([0.9, 0.8]), np.array([True, True]), 2) == \
        pytest.approx(1.0)


def test_average_precision_total_miss():
    assert average_precision(np.array([0.9, 0.8]), np.array([False, False]), 2) == 0.0


def test_average_precision_hand_fixture():
    # confidence order [TP, FP, TP] against 2 ground truths, given out of order
    confidence, hits = np.array([0.7, 0.9, 0.8]), np.array([True, True, False])
    assert average_precision(confidence, hits, 2) == pytest.approx(5.0 / 6.0)
    labeled = [(0.9, True), (0.8, False), (0.7, True)]
    assert threshold_enumeration_ap(labeled, 2) == pytest.approx(5.0 / 6.0)


def test_average_precision_needs_ground_truth():
    with pytest.raises(ValidationError):
        average_precision(np.array([0.5]), np.array([True]), 0)


def test_mean_ap_examples():
    assert mean_ap([1.0, 0.5]) == pytest.approx(0.75)
    assert mean_ap([0.786]) == pytest.approx(0.786)
    assert mean_ap([0.0, 0.0]) == 0.0
    with pytest.raises(ValidationError):
        mean_ap([])


def test_ap_in_unit_interval_and_rank_invariance():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        n_gt = int(rng.integers(1, 6))
        confs = rng.uniform(size=n)
        flags = rng.random(size=n) < 0.5
        while flags.sum() > n_gt:  # a matching never yields more TPs than GTs
            flags[int(rng.integers(0, n))] = False
        ap = average_precision(confs, flags, n_gt)
        assert 0.0 <= ap <= 1.0
        # strictly monotone transform of confidences keeps the ranking
        transformed = np.array([math.exp(3 * c) + 1 for c in confs.tolist()])
        assert average_precision(transformed, flags, n_gt) == pytest.approx(ap, abs=1e-12)


def random_instance(rng):
    """Small synthetic eval problem; returns (preds, gts) dicts of Detection
    lists by frame."""
    preds, gts = {}, {}
    for frame in (1, 2):
        n_gt = int(rng.integers(0, 4))
        n_det = int(rng.integers(0, 6))
        gt_boxes = []
        for _ in range(n_gt):
            x, y = rng.uniform(0, 80, size=2)
            gt_boxes.append(box((x, y, 10, 10), class_id=int(rng.integers(0, 3)),
                                frame=frame))
        det_boxes = []
        for _ in range(n_det):
            if gt_boxes and rng.random() < 0.6:
                base = gt_boxes[int(rng.integers(0, len(gt_boxes)))]
                bx, by, bw, bh = base.bbox
                det_boxes.append(box((bx + rng.uniform(-3, 3), by + rng.uniform(-3, 3), bw, bh),
                                     class_id=base.class_id if rng.random() < 0.8
                                     else int(rng.integers(0, 3)),
                                     conf=float(rng.uniform(0.05, 1.0)), frame=frame))
            else:
                x, y = rng.uniform(0, 80, size=2)
                det_boxes.append(box((x, y, 10, 10), class_id=int(rng.integers(0, 3)),
                                     conf=float(rng.uniform(0.05, 1.0)), frame=frame))
        if gt_boxes:
            gts[frame] = gt_boxes
        if det_boxes:
            preds[frame] = det_boxes
    return preds, gts


def test_map_matches_threshold_enumeration_oracle_500_random():
    rng = np.random.default_rng(22)
    done = 0
    while done < 500:
        preds, gts = random_instance(rng)
        if not gts:
            continue
        try:
            report = evaluate_detections(stack_frames(preds), stack_frames(gts),
                                         n_classes=3, iou_threshold=0.5)
        except ValidationError:
            continue
        labeled = engine_labels(stack_frames(preds), stack_frames(gts), 3)
        oracle_aps = []
        for k, n_gt in enumerate(report.n_gt.tolist()):
            if n_gt == 0:
                continue
            oracle = threshold_enumeration_ap(labeled[k], n_gt)
            assert report.ap[k] == pytest.approx(oracle, abs=1e-9)
            oracle_aps.append(oracle)
        assert report.map_50 == pytest.approx(
            sum(oracle_aps) / len(oracle_aps), abs=1e-9
        )
        done += 1


# -- confusion matrix ----------------------------------------------------------------

def test_confusion_matrix_counts_pairs():
    mat = confusion_matrix(np.array([0, 0, 1, 2, 2]), np.array([0, 1, 1, 2, 2]), 3)
    assert mat.dtype == np.int64
    assert mat.tolist() == [[1, 1, 0], [0, 1, 0], [0, 0, 2]]
    assert not confusion_matrix(np.empty(0, np.int64), np.empty(0, np.int64), 2).any()


def test_confusion_identity_when_all_matches_same_class():
    boxes = [box((0, 0, 10, 10), class_id=1), box((50, 50, 10, 10), class_id=2)]
    report = evaluate_detections({1: batch(*boxes)}, {1: batch(*boxes)}, n_classes=3)
    assert np.array_equal(report.confusion, np.array([[0, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_confusion_no_matches_zero_matrix():
    report = evaluate_detections({1: batch(box((0, 0, 10, 10)))},
                                 {1: batch(box((500, 500, 10, 10)))}, n_classes=2)
    assert not report.confusion.any()


def test_confusion_row_counting_and_normalization():
    gts = batch(box((0, 0, 10, 10), class_id=0), box((50, 0, 10, 10), class_id=0),
                box((100, 0, 10, 10), class_id=0))
    dets = batch(box((0, 0, 10, 10), class_id=0), box((50, 0, 10, 10), class_id=0),
                 box((100, 0, 10, 10), class_id=1))
    report = evaluate_detections({1: dets}, {1: gts}, n_classes=3)
    normalized = report.confusion_normalized()
    assert normalized[0, 0] == pytest.approx(2 / 3)
    assert normalized[0, 1] == pytest.approx(1 / 3)
    assert normalized[1].sum() == 0.0


def test_confusion_indexes_the_ground_truths_of_each_frame():
    # frame 2's claims index frame 2's ground truths, not frame 1's
    gts = {1: batch(box((0, 0, 10, 10), class_id=0)),
           2: batch(box((0, 0, 10, 10), class_id=1), box((50, 0, 10, 10), class_id=2),
                    frame=2)}
    preds = {2: batch(box((50, 0, 10, 10), class_id=0), frame=2),
             3: batch(box((0, 0, 10, 10), class_id=1), frame=3)}
    report = evaluate_detections(preds, gts, n_classes=3)
    assert report.confusion.tolist() == [[0, 0, 0], [0, 0, 0], [1, 0, 0]]


# -- statistics -----------------------------------------------------------------------

def test_identical_series():
    a = [1.0, 2.0, 3.0, 4.0]
    assert rmse(a, a) == 0.0
    assert pearson(a, a) == pytest.approx(1.0)
    t, p = paired_t_test(a, a)
    assert t == 0.0 and p == 1.0


def test_t_test_hand_fixture():
    a = [1.0, 2.0, 3.0, 4.0]
    b = [2.0, 2.0, 4.0, 4.0]
    t, p = paired_t_test(a, b)
    assert t == pytest.approx(-1.7320508, abs=1e-6)
    oracle = scipy.stats.ttest_rel(a, b)
    assert t == pytest.approx(oracle.statistic, abs=1e-9)
    assert p == pytest.approx(oracle.pvalue, abs=1e-9)


def test_t_test_against_scipy_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        a = rng.normal(size=n)
        b = a + rng.normal(scale=0.5, size=n) + rng.uniform(-1, 1)
        t, p = paired_t_test(a, b)
        oracle = scipy.stats.ttest_rel(a, b)
        assert t == pytest.approx(oracle.statistic, rel=1e-9, abs=1e-12)
        assert p == pytest.approx(oracle.pvalue, rel=1e-9, abs=1e-12)


def test_t_test_constant_offset_infinite_t():
    t, p = paired_t_test([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    assert math.isinf(t) and t < 0
    assert p == 0.0


def test_pearson_anticorrelation():
    a = np.array([-2.0, -1.0, 1.0, 2.0])
    assert pearson(a, -a) == pytest.approx(-1.0)


def test_pearson_affine_relation_gives_sign():
    rng = np.random.default_rng(24)
    for _ in range(100):
        a = rng.normal(size=10)
        alpha = rng.uniform(-5, 5)
        if alpha == 0:
            continue
        beta = rng.uniform(-10, 10)
        r = pearson(a, alpha * a + beta)
        assert r == pytest.approx(math.copysign(1.0, alpha), abs=1e-9)


def test_pearson_zero_variance_error():
    with pytest.raises(NumericalError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_rmse_example():
    assert rmse([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 4.0, 4.0]) \
        == pytest.approx(math.sqrt(0.5))


def test_series_validation():
    with pytest.raises(ValidationError):
        rmse([1.0], [2.0])
    with pytest.raises(ValidationError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="finite"):
            paired_t_test([1.0, bad], [1.0, 2.0])


@pytest.mark.parametrize("scale", [1e154, 1e300, 1e308])
def test_statistics_of_series_near_float_max(scale):
    # squares, sums and norms of these series leave float range; the
    # statistics are those of the series scaled down, with no warning
    rng = np.random.default_rng(25)
    a, b = rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50)
    assert rmse(a * scale, b * scale) == pytest.approx(rmse(a, b) * scale, rel=1e-12)
    assert pearson(a * scale, b) == pytest.approx(pearson(a, b), rel=1e-12)
    assert pearson(a * scale, b * scale) == pytest.approx(pearson(a, b), rel=1e-12)
    t, p = paired_t_test(a * scale, b * scale)
    assert (t, p) == pytest.approx(paired_t_test(a, b), rel=1e-12)
    assert paired_t_test([1e300, 2e300], [50.0, 60.0]) == pytest.approx((3.0, 0.204833), rel=1e-5)


# -- evaluation I/O ---------------------------------------------------------------------

def test_load_boxes_six_and_seven_column_forms():
    text = "1,0,0,10,10,3\n1,5,5,10,10,0.7,2\n"
    frames = load_boxes(io.StringIO(text), require_confidence=False)
    dets = frames[1]
    assert isinstance(dets, DetectionBatch) and dets.frame == 1
    assert dets.class_ids.tolist() == [3, 2]
    assert dets.confidence.tolist() == [1.0, 1.0]  # conf ignored
    assert dets.boxes.tolist() == [[0, 0, 10, 10], [5, 5, 10, 10]]
    assert dets.appearance.shape == (2, 0)


def test_load_boxes_predictions_keep_confidence_in_any_frame_order():
    text = "3,0,0,10,10,0.25,1\n1,5,5,10,10,0.5,2\n3,1,1,10,10,0.75,0\n"
    frames = load_boxes(io.StringIO(text), require_confidence=True)
    assert sorted(frames) == [1, 3]
    assert frames[3].confidence.tolist() == [0.25, 0.75]
    assert frames[3].class_ids.dtype == np.int64 and frames[3].class_ids.tolist() == [1, 0]


def test_load_boxes_checks_descriptors_then_drops_them():
    # rows may carry descriptors of any width, or none
    text = "1,0,0,10,10,0.5,2,3,4\n1,5,5,10,10,0.5,2\n2,5,5,10,10,0.5,2,1,0,0\n"
    frames = load_boxes(io.StringIO(text), require_confidence=True)
    assert frames[1].appearance.shape == (2, 0) and frames[2].appearance.shape == (1, 0)
    with pytest.raises(ParseError, match="p.txt:2: appearance descriptor has zero norm"):
        load_boxes(io.StringIO("1,0,0,10,10,0.5,2,1\n1,0,0,10,10,0.5,2,0,0\n"),
                   require_confidence=True, path="p.txt")
    with pytest.raises(ParseError, match="g.txt:1: unparseable embedding"):
        load_boxes(io.StringIO("1,0,0,10,10,0.5,2,x\n"), path="g.txt")


def test_load_boxes_predictions_require_confidence():
    with pytest.raises(ParseError):
        load_boxes(io.StringIO("1,0,0,10,10,3\n"), require_confidence=True)


def test_evaluate_and_write_reports():
    gts = {1: batch(box((0, 0, 10, 10), class_id=0), box((50, 0, 10, 10), class_id=1))}
    preds = {1: batch(box((0, 0, 10, 10), class_id=0, conf=0.9),
                      box((50, 0, 10, 10), class_id=1, conf=0.8))}
    report = evaluate_detections(preds, gts, n_classes=2)
    assert report.map_50 == pytest.approx(1.0)
    buf = io.StringIO()
    write_eval_report(buf, report, ["a", "b"])
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("class\t")
    assert lines[-1].startswith("all\t")
    assert lines[-1].split("\t")[-1] == "1"
    buf = io.StringIO()
    write_confusion(buf, report, ["a", "b"])
    rows = [line.split("\t") for line in buf.getvalue().splitlines()[1:]]
    assert rows[0][1] == "1" and rows[1][2] == "1"


def test_class_counts_derive_from_labels():
    # class 0: one hit, one duplicate (FP), one missed ground truth (FN);
    # class 1: a detection with no ground truth at all
    gts = {1: batch(box((0, 0, 10, 10)), box((50, 0, 10, 10)))}
    preds = {1: batch(box((0, 0, 10, 10), conf=0.9), box((1, 0, 10, 10), conf=0.8),
                      box((200, 0, 10, 10), class_id=1, conf=0.7))}
    report = evaluate_detections(preds, gts, n_classes=2)
    assert engine_labels(preds, gts, 2) == [[(0.9, True), (0.8, False)], [(0.7, False)]]
    assert [a.tolist() for a in (report.n_gt, report.n_det, report.tp)] == \
        [[2, 0], [2, 1], [1, 0]]
    assert all(a.dtype == np.int64 for a in (report.n_gt, report.n_det, report.tp))
    assert report.ap[0] == 0.5 and math.isnan(report.ap[1]) and report.map_50 == 0.5
    # fp = n_det - tp and fn = n_gt - tp, then precision, recall and f1, per row
    buf = io.StringIO()
    write_eval_report(buf, report, ["a", "b"])
    assert [line.split("\t") for line in buf.getvalue().splitlines()[1:]] == [
        ["0", "a", "2", "2", "1", "1", "1", "0.5", "0.5", "0.5", "0.5"],
        ["1", "b", "0", "1", "0", "1", "0", "0", "0", "0", "nan"],
        ["all", "-", "2", "3", "1", "2", "1", "0.333333", "0.5", "0.4", "0.5"]]


def test_evaluate_rejects_unknown_class():
    gts = {1: batch(box((0, 0, 10, 10), class_id=5))}
    with pytest.raises(ValidationError, match="class id 5 outside the 2-class catalog"):
        evaluate_detections({}, gts, n_classes=2)


def test_evaluate_names_the_first_unknown_class():
    # frames in order; within a frame, the detections before the ground truths
    preds = {1: batch(box((0, 0, 10, 10), class_id=9)),
             2: batch(box((0, 0, 10, 10), class_id=7), frame=2)}
    gts = {1: batch(box((0, 0, 10, 10), class_id=5)),
           0: batch(box((0, 0, 10, 10), class_id=1), box((0, 0, 10, 10), class_id=3),
                    frame=0)}
    with pytest.raises(ValidationError, match="^class id 3 outside"):
        evaluate_detections(preds, gts, n_classes=2)
    del gts[0]
    with pytest.raises(ValidationError, match="^class id 9 outside"):
        evaluate_detections(preds, gts, n_classes=2)


def test_evaluate_requires_some_ground_truth():
    with pytest.raises(ValidationError):
        evaluate_detections({1: batch(box((0, 0, 10, 10)))}, {}, n_classes=2)


def test_eval_matches_each_frame_once(tmp_path, monkeypatch):
    # frames 1 and 2 hold both files' rows, frame 3 predictions alone and
    # frame 4 ground truth alone
    calls = {"iou_pairs": 0, "match_to_ground_truth": 0, "confusion_matrix": 0}

    def counted(name):
        fn = getattr(metrics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(metrics, name, wrapper)

    for name in calls:
        counted(name)
    (tmp_path / "pred.txt").write_text("1,0,0,10,10,0.9,0\n2,50,0,10,10,0.8,1\n"
                                       "3,300,0,10,10,0.7,0\n", encoding="utf-8")
    (tmp_path / "gt.txt").write_text("1,1,0,10,10,0\n2,50,0,10,10,1\n4,0,0,10,10,0\n",
                                     encoding="utf-8")
    assert main(["eval", "--pred", str(tmp_path / "pred.txt"), "--gt", str(tmp_path / "gt.txt"),
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert calls == {"iou_pairs": 4, "match_to_ground_truth": 4, "confusion_matrix": 1}
