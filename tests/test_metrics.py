import io
import math

import numpy as np
import pytest
import scipy.stats

from trafficstate.detstream import Detection
from trafficstate.errors import NumericalError, ValidationError
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


# -- matching -----------------------------------------------------------------

def test_match_perfect():
    claimed = match_to_ground_truth([box((0, 0, 10, 10))], [box((0, 0, 10, 10))], 0.5)
    assert claimed.dtype == np.int64 and claimed.tolist() == [0]


def test_match_no_ground_truth():
    assert match_to_ground_truth([box((0, 0, 10, 10))], [], 0.5).tolist() == [-1]
    assert match_to_ground_truth([], [box((0, 0, 10, 10))], 0.5).tolist() == []


def test_match_one_to_one_rule():
    gt = [box((0, 0, 10, 10))]
    dets = [box((0, 0, 10, 10), conf=0.9), box((1, 0, 10, 10), conf=0.8)]
    assert match_to_ground_truth(dets, gt, 0.5).tolist() == [0, -1]


def test_match_requires_same_class():
    dets = [box((0, 0, 10, 10), class_id=1)]
    gt = [box((0, 0, 10, 10), class_id=2)]
    assert match_to_ground_truth(dets, gt, 0.5).tolist() == [-1]
    assert match_to_ground_truth(dets, gt, 0.5, same_class=False).tolist() == [0]


def test_match_prefers_highest_iou():
    gt = [box((0, 0, 10, 10)), box((3, 0, 10, 10))]
    det = box((2, 0, 10, 10))
    assert match_to_ground_truth([det], gt, 0.3).tolist() == [1]


def test_match_equals_scalar_greedy_oracle():
    # equal IoUs: the first ground truth wins
    twins = [box((0, 0, 10, 10)), box((0, 0, 10, 10))]
    assert match_to_ground_truth([box((1, 0, 10, 10))], twins, 0.5).tolist() == [0]
    rng = np.random.default_rng(12)
    for _ in range(300):
        preds, gts = random_instance(rng)
        for frame in set(preds) | set(gts):
            dets, gt = preds.get(frame, []), gts.get(frame, [])
            for same_class in (True, False):
                for threshold in (0.3, 0.5):
                    claimed = match_to_ground_truth(dets, gt, threshold, same_class)
                    assert claimed.tolist() == greedy_match(dets, gt, threshold, same_class)


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
    labeled = [(0.9, True), (0.8, True)]
    assert average_precision(labeled, 2) == pytest.approx(1.0)


def test_average_precision_total_miss():
    labeled = [(0.9, False), (0.8, False)]
    assert average_precision(labeled, 2) == 0.0


def test_average_precision_hand_fixture():
    # confidence order [TP, FP, TP] against 2 ground truths
    labeled = [(0.9, True), (0.8, False), (0.7, True)]
    assert average_precision(labeled, 2) == pytest.approx(5.0 / 6.0)
    assert threshold_enumeration_ap(labeled, 2) == pytest.approx(5.0 / 6.0)


def test_average_precision_needs_ground_truth():
    with pytest.raises(ValidationError):
        average_precision([(0.5, True)], 0)


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
        labeled = list(zip(confs.tolist(), flags.tolist()))
        ap = average_precision(labeled, n_gt)
        assert 0.0 <= ap <= 1.0
        # strictly monotone transform of confidences keeps the ranking
        transformed = [(math.exp(3 * c) + 1, t) for c, t in labeled]
        assert average_precision(transformed, n_gt) == pytest.approx(ap, abs=1e-12)


def random_instance(rng):
    """Small synthetic eval problem; returns (preds, gts) dicts by frame."""
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
            report = evaluate_detections(preds, gts, n_classes=3, iou_threshold=0.5)
        except ValidationError:
            continue
        oracle_aps = []
        for k, ce in report.per_class.items():
            if ce.n_gt == 0:
                continue
            oracle = threshold_enumeration_ap(ce.labeled, ce.n_gt)
            assert ce.ap == pytest.approx(oracle, abs=1e-9)
            oracle_aps.append(oracle)
        assert report.map_50 == pytest.approx(
            sum(oracle_aps) / len(oracle_aps), abs=1e-9
        )
        done += 1


# -- confusion matrix ----------------------------------------------------------------

def test_confusion_identity_when_all_matches_same_class():
    frames = [([box((0, 0, 10, 10), class_id=1), box((50, 50, 10, 10), class_id=2)],
               [box((0, 0, 10, 10), class_id=1), box((50, 50, 10, 10), class_id=2)])]
    mat = confusion_matrix(frames, n_classes=3)
    assert np.array_equal(mat, np.array([[0, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_confusion_no_matches_zero_matrix():
    frames = [([box((0, 0, 10, 10))], [box((500, 500, 10, 10))])]
    mat = confusion_matrix(frames, n_classes=2)
    assert not mat.any()


def test_confusion_row_counting_and_normalization():
    gts = [box((0, 0, 10, 10), class_id=0), box((50, 0, 10, 10), class_id=0),
           box((100, 0, 10, 10), class_id=0)]
    dets = [box((0, 0, 10, 10), class_id=0), box((50, 0, 10, 10), class_id=0),
            box((100, 0, 10, 10), class_id=1)]
    report = EvalReport(per_class={}, map_50=0.0,
                        confusion=confusion_matrix([(dets, gts)], 3),
                        iou_threshold=0.5)
    normalized = report.confusion_normalized()
    assert normalized[0, 0] == pytest.approx(2 / 3)
    assert normalized[0, 1] == pytest.approx(1 / 3)
    assert normalized[1].sum() == 0.0


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


# -- evaluation I/O ---------------------------------------------------------------------

def test_load_boxes_six_and_seven_column_forms():
    text = "1,0,0,10,10,3\n1,5,5,10,10,0.7,2\n"
    frames = load_boxes(io.StringIO(text), require_confidence=False)
    dets = frames[1]
    assert dets[0].class_id == 3 and dets[0].confidence == 1.0
    assert dets[1].class_id == 2 and dets[1].confidence == 1.0  # conf ignored


def test_load_boxes_predictions_require_confidence():
    with pytest.raises(Exception):
        load_boxes(io.StringIO("1,0,0,10,10,3\n"), require_confidence=True)


def test_evaluate_and_write_reports():
    gts = {1: [box((0, 0, 10, 10), class_id=0), box((50, 0, 10, 10), class_id=1)]}
    preds = {1: [box((0, 0, 10, 10), class_id=0, conf=0.9),
                 box((50, 0, 10, 10), class_id=1, conf=0.8)]}
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
    gts = {1: [box((0, 0, 10, 10)), box((50, 0, 10, 10))]}
    preds = {1: [box((0, 0, 10, 10), conf=0.9), box((1, 0, 10, 10), conf=0.8),
                 box((200, 0, 10, 10), class_id=1, conf=0.7)]}
    report = evaluate_detections(preds, gts, n_classes=2)
    zero, one = report.per_class[0], report.per_class[1]
    assert zero.labeled == [(0.9, True), (0.8, False)]
    assert (zero.n_gt, zero.n_det, zero.tp, zero.fp, zero.fn) == (2, 2, 1, 1, 1)
    assert (one.n_gt, one.n_det, one.tp, one.fp, one.fn, one.ap) == (0, 1, 0, 1, 0, None)
    assert type(zero.tp) is int


def test_evaluate_rejects_unknown_class():
    gts = {1: [box((0, 0, 10, 10), class_id=5)]}
    with pytest.raises(ValidationError):
        evaluate_detections({}, gts, n_classes=2)


def test_evaluate_requires_some_ground_truth():
    with pytest.raises(ValidationError):
        evaluate_detections({1: [box((0, 0, 10, 10))]}, {}, n_classes=2)
