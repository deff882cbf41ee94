import inspect

import numpy as np
import pytest

from trafficstate import assoc
from trafficstate.detstream import Detection, DetectionBatch
from trafficstate.errors import ContractError, ValidationError
from trafficstate.motion import KalmanFilter
from trafficstate.tracker import LiveTracks, Tracker, TrackerConfig
from trafficstate.synth import AgentSpec, ScenarioSpec, generate
from trafficstate.calib import CalibrationParams
from trafficstate.traffic import LineOfInterest

stack = DetectionBatch.stack


def det(frame, cx, cy, w=20.0, h=40.0, class_id=0, appearance=None):
    app = None if appearance is None else np.asarray(appearance, float)
    return Detection(frame=frame, class_id=class_id,
                     bbox=(cx - w / 2, cy - h / 2, w, h),
                     confidence=1.0, appearance=app)


def test_cold_start_creates_tentative_tracks():
    tr = Tracker()
    live = tr.step(1, stack(1, [det(1, 10, 10), det(1, 100, 10), det(1, 200, 10)]))
    assert live.ids.tolist() == [1, 2, 3]
    assert not live.confirmed.any()


def test_empty_batches_delete_confirmed_tracks():
    tr = Tracker()
    frame = 0
    for frame in range(1, 4):
        live = tr.step(frame, stack(frame, [det(frame, 50, 50)]))
    assert live.confirmed.tolist() == [True]
    for frame in range(4, 8):
        live = tr.step(frame, stack(frame, []))
    assert len(live.ids) == 0 and live.boxes.shape == (0, 4)
    assert tr.tracks == []


def test_confirmed_survives_up_to_max_age_misses():
    tr = Tracker()
    for frame in range(1, 4):
        tr.step(frame, stack(frame, [det(frame, 50, 50)]))
    for frame in range(4, 7):  # 3 misses: still alive
        live = tr.step(frame, stack(frame, []))
    assert live.confirmed.tolist() == [True]
    live = tr.step(7, stack(7, [det(7, 50, 50)]))
    assert live.ids.tolist() == [1]


def test_tentative_deleted_on_single_miss():
    tr = Tracker()
    tr.step(1, stack(1, [det(1, 50, 50)]))
    live = tr.step(2, stack(2, []))
    assert len(live.ids) == 0
    live = tr.step(3, stack(3, [det(3, 50, 50)]))
    assert live.ids.tolist() == [2]


def test_promotion_at_n_init_hits():
    tr = Tracker()
    s1 = tr.step(1, stack(1, [det(1, 50, 50)]))
    s2 = tr.step(2, stack(2, [det(2, 52, 50)]))
    s3 = tr.step(3, stack(3, [det(3, 54, 50)]))
    assert [s.confirmed.tolist() for s in (s1, s2, s3)] == [[False], [False], [True]]


def test_single_stream_keeps_one_id_100_frames():
    calib = CalibrationParams(1.0, 1.0, 90.0)
    spec = ScenarioSpec(
        agents=[AgentSpec(class_id=2, x0_m=0.0, y0_m=0.0, vx_mps=3.0, vy_mps=1.0)],
        duration_s=4.0, fps=25.0, calibration=calib, seed=5,
    )
    batches, _ = generate(spec, LineOfInterest((500.0, -1e3), (500.0, 1e3)), 4.0)
    assert len(batches) == 100
    tr = Tracker()
    ids = set()
    for frame, dets in batches:
        ids.update(tr.step(frame, stack(frame, dets)).ids.tolist())
    assert ids == {1}


def test_non_monotonic_frame_rejected():
    tr = Tracker()
    tr.step(5, stack(5, []))
    with pytest.raises(ContractError):
        tr.step(5, stack(5, []))
    with pytest.raises(ContractError):
        tr.step(4, stack(4, []))


def test_wrong_frame_in_batch_rejected():
    tr = Tracker()
    with pytest.raises(ContractError):
        tr.step(2, stack(1, [det(1, 0, 0)]))
    with pytest.raises(ContractError):
        stack(2, [det(2, 0, 0), det(1, 0, 0)])
    assert tr.step(2, stack(2, [det(2, 0, 0)])).ids.tolist() == [1]


def test_stack_rejects_mixed_descriptors_within_a_frame():
    with pytest.raises(ValidationError, match="one dimension, or none"):
        stack(1, [det(1, 0, 0, appearance=[1.0, 0.0]), det(1, 90, 0)])
    with pytest.raises(ValidationError, match="one dimension, or none"):
        stack(1, [det(1, 0, 0, appearance=[1.0, 0.0]), det(1, 90, 0, appearance=[0.0, 0.0, 1.0])])
    empty = stack(3, [])
    assert (empty.frame, len(empty), empty.appearance.shape) == (3, 0, (0, 0))


@pytest.mark.parametrize("appearance", [[[1.0, 1.0]], [[np.nan, 0.0]], [[0.6, 0.8], [0.0, 2.0]]])
def test_step_rejects_descriptors_that_are_not_unit(appearance):
    # a batch built by hand reaches step without the parser's normalization
    appearance = np.array(appearance)
    m = len(appearance)
    batch = DetectionBatch(frame=1, boxes=np.array([[0.0, 0.0, 10.0, 20.0], [50, 0, 10, 20]])[:m],
                           confidence=np.ones(m), class_ids=np.zeros(m, dtype=np.int64),
                           appearance=appearance)
    tr = Tracker()
    with pytest.raises(ValidationError, match="unit-norm"):
        tr.step(1, batch)
    # the rejected frame left no trace: it can be stepped again
    assert tr.step(1, stack(1, [det(1, 5, 10, appearance=[0.0, 1.0])])).ids.tolist() == [1]


def test_class_votes_majority_and_ties():
    tr = Tracker()
    votes = [3, 1, 3, 3, 1, 1]
    shown = []
    for frame, c in enumerate(votes, start=1):
        live = tr.step(frame, stack(frame, [det(frame, 50, 50, class_id=c)]))
        assert live.ids.tolist() == [1]
        shown.append(int(live.class_ids[0]))
    # {3:1} {3:1,1:1} tie breaks low, {3:2,1:1} {3:3,1:1} {3:3,1:2}, {3:3,1:3} tie
    assert shown == [3, 1, 3, 3, 3, 1]


def test_no_detection_shared_between_tracks():
    tr = Tracker()
    dets1 = [det(1, 0, 0), det(1, 300, 0), det(1, 600, 0)]
    tr.step(1, stack(1, dets1))
    for frame in range(2, 6):
        dets = [det(frame, 0 + 2 * frame, 0), det(frame, 300 + 2 * frame, 0),
                det(frame, 600 + 2 * frame, 0)]
        live = tr.step(frame, stack(frame, dets))
        boxes = [tuple(b) for b in live.boxes.tolist()]
        assert len(set(boxes)) == len(boxes) == 3
        assert len(set(live.ids.tolist())) == len(live.ids)


def test_ids_strictly_grow_and_never_reused():
    tr = Tracker()
    seen = []
    for frame in range(1, 30):
        dets = [det(frame, 50, 50)] if frame % 3 == 1 else []
        seen += tr.step(frame, stack(frame, dets)).ids.tolist()
    assert seen == sorted(seen)
    # every tentative blip dies and the next id is fresh
    assert len(set(seen)) == len({s for s in seen})


def test_occlusion_gap_within_max_age_keeps_id():
    tr = Tracker()
    ids = set()
    for frame in range(1, 31):
        if 12 <= frame <= 14:  # 3-frame gap, equal to max_age
            dets = []
        else:
            dets = [det(frame, 10.0 + 3 * frame, 50)]
        ids.update(tr.step(frame, stack(frame, dets)).ids.tolist())
    assert ids == {1}


def test_occlusion_gap_beyond_max_age_changes_id():
    tr = Tracker()
    ids = set()
    for frame in range(1, 31):
        if 12 <= frame <= 16:  # 5-frame gap
            dets = []
        else:
            dets = [det(frame, 10.0 + 3 * frame, 50)]
        ids.update(tr.step(frame, stack(frame, dets)).ids.tolist())
    assert len(ids) == 2


def test_deterministic_replay_bitwise():
    calib = CalibrationParams(2.0, 2.0, 90.0)
    agents = [AgentSpec(class_id=i % 3, x0_m=-30.0 + 5 * i, y0_m=8.0 * i,
                        vx_mps=6.0, vy_mps=0.5 * i) for i in range(6)]
    spec = ScenarioSpec(agents=agents, duration_s=6.0, fps=25.0, calibration=calib,
                        noise_std_px=1.0, miss_prob=0.05, embedding_dim=8,
                        embedding_noise_std=0.05, seed=9)
    batches, _ = generate(spec, LineOfInterest((0.0, -1e3), (0.0, 1e3)), 3.0)

    def run():
        tr = Tracker()
        return [tr.step(frame, stack(frame, dets)) for frame, dets in batches]

    for a, b in zip(run(), run(), strict=True):
        for name in LiveTracks.__slots__:
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_appearance_gating_separates_crossing_objects():
    # two objects swap positions; appearance keeps identities apart
    e1 = np.zeros(4); e1[0] = 1.0
    e2 = np.zeros(4); e2[1] = 1.0
    cfg = TrackerConfig(cost_lambda=0.0)
    tr = Tracker(cfg)
    n = 21
    for frame in range(1, n + 1):
        x = 10.0 * frame
        dets = [det(frame, x, 50, appearance=e1, class_id=0),
                det(frame, 220 - x, 50, appearance=e2, class_id=1)]
        live = tr.step(frame, stack(frame, dets))
    by_class = dict(zip(live.class_ids.tolist(), live.ids.tolist()))
    assert by_class[0] == 1 and by_class[1] == 2


def test_snapshot_bbox_is_measured_box_when_matched():
    tr = Tracker()
    live = tr.step(1, stack(1, [det(1, 50, 50, w=20, h=40)]))
    assert live.boxes.tolist() == [[40.0, 30.0, 20.0, 40.0]]
    live = tr.step(2, stack(2, [det(2, 53, 50, w=20, h=40)]))
    assert live.boxes.tolist() == [[43.0, 30.0, 20.0, 40.0]]


def test_coasting_snapshot_uses_prediction():
    kf = KalmanFilter(pos_weight=1e-9)
    tr = Tracker(kf=kf)
    for frame in range(1, 11):
        tr.step(frame, stack(frame, [det(frame, 10.0 * frame, 50)]))
    live = tr.step(11, stack(11, []))
    assert len(live.ids) == 1
    # predicted center continues the 10 px/frame motion
    x, _, w, _ = live.boxes[0]
    assert x + w / 2.0 == pytest.approx(110.0, abs=1e-3)


def test_history_frames_strictly_increasing():
    tr = Tracker()
    frames = []
    for frame in range(1, 15):
        live = tr.step(frame, stack(frame, [det(frame, 5.0 * frame, 50)]))
        frames += [live.frame] * live.ids.tolist().count(1)
    assert frames == sorted(frames) and len(set(frames)) == len(frames)
    assert frames == list(range(1, 15))


def test_cascade_gives_the_freshest_track_priority(monkeypatch):
    # tracks 1, 2, 3 sit 2 px apart; by frame 4 they have missed 2, 1 and 0
    # frames. One detection lands next to track 1, inside all three motion
    # gates: the cheapest pair is track 1's, but track 3, the freshest, wins
    tr = Tracker(TrackerConfig(n_init=1))
    tr.step(1, stack(1, [det(1, 100, 50), det(1, 102, 50), det(1, 104, 50)]))
    tr.step(2, stack(2, [det(2, 102, 50), det(2, 104, 50)]))
    tr.step(3, stack(3, [det(3, 104, 50)]))
    stage2 = []
    build_iou = assoc.build_iou_cost_matrix

    def spy(tracks, *args, **kwargs):
        stage2.append(tracks)
        return build_iou(tracks, *args, **kwargs)

    monkeypatch.setattr(assoc, "build_iou_cost_matrix", spy)
    contested, far = det(4, 100.5, 50), det(4, 500, 50)
    live = tr.step(4, stack(4, [contested, far]))
    box = dict(zip(live.ids.tolist(), map(tuple, live.boxes.tolist())))
    assert box[3] == contested.bbox
    assert box[1] != contested.bbox and box[2] != contested.bbox
    # the losers reach stage 2, in id order, and the far detection starts track 4
    assert len(stage2) == 1
    assert np.array_equal(stage2[0], np.array([box[1], box[2]]))
    assert sorted(box) == [1, 2, 3, 4]


def test_stage_one_solves_once_per_frame_across_miss_ages(monkeypatch):
    # two tracks 300 px apart, confirmed on their first frame; the second
    # misses frame 3, so on frame 4 stage 1 holds miss ages 0 and 1. Nothing
    # is contested, so each frame makes one solve and no stage 2
    solves = []
    solve = assoc.solve_assignment

    def spy(cost, *args):
        solves[-1].append(None if not args else args[0].tolist())
        return solve(cost, *args)

    monkeypatch.setattr(assoc, "solve_assignment", spy)
    tr = Tracker(TrackerConfig(n_init=1))
    for frame, xs in enumerate([(100, 400), (101, 401), (102,), (103, 403), (104, 404)],
                               start=1):
        solves.append([])
        live = tr.step(frame, stack(frame, [det(frame, x, 50) for x in xs]))
        assert live.ids.tolist() == [1, 2]
    assert [len(calls) for calls in solves] == [1] * 5
    assert solves[3] == [[0, 1]]


@pytest.mark.parametrize("h", [1e-38, 1e-7])
def test_ill_conditioned_track_is_left_unmatched(h):
    # the same sub-pixel box every frame: each frame's tentative track has an
    # ill-conditioned projection, so stage 2 leaves it unmatched and a new
    # track is born instead of update_many raising
    tr = Tracker()
    for frame in range(1, 6):
        dets = [Detection(frame=frame, class_id=0, bbox=(0.0, 0.0, 1.0, h), confidence=0.9)]
        live = tr.step(frame, stack(frame, dets))
        assert live.ids.tolist() == [frame]
        assert live.confirmed.tolist() == [False]


@pytest.mark.parametrize("case", ["tentative", "ill-conditioned"])
def test_stage_one_gets_only_the_tracks_that_can_match(monkeypatch, case):
    # stage 1's kernels get the projections of exactly the confirmed tracks
    # whose projection is usable: a tentative track, and a confirmed one
    # whose sub-pixel box makes its projection ill-conditioned, are left
    # out, the latter unmatched, so that its detection starts a new track
    build = assoc.build_cost_matrix
    signature = inspect.signature(build)
    left_out = []

    def spy(*args, **kwargs):
        y = signature.bind(*args, **kwargs).arguments["y"]
        # the tracker's state is predicted, and not yet updated, at this point
        projected, _, ok = tr.kf.project_many(tr._mean, tr._cov)
        confirmed = tr._hits >= tr.config.n_init
        want = projected[:, ok & confirmed]
        assert y.shape == want.shape and y.tobytes() == want.tobytes()
        left_out.append((np.count_nonzero(ok & ~confirmed), np.count_nonzero(~ok & confirmed)))
        return build(*args, **kwargs)

    monkeypatch.setattr(assoc, "build_cost_matrix", spy)
    if case == "tentative":
        # track 2 joins on frame 3, while track 1 is confirmed from frame 4
        tr = Tracker()
        frames = [[det(f, 100 + 2 * f, 50)] + ([det(f, 400, 50)] if f >= 3 else [])
                  for f in range(1, 6)]
        want_ids = [[1], [1], [1, 2], [1, 2], [1, 2]]
    else:
        # track 2 is confirmed at birth, and ill-conditioned from then on
        tr = Tracker(TrackerConfig(n_init=1))
        frames = [[det(f, 100 + 2 * f, 50),
                   Detection(frame=f, class_id=0, bbox=(300.0, 50.0, 1.0, 1e-7), confidence=0.9)]
                  for f in range(1, 3)]
        want_ids = [[1, 2], [1, 2, 3]]
    for frame, dets in enumerate(frames, start=1):
        assert tr.step(frame, stack(frame, dets)).ids.tolist() == want_ids[frame - 1]
    tentative, ill_conditioned = np.sum(left_out, axis=0)
    assert (tentative > 0, ill_conditioned > 0) == (case == "tentative", case != "tentative")


@pytest.mark.parametrize("bbox", [(0.0, 0.0, 0.0, 10.0), (0.0, 0.0, 5.0, 0.0),
                                  (0.0, 0.0, -5.0, 10.0), (0.0, float("nan"), 5.0, 10.0),
                                  (float("inf"), 0.0, 5.0, 10.0), (0.0, 0.0, 1e200, 1e200)])
def test_step_rejects_degenerate_box(bbox):
    # checked once, as arrays, before any arithmetic: a zero height raises
    # ValidationError, not a divide-by-zero warning, a huge box no overflow
    # warning, and no state changes
    tr = Tracker()
    tr.step(1, stack(1, [det(1, 50, 50)]))
    with pytest.raises(ValidationError):
        tr.step(2, stack(2, [det(2, 50, 50),
                             Detection(frame=2, class_id=0, bbox=bbox, confidence=0.9)]))
    assert tr.step(2, stack(2, [det(2, 50, 50)])).ids.tolist() == [1]


def test_live_tracks_are_in_id_order_and_own_their_arrays():
    tr = Tracker(TrackerConfig(n_init=2))
    first = tr.step(1, stack(1, [det(1, 300, 50, class_id=2), det(1, 50, 50, class_id=1)]))
    assert first.ids.tolist() == [1, 2] and first.class_ids.tolist() == [2, 1]
    assert first.ids.dtype == np.int64 and first.class_ids.dtype == np.int64
    second = tr.step(2, stack(2, [det(2, 52, 50, class_id=1), det(2, 302, 50, class_id=2)]))
    assert second.confirmed.tolist() == [True, True]
    # a later step leaves an earlier record as it was
    assert first.confirmed.tolist() == [False, False]
    assert first.boxes.tolist() == [[290.0, 30.0, 20.0, 40.0], [40.0, 30.0, 20.0, 40.0]]


def test_births_and_deaths_leave_a_far_track_bit_for_bit_unchanged():
    # four tracks far apart, so none can take another's detection. A runs
    # throughout and coasts through two missed frames late on, and so does D.
    # B, confirmed, is last seen on frame 6 and dies on frame 10, past
    # max_age, on the frame C is born with a class no track had. A's columns
    # of the state go through that frame's compaction and append; its
    # records must be those of a run with A alone
    def a_at(frame):
        return det(frame, 100.0 + 3.0 * frame + 0.7 * np.sin(frame), 80.0 + 0.5 * frame,
                   class_id=1)

    missed = (12, 13)

    def run(others):
        tr = Tracker()
        out = []
        for frame in range(1, 21):
            dets = [] if frame in missed else [a_at(frame)]
            if others and frame <= 6:
                dets.append(det(frame, 600.0 - 2.0 * frame, 300.0, class_id=2))
            if others and frame not in missed:
                dets.append(det(frame, 900.0, 100.0 + 4.0 * frame, w=30.0, class_id=3))
            if others and frame >= 10:
                dets.append(det(frame, 1200.0 + 1.5 * frame, 500.0, class_id=4))
            out.append(tr.step(frame, stack(frame, dets)))
        return out

    alone, crowded = run(False), run(True)
    assert [live.ids.tolist() for live in crowded[8:11]] == [[1, 2, 3], [1, 3, 4], [1, 3, 4]]
    for a, b in zip(alone, crowded, strict=True):
        assert a.ids.tolist() == [1] and b.ids[0] == 1
        for name in ("ids", "confirmed", "class_ids", "boxes"):
            want = getattr(a, name)
            assert getattr(b, name)[:1].tobytes() == want.tobytes(), (a.frame, name)
