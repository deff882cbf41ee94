import numpy as np
import pytest

from trafficstate.detstream import Detection
from trafficstate.errors import ContractError
from trafficstate.motion import KalmanFilter
from trafficstate.tracker import (
    Tracker,
    TrackerConfig,
    TrackStatus,
    format_track_row,
)
from trafficstate.synth import AgentSpec, ScenarioSpec, generate
from trafficstate.calib import CalibrationParams
from trafficstate.traffic import LineOfInterest


def det(frame, cx, cy, w=20.0, h=40.0, class_id=0, appearance=None):
    app = None if appearance is None else np.asarray(appearance, float)
    return Detection(frame=frame, class_id=class_id,
                     bbox=(cx - w / 2, cy - h / 2, w, h),
                     confidence=1.0, appearance=app)


def test_cold_start_creates_tentative_tracks():
    tr = Tracker()
    snaps = tr.step(1, [det(1, 10, 10), det(1, 100, 10), det(1, 200, 10)])
    assert [s.track_id for s in snaps] == [1, 2, 3]
    assert all(s.status is TrackStatus.TENTATIVE for s in snaps)


def test_empty_batches_delete_confirmed_tracks():
    tr = Tracker()
    frame = 0
    for frame in range(1, 4):
        snaps = tr.step(frame, [det(frame, 50, 50)])
    assert snaps[0].status is TrackStatus.CONFIRMED
    for frame in range(4, 8):
        snaps = tr.step(frame, [])
    assert snaps == []
    assert tr.tracks == []


def test_confirmed_survives_up_to_max_age_misses():
    tr = Tracker()
    for frame in range(1, 4):
        tr.step(frame, [det(frame, 50, 50)])
    for frame in range(4, 7):  # 3 misses: still alive
        snaps = tr.step(frame, [])
    assert len(snaps) == 1 and snaps[0].status is TrackStatus.CONFIRMED
    snaps = tr.step(7, [det(7, 50, 50)])
    assert [s.track_id for s in snaps] == [1]


def test_tentative_deleted_on_single_miss():
    tr = Tracker()
    tr.step(1, [det(1, 50, 50)])
    snaps = tr.step(2, [])
    assert snaps == []
    snaps = tr.step(3, [det(3, 50, 50)])
    assert [s.track_id for s in snaps] == [2]


def test_promotion_at_n_init_hits():
    tr = Tracker()
    s1 = tr.step(1, [det(1, 50, 50)])
    s2 = tr.step(2, [det(2, 52, 50)])
    s3 = tr.step(3, [det(3, 54, 50)])
    assert s1[0].status is TrackStatus.TENTATIVE
    assert s2[0].status is TrackStatus.TENTATIVE
    assert s3[0].status is TrackStatus.CONFIRMED


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
        for s in tr.step(frame, dets):
            ids.add(s.track_id)
    assert ids == {1}


def test_non_monotonic_frame_rejected():
    tr = Tracker()
    tr.step(5, [])
    with pytest.raises(ContractError):
        tr.step(5, [])
    with pytest.raises(ContractError):
        tr.step(4, [])


def test_wrong_frame_in_batch_rejected():
    tr = Tracker()
    with pytest.raises(ContractError):
        tr.step(2, [det(1, 0, 0)])


def test_class_votes_majority_and_ties():
    tr = Tracker()
    votes = [3, 1, 3, 3, 1, 1]
    shown = []
    for frame, c in enumerate(votes, start=1):
        snaps = tr.step(frame, [det(frame, 50, 50, class_id=c)])
        assert [s.track_id for s in snaps] == [1]
        shown.append(snaps[0].class_id)
    # {3:1} {3:1,1:1} tie breaks low, {3:2,1:1} {3:3,1:1} {3:3,1:2}, {3:3,1:3} tie
    assert shown == [3, 1, 3, 3, 3, 1]


def test_no_detection_shared_between_tracks():
    tr = Tracker()
    dets1 = [det(1, 0, 0), det(1, 300, 0), det(1, 600, 0)]
    tr.step(1, dets1)
    for frame in range(2, 6):
        dets = [det(frame, 0 + 2 * frame, 0), det(frame, 300 + 2 * frame, 0),
                det(frame, 600 + 2 * frame, 0)]
        snaps = tr.step(frame, dets)
        centers = [s.centroid for s in snaps]
        assert len(set(centers)) == len(centers)
        assert len({s.track_id for s in snaps}) == len(snaps)


def test_ids_strictly_grow_and_never_reused():
    tr = Tracker()
    seen = []
    for frame in range(1, 30):
        dets = [det(frame, 50, 50)] if frame % 3 == 1 else []
        for s in tr.step(frame, dets):
            seen.append(s.track_id)
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
        for s in tr.step(frame, dets):
            ids.add(s.track_id)
    assert ids == {1}


def test_occlusion_gap_beyond_max_age_changes_id():
    tr = Tracker()
    ids = set()
    for frame in range(1, 31):
        if 12 <= frame <= 16:  # 5-frame gap
            dets = []
        else:
            dets = [det(frame, 10.0 + 3 * frame, 50)]
        for s in tr.step(frame, dets):
            ids.add(s.track_id)
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
        rows = []
        for frame, dets in batches:
            rows.extend(format_track_row(s) for s in tr.step(frame, dets))
        return rows

    assert run() == run()


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
        snaps = tr.step(frame, dets)
    by_class = {s.class_id: s.track_id for s in snaps}
    assert by_class[0] == 1 and by_class[1] == 2


def test_snapshot_bbox_is_measured_box_when_matched():
    tr = Tracker()
    snaps = tr.step(1, [det(1, 50, 50, w=20, h=40)])
    assert snaps[0].bbox == (40.0, 30.0, 20.0, 40.0)
    snaps = tr.step(2, [det(2, 53, 50, w=20, h=40)])
    assert snaps[0].bbox == (43.0, 30.0, 20.0, 40.0)


def test_coasting_snapshot_uses_prediction():
    kf = KalmanFilter(pos_weight=1e-9)
    tr = Tracker(kf=kf)
    for frame in range(1, 11):
        tr.step(frame, [det(frame, 10.0 * frame, 50)])
    snaps = tr.step(11, [])
    assert len(snaps) == 1
    # predicted center continues the 10 px/frame motion
    assert snaps[0].centroid[0] == pytest.approx(110.0, abs=1e-3)


def test_history_frames_strictly_increasing():
    tr = Tracker()
    frames = []
    for frame in range(1, 15):
        frames += [s.frame for s in tr.step(frame, [det(frame, 5.0 * frame, 50)])
                   if s.track_id == 1]
    assert frames == sorted(frames) and len(set(frames)) == len(frames)
    assert frames == list(range(1, 15))


@pytest.mark.parametrize("h", [1e-38, 1e-7])
def test_ill_conditioned_track_is_left_unmatched(h):
    # the same sub-pixel box every frame: each frame's tentative track has an
    # ill-conditioned projection, so stage 2 leaves it unmatched and a new
    # track is born instead of update_many raising
    tr = Tracker()
    for frame in range(1, 6):
        snaps = tr.step(frame, [Detection(frame=frame, class_id=0, bbox=(0.0, 0.0, 1.0, h),
                                          confidence=0.9)])
        assert [s.track_id for s in snaps] == [frame]
        assert snaps[0].status is TrackStatus.TENTATIVE


def test_format_track_row():
    tr = Tracker()
    snaps = tr.step(1, [det(1, 50, 50, w=20, h=40, class_id=3)])
    row = format_track_row(snaps[0])
    assert row.split("\t") == ["1", "1", "3", "50", "50", "20", "40"]
