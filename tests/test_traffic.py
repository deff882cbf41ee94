import io
import math
import tracemalloc

import numpy as np
import pytest

from trafficstate.calib import CalibrationParams
from trafficstate.errors import ContractError, ParseError, ValidationError
from trafficstate.tracker import LiveTracks
from trafficstate.traffic import (
    MAX_INTERVALS,
    IntervalRow,
    LineOfInterest,
    Trajectory,
    assemble_trajectories,
    interval_count,
    interval_grid,
    interval_rows,
    measure_intervals,
    parse_intervals,
    write_intervals,
)

from oracles import point_rows

IDENTITY = CalibrationParams(1.0, 1.0, 90.0)
LOI_X0 = LineOfInterest(a=(0.0, -100.0), b=(0.0, 100.0))


def live(frame, *rows):
    """A LiveTracks record of (track_id, cx, cy[, class_id]) rows, 10 px boxes."""
    rows = sorted(r + (0,) * (4 - len(r)) for r in rows)
    return LiveTracks(
        frame=frame, ids=np.array([r[0] for r in rows], dtype=np.int64),
        confirmed=np.ones(len(rows), dtype=bool),
        class_ids=np.array([r[3] for r in rows], dtype=np.int64),
        boxes=np.array([(cx - 5, cy - 5, 10.0, 10.0) for _, cx, cy, _ in rows]).reshape(-1, 4))


def traj(track_id, points, class_id=0):
    return Trajectory(track_id=track_id, class_id=class_id, points=point_rows(points))


def interval_speed(trajectory, interval_s, fps, index=0, total_duration=None):
    """The trajectory's mean speed (km/h) in interval `index` of the grid,
    None if absent.

    The grid is one interval long unless total_duration says otherwise.
    """
    rows = measure_intervals([trajectory], LOI_X0, interval_s, fps,
                             total_duration or interval_s)
    row = next((r for r in rows if (r.interval, r.class_id) == (index, trajectory.class_id)),
               None)
    if row is None or row.n_speed_tracks == 0:
        return None
    assert row.n_speed_tracks == 1
    return row.mean_speed_kmh


def crossings(rows):
    """{(interval, class): count} of the rows that count a crossing."""
    return {(r.interval, r.class_id): r.count for r in rows if r.count}


def rows_of(interval_s, total_duration, counts, speeds):
    return interval_rows(interval_grid(interval_s, total_duration), interval_s, counts, speeds)


# -- trajectory assembly -------------------------------------------------------

def test_assemble_single_track():
    frames = [live(f, (1, float(f), 0.0)) for f in range(1, 6)]
    out = assemble_trajectories(frames, IDENTITY)
    assert len(out) == 1
    assert out[0].points.tolist() == [(f, float(f), 0.0) for f in range(1, 6)]


def test_assemble_interleaved_tracks():
    frames = [live(f, (2, 10.0 * f, 0.0), (1, -10.0 * f, 5.0)) for f in range(1, 4)]
    out = assemble_trajectories(frames, IDENTITY)
    assert [t.track_id for t in out] == [1, 2]
    for t in out:
        frames = t.points["frame"].tolist()
        assert frames == sorted(frames)


def test_assemble_identity_calibration_keeps_centroids():
    out = assemble_trajectories([live(1, (1, 12.5, -3.25))], IDENTITY)
    assert out[0].points.tolist() == [(1, 12.5, -3.25)]


def test_assemble_applies_calibration():
    calib = CalibrationParams(phi=2.0, omega=4.0, delta_deg=90.0, x0=100.0, y0=50.0)
    out = assemble_trajectories([live(1, (1, 10.0, 20.0))], calib)
    assert out[0].points.tolist() == [(1, 100.0 + 10.0 / 2.0, 50.0 + 20.0 / 4.0)]


def test_assemble_labels_a_track_by_its_last_frame_and_skips_empty_frames():
    frames = [live(1, (1, 0.0, 0.0, 3)), live(2), live(3, (1, 1.0, 0.0, 5), (2, 9.0, 9.0, 1)),
              live(4, (2, 9.0, 9.0, 4))]
    out = assemble_trajectories(frames, IDENTITY)
    assert [(t.track_id, t.class_id) for t in out] == [(1, 5), (2, 4)]
    assert out[0].points["frame"].tolist() == [1, 3]
    assert assemble_trajectories([], IDENTITY) == []
    assert assemble_trajectories([live(1), live(2)], IDENTITY) == []


def test_assemble_refuses_a_world_point_that_is_not_finite():
    # a magnification of 1e-307 maps x = 20 px past float max, and x = 0 to 0;
    # the map runs without a NumPy warning, which is an error under pytest.
    # The first such point in frame order is named, not the lowest track id
    calib = CalibrationParams(phi=1e-307, omega=1.0, delta_deg=90.0)
    frames = [live(1, (2, 0.0, 0.0)), live(2, (2, 0.0, 0.0), (5, 20.0, 0.0)),
              live(3, (1, 30.0, 0.0), (2, 0.0, 0.0), (5, 20.0, 0.0))]
    with pytest.raises(ValidationError, match=r"^track 5, frame 2: world point \(inf, 0\) is "
                                              r"not finite \(\[calibration\] maps the box"):
        assemble_trajectories(frames, calib)


# -- segment crossing ------------------------------------------------------------

def segment_crosses(p, q, loi):
    """Whether a one-segment trajectory p -> q is counted crossing loi."""
    rows = measure_intervals([traj(1, [(1, *p), (2, *q)])], loi, 1.0, 1.0, 2.0)
    return sum(r.count for r in rows) == 1


def test_segment_crosses_transversal():
    loi = LineOfInterest(a=(-1.0, 0.0), b=(1.0, 0.0))
    assert segment_crosses((0.0, -1.0), (0.0, 1.0), loi)


def test_segment_crosses_disjoint():
    loi = LineOfInterest(a=(-1.0, 0.0), b=(1.0, 0.0))
    assert not segment_crosses((5.0, 1.0), (5.0, 2.0), loi)


def test_segment_crosses_endpoint_touch():
    loi = LineOfInterest(a=(-1.0, 0.0), b=(1.0, 0.0))
    assert segment_crosses((0.5, 1.0), (0.5, 0.0), loi)


def test_segment_crosses_collinear_overlap():
    loi = LineOfInterest(a=(0.0, 0.0), b=(10.0, 0.0))
    assert segment_crosses((5.0, 0.0), (15.0, 0.0), loi)
    assert not segment_crosses((11.0, 0.0), (15.0, 0.0), loi)


def test_segment_crosses_at_a_scale_where_orientation_products_underflow():
    # the orientations are about +-2e-200; a product of two of them is 0
    loi = LineOfInterest(a=(0.0, -1e-100), b=(0.0, 1e-100))
    assert segment_crosses((-1e-100, 0.0), (1e-100, 0.0), loi)


# -- frame order ------------------------------------------------------------------

@pytest.mark.parametrize("frames", [(1, 1), (5, 3)], ids=["repeated", "backwards"])
def test_frames_must_strictly_increase_within_a_trajectory(frames):
    # unchecked, a repeated frame divides by zero elapsed time and a frame
    # going back gives a negative speed (-6.25 m/s for frames 5 then 3)
    points = [(frames[0], 0.5, 0.0), (frames[1], 1.0, 0.0)]
    ok = traj(7, [(1, 0.0, 0.0), (2, 1.0, 0.0)])
    with pytest.raises(ContractError, match=r"^trajectory 9: frame \d after frame \d; "
                                            "frames must strictly increase"):
        measure_intervals([ok, traj(9, points)], LOI_X0, 1.0, 25.0, 1.0)


# -- counting and flow -------------------------------------------------------------

def test_flow_example_12_crossings_720_vph():
    trajectories = [
        traj(i, [(10 + i, -1.0, float(i)), (11 + i, 1.0, float(i))], class_id=4)
        for i in range(12)
    ]
    rows = measure_intervals(trajectories, LOI_X0, interval_s=60.0, fps=25.0,
                             total_duration=60.0)
    assert len(rows) == 1
    assert crossings(rows) == {(0, 4): 12}
    assert rows[0].flow_vph == pytest.approx(720.0)


def test_oscillating_track_counted_once():
    pts = [(1, -1.0, 0.0), (2, 1.0, 0.0), (3, -1.0, 0.0), (4, 1.0, 0.0)]
    rows = measure_intervals([traj(1, pts)], LOI_X0, 60.0, 25.0, 60.0)
    assert crossings(rows) == {(0, 0): 1}


def test_crossing_attributed_to_later_frame_interval():
    # crossing segment spans frames 250 -> 251 at 25 fps: t=10.04 s, second interval
    pts = [(250, -1.0, 0.0), (251, 1.0, 0.0)]
    rows = measure_intervals([traj(1, pts)], LOI_X0, 10.0, 25.0, 30.0)
    assert crossings(rows) == {(1, 0): 1}


@pytest.mark.parametrize("frame", [-29, -9])
def test_a_crossing_before_time_zero_counts_in_no_interval(frame):
    # at t = -1.16 s the interval index was -1, the last interval; at
    # t = -0.36 s int() rounded it up to 0, the first
    loi = LineOfInterest(a=(0.0, -5.0), b=(0.0, 5.0))
    pts = [(frame - 1, -1.0, 0.0), (frame, 1.0, 0.0)]
    assert measure_intervals([traj(1, pts)], loi, 1.0, 25.0, 3.0) == []


def test_direction_filter():
    up = LineOfInterest(a=(0.0, -100.0), b=(0.0, 100.0), direction=1)
    down = LineOfInterest(a=(0.0, -100.0), b=(0.0, 100.0), direction=-1)
    rightward = [traj(1, [(1, -1.0, 0.0), (2, 1.0, 0.0)])]
    rows_up = measure_intervals(rightward, up, 60.0, 25.0, 60.0)
    rows_down = measure_intervals(rightward, down, 60.0, 25.0, 60.0)
    counted = [r for r in (rows_up + rows_down) if r.count]
    assert len(counted) == 1


def test_counts_bounded_by_distinct_tracks():
    rng = np.random.default_rng(12)
    trajectories = []
    for tid in range(30):
        pts = []
        x = rng.uniform(-5, 5)
        for f in range(1, 40):
            x += rng.uniform(-2, 2)
            pts.append((f, x, rng.uniform(-50, 50)))
        trajectories.append(traj(tid, pts, class_id=int(rng.integers(0, 3))))
    rows = measure_intervals(trajectories, LOI_X0, 0.4, 25.0, 39 / 25)
    per_class_total = {}
    for r in rows:
        per_class_total[r.class_id] = per_class_total.get(r.class_id, 0) + r.count
    by_class = {}
    for t in trajectories:
        by_class[t.class_id] = by_class.get(t.class_id, 0) + 1
    for k, total in per_class_total.items():
        assert total <= by_class[k]


def test_flow_invariant_under_whole_interval_time_shift():
    pts = [(10, -1.0, 0.0), (11, 1.0, 0.0)]
    rows1 = measure_intervals([traj(1, pts)], LOI_X0, 2.0, 25.0, 10.0)
    shifted = [(f + 50, x, y) for f, x, y in pts]  # exactly one 2 s interval
    rows2 = measure_intervals([traj(1, shifted)], LOI_X0, 2.0, 25.0, 10.0)
    assert sorted(r.flow_vph for r in rows1) == sorted(r.flow_vph for r in rows2)
    i1 = next(r.interval for r in rows1 if r.count)
    i2 = next(r.interval for r in rows2 if r.count)
    assert i2 == i1 + 1


# -- speeds ---------------------------------------------------------------------

def test_interval_speed_uniform_motion():
    pts = [(f, 0.4 * f, 0.0) for f in range(0, 26)]
    v = interval_speed(traj(1, pts), 60.0, fps=25.0)
    assert v == pytest.approx(36.0)   # 10 m/s


def test_interval_speed_stationary():
    pts = [(f, 3.0, 4.0) for f in range(0, 10)]
    assert interval_speed(traj(1, pts), 10.0, fps=25.0) == 0.0


def test_interval_speed_single_point_absent():
    assert interval_speed(traj(1, [(1, 0.0, 0.0)]), 10.0, fps=25.0) is None


def test_interval_speed_uses_only_in_interval_points():
    pts = [(f, 1.0 * f, 0.0) for f in range(1, 101)]
    v = interval_speed(traj(1, pts), 1.0, fps=25.0, index=1, total_duration=4.0)
    # frames 25..49 fall in [1, 2): 24 steps of 1 m over 24/25 s, 25 m/s
    assert v == pytest.approx(90.0)


def test_interval_speed_translation_and_rotation_invariant():
    rng = np.random.default_rng(13)
    pts = [(f, float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
           for f in range(1, 30)]
    base = interval_speed(traj(1, pts), 2.0, fps=25.0)
    dx, dy = rng.uniform(-100, 100, size=2)
    shifted = [(f, x + dx, y + dy) for f, x, y in pts]
    theta = rng.uniform(0, 2 * math.pi)
    c, s = math.cos(theta), math.sin(theta)
    rotated = [(f, c * x - s * y, s * x + c * y) for f, x, y in pts]
    # 1e-9 m/s, in km/h
    assert interval_speed(traj(1, shifted), 2.0, 25.0) == pytest.approx(base, abs=3.6e-9)
    assert interval_speed(traj(1, rotated), 2.0, 25.0) == pytest.approx(base, abs=3.6e-9)


def test_interval_speed_doubles_with_fps():
    pts = [(f, 0.5 * f, 0.0) for f in range(1, 40)]
    v1 = interval_speed(traj(1, pts), 100.0, fps=25.0)
    v2 = interval_speed(traj(1, pts), 100.0, fps=50.0)
    assert v2 == pytest.approx(2.0 * v1, abs=3.6e-9)   # 1e-9 m/s, in km/h


# -- the row builder ----------------------------------------------------------------

def test_aggregate_mean_and_unit_conversion():
    [row] = rows_of(60.0, 60.0, {}, {(0, 2): [10.0, 20.0]})
    assert row == IntervalRow(0, 0.0, 60.0, 2, 0, 0.0, 54.0, 2)


def test_aggregate_empty_class_absent():
    [row] = rows_of(60.0, 60.0, {(0, 1): 1}, {})
    assert (row.interval, row.class_id, row.count, row.flow_vph) == (0, 1, 1, 60.0)
    assert math.isnan(row.mean_speed_kmh) and row.n_speed_tracks == 0
    assert rows_of(60.0, 60.0, {}, {}) == []


def test_aggregate_singleton():
    [row] = rows_of(60.0, 60.0, {}, {(0, 1): [7.5]})
    assert row.mean_speed_kmh == 27.0


def test_rows_come_in_interval_class_order_with_their_bounds():
    rows = rows_of(60.0, 150.0, {(2, 0): 1, (0, 3): 2}, {(0, 1): [5.0], (2, 0): [10.0, 5.0]})
    assert [(r.interval, r.class_id, r.start, r.end, r.count, r.n_speed_tracks)
            for r in rows] == [(0, 1, 0.0, 60.0, 0, 1), (0, 3, 0.0, 60.0, 2, 0),
                               (2, 0, 120.0, 150.0, 1, 2)]
    assert [r.flow_vph for r in rows] == [0.0, 120.0, 60.0]
    assert rows[2].mean_speed_kmh == (15.0 / 2) * 3.6


MEAN_NOT_FINITE = (r"^interval 1, class 4: mean_speed_kmh is not finite \(path length "
                   r"through \[calibration\] over frames / \[measure\] fps\)$")


@pytest.mark.parametrize("interval_s,speeds,error", [
    (1.0, [1e308, 1e308], MEAN_NOT_FINITE),
    (1.0, [math.inf], MEAN_NOT_FINITE),
    (1.0, [math.inf, -math.inf], MEAN_NOT_FINITE),    # a nan mean, which was written
    (1.0, [math.nan], MEAN_NOT_FINITE),
    (1e-306, [], r"^interval 0, class 4: flow_vph is not finite "
                 r"\(count \* 3600 / \[measure\] interval_s\)$"),
], ids=["overflow", "inf", "inf-inf", "nan", "flow"])
def test_builder_refuses_a_flow_or_mean_speed_that_is_not_finite(interval_s, speeds, error):
    with pytest.raises(ValidationError, match=error):
        rows_of(interval_s, 3 * interval_s, {(0, 4): 1}, {(1, 4): speeds} if speeds else {})


# -- interval grid ----------------------------------------------------------------

def test_interval_grid_partial_final():
    starts, ends = interval_grid(60.0, 150.0)
    assert starts.tolist() == [0.0, 60.0, 120.0] and ends.tolist() == [60.0, 120.0, 150.0]
    # i * interval_s and (i + 1) * interval_s, not a running sum of interval_s
    starts, ends = interval_grid(0.1, 1.0)
    assert starts.tolist() == [i * 0.1 for i in range(10)]
    assert ends.tolist() == [min((i + 1) * 0.1, 1.0) for i in range(10)]


def test_interval_grid_validation():
    for interval_s, total in [(0.0, 10.0), (math.nan, 10.0), (math.inf, 10.0), (1.0, math.inf),
                              (1.0, math.nan), (1.0, -1.0)]:
        with pytest.raises(ValidationError):
            interval_grid(interval_s, total)
    # the cap is checked before any interval is built, and the error names both values
    assert interval_count(1.0, float(MAX_INTERVALS)) == MAX_INTERVALS
    with pytest.raises(ValidationError, match=r"interval_s = 5.0 .* 1000000000.0 s"):
        interval_grid(5.0, 1e9)


def test_a_long_grid_costs_memory_by_arrays_not_by_objects():
    # 10^6 intervals of 0.01 s and a 2-point track crossing in one of them:
    # the grid is two arrays of 8 MB, where an object per interval would
    # take hundreds of MB
    assert interval_count(0.01, 10000.0) == MAX_INTERVALS
    tracemalloc.start()
    try:
        rows = measure_intervals([traj(1, [(1, 0.0, 0.0), (2, 1.0, 0.0)])], LOI_X0,
                                 0.01, 25.0, 10000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert crossings(rows) == {(8, 0): 1} and len(rows) == 1


def test_speed_measured_in_final_closed_interval():
    pts = [(f, 0.4 * f, 0.0) for f in range(45, 51)]  # t in [1.8, 2.0]
    assert interval_speed(traj(1, pts), 1.0, 25.0, index=1,
                          total_duration=2.0) == pytest.approx(36.0)   # 10 m/s


# -- file round trip ----------------------------------------------------------------

def test_write_and_parse_intervals():
    trajectories = [
        traj(1, [(f, 0.4 * f, 0.0) for f in range(1, 27)], class_id=2),
        traj(2, [(f, -1.0 + 0.5 * f, 10.0) for f in range(1, 27)], class_id=0),
    ]
    buf = io.StringIO()
    write_intervals(buf, measure_intervals(trajectories, LOI_X0, 60.0, 25.0, 60.0))
    text = buf.getvalue()
    assert text.splitlines()[0].startswith("interval\t")
    rows = parse_intervals(io.StringIO(text))
    assert {r.class_id for r in rows} == {0, 2}
    row2 = next(r for r in rows if r.class_id == 2)
    assert row2.count == 0  # trajectory 1 starts right of the line, never crosses
    assert row2.n_speed_tracks == 1
    assert row2.mean_speed_kmh == pytest.approx(36.0)
    row0 = next(r for r in rows if r.class_id == 0)
    assert row0.count == 1
    assert row0.flow_vph == pytest.approx(60.0)


@pytest.mark.parametrize("row", [
    "0\tinf\t60\t1\t1\t60\t30\t1",     # t_start_s
    "0\t0\tnan\t1\t1\t60\t30\t1",      # t_end_s
    "0\t0\t60\t1\t1\tinf\t30\t1",      # flow_vph
    "0\t0\t60\t1\t1\tnan\t30\t1",
    "0\t0\t60\t1\t1\t60\t-inf\t1",     # mean_speed_kmh may be nan, not inf
    "0\t0\t60\t1\t-1\t-60\t30\t1",     # count
    "0\t0\t60\t1\t1\t60\t30\t-1",      # n_speed_tracks
    "-1\t0\t60\t1\t1\t60\t30\t1",      # interval
    "0\t0\t60\t-4\t1\t60\t30\t1",      # class
    "0\t0\t60\t1\t1\t60\tnan\t3",      # a speed must exist with speed tracks
    "0\t0\t60\t1\t1\t60\t30\t0",       # and must not exist without them
    "-1\t60\t0\t-4\t1\t60\tnan\t3",
])
def test_parse_intervals_rejects_non_finite_and_negative_values(row):
    with pytest.raises(ParseError) as exc:
        parse_intervals(io.StringIO("0\t0\t60\t0\t1\t60\tnan\t0\n" + row + "\n"),
                        path="m.txt")
    assert str(exc.value).startswith("m.txt:2:")
