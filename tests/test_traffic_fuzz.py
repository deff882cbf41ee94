"""Trajectory assembly and single-sweep interval measurement against their
row-at-a-time and per-interval rescan oracles.

Needs hypothesis (the `test` extra in pyproject.toml); skipped without it.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trafficstate.calib import CalibrationParams  # noqa: E402
from trafficstate.tracker import LiveTracks  # noqa: E402
from trafficstate.traffic import (  # noqa: E402
    LineOfInterest,
    Trajectory,
    assemble_trajectories,
    crossing_sign,
    measure_intervals,
    segment_crosses,
)

from oracles import assemble_by_rows, measure_by_rescan  # noqa: E402

# round values put frame / fps exactly on interval boundaries; the floats
# cover everything else in range
FPS = st.one_of(st.sampled_from([1.0, 2.0, 10.0, 25.0, 29.97]), st.floats(1.0, 29.97))
INTERVAL_S = st.one_of(st.sampled_from([0.1, 0.4, 0.5, 1.0, 2.0, 2.5, 5.0]),
                       st.floats(0.1, 5.0))


@st.composite
def trajectory(draw, track_id):
    # frames in increasing order with gaps; points near the line x = 0 so
    # that tracks cross it, some more than once
    frame = draw(st.integers(0, 60))
    points = []
    for _ in range(draw(st.integers(1, 12))):
        points.append((frame, draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))))
        frame += draw(st.integers(1, 8))
    return Trajectory(track_id=track_id, class_id=draw(st.integers(0, 2)), points=points)


@st.composite
def scene(draw):
    fps = draw(FPS)
    interval_s = draw(INTERVAL_S)
    trajectories = [draw(trajectory(tid)) for tid in range(1, draw(st.integers(0, 6)) + 1)]
    last_t = max((t.points[-1][0] / fps for t in trajectories), default=1.0)
    duration = draw(st.one_of(
        st.integers(1, 12).map(lambda k: k * interval_s),   # exact multiple
        st.just(last_t),                                     # as `track` derives it
        st.floats(0.05, last_t + 1.0),                       # often shorter than tracks
    ))
    direction = draw(st.sampled_from([None, 1, -1]))
    return trajectories, fps, interval_s, duration, direction


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=scene())
def test_sweep_matches_rescan_oracle(case):
    trajectories, fps, interval_s, duration, direction = case
    loi = LineOfInterest(a=(0.0, -2.0), b=(0.0, 2.0), direction=direction)

    def crosses(p, q):
        return segment_crosses(p, q, loi) and (
            direction is None or crossing_sign(p, q, loi) == direction)

    got = measure_intervals(trajectories, loi, interval_s, fps, duration)
    want = measure_by_rescan(trajectories, crosses, interval_s, fps, duration)
    assert [(m.start, m.end) for m in got] == [(w["start"], w["end"]) for w in want]
    assert [m.counts for m in got] == [w["counts"] for w in want]
    assert [m.flows for m in got] == [w["flows"] for w in want]
    assert [m.speeds for m in got] == [w["speeds"] for w in want]


BOX_VALUE = st.floats(-1e5, 1e5, allow_subnormal=False)
SIZE = st.floats(1e-3, 1e5)


@st.composite
def live_tracks(draw, frame):
    # any subset of ids 1..6 (so an id may vanish and return), often none;
    # each row draws its own class, so a track's label changes over time
    ids = sorted(draw(st.sets(st.integers(1, 6), max_size=6)))
    n = len(ids)
    boxes = [(draw(BOX_VALUE), draw(BOX_VALUE), draw(SIZE), draw(SIZE)) for _ in ids]
    return LiveTracks(frame=frame, ids=np.array(ids, dtype=np.int64),
                      confirmed=np.array(draw(st.lists(st.booleans(), min_size=n,
                                                       max_size=n)), dtype=bool),
                      class_ids=np.array(draw(st.lists(st.integers(0, 3), min_size=n,
                                                       max_size=n)), dtype=np.int64),
                      boxes=np.array(boxes, dtype=np.float64).reshape(-1, 4))


@st.composite
def track_stream(draw):
    frames, frame = [], 0
    for _ in range(draw(st.integers(0, 12))):
        frame += draw(st.integers(1, 3))
        frames.append(draw(live_tracks(frame)))
    return frames


CALIB = st.builds(CalibrationParams, phi=st.floats(0.1, 10.0), omega=st.floats(0.1, 10.0),
                  delta_deg=st.one_of(st.just(90.0), st.floats(1.0, 179.0)),
                  x0=st.floats(-1e3, 1e3), y0=st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(frames=track_stream(), calib=CALIB)
def test_assembly_matches_row_oracle(frames, calib):
    got = assemble_trajectories(frames, calib)
    assert [(t.track_id, t.class_id, t.points) for t in got] == assemble_by_rows(frames, calib)
