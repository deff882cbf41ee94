"""Trajectory assembly and the elementwise interval measurement against
their row-at-a-time and per-interval rescan oracles.

Needs hypothesis (the `test` extra in pyproject.toml); skipped without it.
"""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trafficstate.calib import CalibrationParams  # noqa: E402
from trafficstate.errors import ValidationError  # noqa: E402
from trafficstate.tracker import LiveTracks  # noqa: E402
from trafficstate.traffic import (  # noqa: E402
    LineOfInterest,
    Trajectory,
    assemble_trajectories,
    measure_intervals,
)

from oracles import (  # noqa: E402
    assemble_by_rows,
    loi_crossing,
    measure_by_rescan,
    point_rows,
    row_fields,
    rows_from_rescan,
)

# round values put frame / fps exactly on interval boundaries; the floats
# cover everything else in range
FPS = st.one_of(st.sampled_from([1.0, 2.0, 10.0, 25.0, 29.97]), st.floats(1.0, 29.97))
INTERVAL_S = st.one_of(st.sampled_from([0.1, 0.4, 0.5, 1.0, 2.0, 2.5, 5.0]),
                       st.floats(0.1, 5.0))


# round values put LoI endpoints and points exactly on each other and on
# the line; the floats cover everything else in range
VALUE = st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0]), st.floats(-3.0, 3.0))


@st.composite
def line_of_interest(draw):
    direction = draw(st.sampled_from([None, 1, -1]))
    if draw(st.booleans()):   # axis-aligned, along either axis
        c, lo = draw(VALUE), draw(VALUE)
        hi = draw(VALUE.filter(lambda v: v != lo))
        a, b = ((c, lo), (c, hi)) if draw(st.booleans()) else ((lo, c), (hi, c))
        return LineOfInterest(a=a, b=b, direction=direction)
    a = (draw(VALUE), draw(VALUE))
    b = draw(st.tuples(VALUE, VALUE).filter(lambda b: b != a))
    return LineOfInterest(a=a, b=b, direction=direction)


def point(loi):
    # an endpoint, a point on the line through the LoI (within it or past
    # its ends), or anywhere near it; round values make segments between
    # two points pass exactly through an endpoint
    (ax, ay), (bx, by) = loi.a, loi.b
    on_line = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, -0.5]),
                        st.floats(-1.0, 2.0)).map(
        lambda s: (ax + s * (bx - ax), ay + s * (by - ay)))
    anywhere = st.tuples(VALUE, VALUE)
    return st.one_of(st.just(loi.a), st.just(loi.b), on_line, anywhere, anywhere)


@st.composite
def trajectory(draw, track_id, loi):
    # frames in increasing order with gaps, some before time zero; points on
    # and near the line so that tracks cross and touch it, some more than once
    frame = draw(st.integers(-40, 60))
    points = []
    for _ in range(draw(st.integers(1, 12))):
        points.append((frame, *draw(point(loi))))
        frame += draw(st.integers(1, 8))
    return Trajectory(track_id=track_id, class_id=draw(st.integers(0, 2)),
                      points=point_rows(points))


@st.composite
def scene(draw):
    fps = draw(FPS)
    interval_s = draw(INTERVAL_S)
    loi = draw(line_of_interest())
    trajectories = [draw(trajectory(tid, loi))
                    for tid in range(1, draw(st.integers(0, 6)) + 1)]
    last_t = max(0.0, max((int(t.points["frame"][-1]) / fps for t in trajectories),
                          default=1.0))
    duration = draw(st.one_of(
        st.integers(1, 12).map(lambda k: k * interval_s),   # exact multiple
        st.just(last_t),                                     # as `track` derives it
        st.floats(0.05, last_t + 1.0),                       # often shorter than tracks
    ))
    return trajectories, loi, fps, interval_s, duration


def assert_matches_rescan(trajectories, loi, fps, interval_s, duration):
    """The engine's rows are the oracle's, every field exactly; when an oracle
    row's flow or mean speed is not finite the engine refuses the first such
    row instead."""
    want = rows_from_rescan(measure_by_rescan(trajectories, loi_crossing(loi), interval_s,
                                              fps, duration))
    refused = next((r for r in want if not math.isfinite(r[5])
                    or (r[6] is not None and not math.isfinite(r[6]))), None)
    if refused is not None:
        with pytest.raises(ValidationError, match=rf"^interval {refused[0]}, class {refused[3]}: "):
            measure_intervals(trajectories, loi, interval_s, fps, duration)
        return refused
    got = measure_intervals(trajectories, loi, interval_s, fps, duration)
    assert [row_fields(r) for r in got] == want
    return want


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=scene())
def test_sweep_matches_rescan_oracle(case):
    assert_matches_rescan(*case)


@pytest.mark.parametrize("x", [1e308, 4e307])
def test_overflowing_coordinates_match_the_oracle_without_a_warning(x):
    # a tiny calibration magnification puts world points far enough out that
    # orientation products overflow to inf and inf - inf is nan, as in
    # Python floats; a NumPy warning here is an error under pytest. Track 1's
    # path overflows to inf from x = 1e308, so its row is refused; from
    # x = 4e307 its mean stays finite, and both rows are compared
    loi = LineOfInterest(a=(0.0, -1e200), b=(0.0, 1e200))
    far = [Trajectory(1, 0, point_rows([(1, -1e200, 1e200), (2, 1e200, -1e200),
                                        (3, x, 0.0), (4, -x, 0.0)])),
           Trajectory(2, 1, point_rows([(1, -1e200, 0.0), (2, 1e200, 0.0)]))]
    want = assert_matches_rescan(far, loi, 1.0, 10.0, 4.0)
    if x == 1e308:
        assert want[:5] == (0, 0.0, 4.0, 0, 1) and want[6] == math.inf
    else:
        assert [row[3:5] + row[7:] for row in want] == [(0, 1, 1), (1, 1, 1)]


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
    assert [(t.track_id, t.class_id, t.points.tolist()) for t in got] \
        == assemble_by_rows(frames, calib)
