"""Single-sweep interval measurement against the per-interval rescan oracle.

Needs hypothesis (the `test` extra in pyproject.toml); skipped without it.
"""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trafficstate.traffic import (  # noqa: E402
    LineOfInterest,
    Trajectory,
    crossing_sign,
    measure_intervals,
    segment_crosses,
)

from oracles import measure_by_rescan  # noqa: E402

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
