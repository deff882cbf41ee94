"""Fuzzed scenes through `synth.generate`, checked against the scan oracle,
and synth's elementwise segment test against the scalar one.

Needs hypothesis (the `test` extra in pyproject.toml); skipped without it.
Each test tags the branches it reaches with `hypothesis.event`; run with
`--hypothesis-show-statistics` to see how often each is reached.
"""
import io
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import generate_by_scan, segments_intersect  # noqa: E402
from trafficstate.calib import CalibrationParams  # noqa: E402
from trafficstate.detstream import write_detections  # noqa: E402
from trafficstate.synth import AgentSpec, ScenarioSpec, _meets, generate  # noqa: E402
from trafficstate.traffic import LineOfInterest  # noqa: E402

CALIB = CalibrationParams(phi=2.0, omega=2.0, delta_deg=75.0, x0=-10.0, y0=5.0)


@st.composite
def scenes(draw):
    """(spec, loi, interval_s): agents in any spawn order, some spawning past the
    scene's end or ending before it, with every kind of corruption synth has."""
    fps = draw(st.sampled_from([7.3, 10.0, 25.0]))
    duration_s = draw(st.sampled_from([1.0, 2.3, 3.0]))
    n_frames = int(round(duration_s * fps))
    agents = []
    for _ in range(draw(st.integers(1, 6))):
        spawn = draw(st.integers(1, n_frames + 3))
        end = draw(st.one_of(st.none(), st.integers(spawn, n_frames + 5)))
        # the line of interest is x = 5 for |y| <= 20: an agent moving along
        # it starts on, before or past the segment; a still one may sit on it
        kind = draw(st.sampled_from(["moving", "still", "along the line"]))
        event(f"agent kind: {kind}")
        if kind == "moving":
            x0, y0 = draw(st.floats(-5.0, 15.0)), draw(st.floats(-5.0, 5.0))
            vx, vy = draw(st.floats(-10.0, 10.0)), draw(st.floats(-3.0, 3.0))
        elif kind == "still":
            x0, y0 = draw(st.sampled_from([5.0, -1.5])), draw(st.sampled_from([0.0, 20.0, 21.0]))
            vx = vy = 0.0
        else:
            x0, y0 = 5.0, draw(st.floats(-40.0, 40.0))
            vx, vy = 0.0, draw(st.floats(-30.0, 30.0))
        agents.append(AgentSpec(
            class_id=draw(st.integers(0, 3)), x0_m=x0, y0_m=y0, vx_mps=vx, vy_mps=vy,
            spawn_frame=spawn, end_frame=end,
        ))
    occlusions = []
    for _ in range(draw(st.integers(0, 3))):
        first = draw(st.integers(1, n_frames))
        occlusions.append((draw(st.integers(0, len(agents) - 1)), first,
                           draw(st.integers(first, n_frames))))
    spec = ScenarioSpec(
        agents=agents, duration_s=duration_s, fps=fps, calibration=CALIB,
        noise_std_px=draw(st.sampled_from([0.0, 1.5])),
        miss_prob=draw(st.sampled_from([0.0, 0.3])), occlusions=occlusions,
        embedding_dim=draw(st.sampled_from([0, 3, 8])),
        embedding_noise_std=draw(st.sampled_from([0.0, 0.2])),
        seed=draw(st.integers(0, 2**32)),
    )
    loi = LineOfInterest(a=(5.0, -20.0), b=(5.0, 20.0),
                         direction=draw(st.sampled_from([None, 1, -1])))
    return spec, loi, draw(st.sampled_from([0.4, 0.7, 1.0, duration_s]))


def render(batches):
    buf = io.StringIO()
    write_detections(buf, batches)
    return buf.getvalue()


def agent(spawn, end=None, x0=0.0):
    return AgentSpec(class_id=spawn % 3, x0_m=x0, y0_m=0.0, vx_mps=6.0, vy_mps=0.5,
                     spawn_frame=spawn, end_frame=end)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scene=scenes())
# agents listed against spawn order, one entering with another on the frame
# a third leaves, one past the end, and drawing noise, misses and embeddings
@example(scene=(ScenarioSpec(
    agents=[agent(9, 30), agent(3, 9, 2.0), agent(9), agent(1, 5), agent(40), agent(6, 6)],
    duration_s=3.0, fps=7.3, calibration=CALIB, noise_std_px=1.0, miss_prob=0.2,
    occlusions=[(0, 10, 12), (2, 9, 9)], embedding_dim=4, embedding_noise_std=0.1, seed=7,
), LineOfInterest(a=(5.0, -20.0), b=(5.0, 20.0), direction=1), 0.7))
# a line whose extent leaves float range: the direction test's products are
# inf and nan, with no warning, as in floats
@example(scene=(ScenarioSpec(agents=[agent(1), AgentSpec(class_id=0, x0_m=-3.0, y0_m=0.0,
                                                         vx_mps=6.0, vy_mps=0.0)],
                             duration_s=2.3, fps=10.0, calibration=CALIB, seed=3),
                LineOfInterest(a=(1e308, -1e308), b=(-1e308, 1e308), direction=-1), 1.0))
def test_sweep_gives_the_scan_oracles_bytes_and_truth(scene):
    batches, truth = generate(*scene)
    want_batches, want = generate_by_scan(*scene)
    assert render(batches) == render(want_batches)
    assert [p.tolist() for p in truth.trajectories] == want.trajectories
    assert truth.counts == want.counts
    assert truth.speeds == want.speeds
    event(f"crossings counted: {min(sum(truth.counts.values()), 2)}")


def branch(p, q, a, b):
    """Which branch of oracles.segments_intersect the segment p -> q takes."""
    rx, ry = q[0] - p[0], q[1] - p[1]
    sx, sy = b[0] - a[0], b[1] - a[1]
    denom = rx * sy - ry * sx
    if math.isnan(denom):
        return "non-finite denominator"
    if denom != 0.0:
        return "crossing test"
    if (a[0] - p[0]) * ry - (a[1] - p[1]) * rx != 0.0:
        return "parallel, off the line"
    if rx * rx + ry * ry == 0.0:
        return "zero-length, in the line's box test"
    return "collinear, parameter overlap"


# values that put a segment on the line, at its ends, across the signed zero
# and next to float max, where products overflow to inf and nan
COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 3.0, 1e308, -1e308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 5e-324]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def lines_and_paths(draw):
    """(x, y, a, b): a path of 1 to 8 points and a segment a -> b. A point is
    free, repeats the one before (a zero-length segment), is an endpoint of
    the segment, or lies on its line at a parameter that may fall outside it."""
    a, b = (draw(COORD), draw(COORD)), (draw(COORD), draw(COORD))
    points = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["free", "repeat", "endpoint", "on the line"]))
        if kind == "repeat" and points:
            p = points[-1]
        elif kind == "endpoint":
            p = draw(st.sampled_from([a, b]))
        elif kind == "on the line":
            s = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0]))
            p = (a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1]))
            if not all(map(math.isfinite, p)):
                p = a
        else:
            p = (draw(COORD), draw(COORD))
        points.append(p)
    x, y = (np.array(v, dtype=np.float64).reshape(-1) for v in zip(*points))
    return x, y, a, b


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(case=lines_and_paths())
# an endpoint on the line, collinear overlap, a disjoint collinear run, still
# points on and off it, a shared endpoint, both signed zeros, and products
# past float max
@example(case=(np.array([0.0, 1.0, 3.0, 4.0, 4.0, 9.0, 9.0, -0.0]),
               np.array([-0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]), (1.0, 0.0), (3.0, -0.0)))
@example(case=(np.array([1e308, -1e308, 1.7e308, -1.7e308]),
               np.array([1e308, -1e308, -1.7e308, 1.7e308]), (-1e308, 1e308), (1e308, -1e308)))
def test_elementwise_segment_test_equals_the_scalar_one(case):
    x, y, a, b = case
    got = _meets(x, y, a, b).tolist()
    points = list(zip(x.tolist(), y.tolist()))
    want = [segments_intersect(p, q, a, b) for p, q in zip(points, points[1:])]
    assert got == want
    for p, q, hit in zip(points, points[1:], want):
        event(f"{branch(p, q, a, b)}: {'hit' if hit else 'miss'}")
