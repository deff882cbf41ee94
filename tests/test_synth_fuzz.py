"""Fuzzed scenes through `synth.generate`, checked against the scan oracle.

Needs hypothesis (the `test` extra in pyproject.toml); skipped without it.
"""
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import generate_by_scan  # noqa: E402
from trafficstate.calib import CalibrationParams  # noqa: E402
from trafficstate.detstream import write_detections  # noqa: E402
from trafficstate.synth import AgentSpec, ScenarioSpec, generate  # noqa: E402
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
        agents.append(AgentSpec(
            class_id=draw(st.integers(0, 3)),
            x0_m=draw(st.floats(-5.0, 15.0)), y0_m=draw(st.floats(-5.0, 5.0)),
            vx_mps=draw(st.floats(-10.0, 10.0)), vy_mps=draw(st.floats(-3.0, 3.0)),
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
def test_sweep_gives_the_scan_oracles_bytes_and_truth(scene):
    batches, truth = generate(*scene)
    want_batches, want = generate_by_scan(*scene)
    assert render(batches) == render(want_batches)
    assert truth.trajectories == want.trajectories
    assert truth.counts == want.counts
    assert truth.speeds == want.speeds
