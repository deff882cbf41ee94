import io
import math
import tracemalloc

import numpy as np
import pytest

from test_bench_outputs import scenes   # bench/scenes.py, loaded from its file
from trafficstate.calib import CalibrationParams, to_pixel
from trafficstate.detstream import write_detections
from trafficstate.errors import ValidationError
from trafficstate.synth import (
    MAX_EMBEDDING_DIM,
    AgentSpec,
    ScenarioSpec,
    _ground_truth,
    _path,
    generate,
    loi_to_world,
    parse_scenario,
)
from trafficstate.traffic import LineOfInterest

CALIB = CalibrationParams(phi=2.0, omega=2.0, delta_deg=90.0, x0=-10.0, y0=5.0)
LOI = LineOfInterest(a=(20.0, -100.0), b=(20.0, 100.0))


def one_agent_spec(**kwargs):
    defaults = dict(
        agents=[AgentSpec(class_id=1, x0_m=0.0, y0_m=0.0, vx_mps=10.0, vy_mps=0.0)],
        duration_s=4.0, fps=25.0, calibration=CALIB, seed=3,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def render(batches):
    buf = io.StringIO()
    write_detections(buf, batches)
    return buf.getvalue()


def test_same_seed_identical_bytes():
    spec_kwargs = dict(noise_std_px=1.5, miss_prob=0.1, embedding_dim=6,
                       embedding_noise_std=0.1)
    a = render(generate(one_agent_spec(**spec_kwargs), LOI, 2.0)[0])
    b = render(generate(one_agent_spec(**spec_kwargs), LOI, 2.0)[0])
    assert a == b


def test_different_seed_differs():
    a = render(generate(one_agent_spec(noise_std_px=1.0), LOI, 2.0)[0])
    b = render(generate(one_agent_spec(noise_std_px=1.0, seed=4), LOI, 2.0)[0])
    assert a != b


def test_noiseless_centroids_equal_projected_positions():
    spec = one_agent_spec()
    batches, truth = generate(spec, LOI, 2.0)
    for (frame, dets), (tf, wx, wy) in zip(batches, truth.trajectories[0].tolist()):
        assert frame == tf and len(dets) == 1
        x, y, w, h = dets[0].bbox
        cx, cy = x + w / 2.0, y + h / 2.0
        px, py = to_pixel(wx, wy, CALIB)
        assert cx == pytest.approx(px, abs=1e-9)
        assert cy == pytest.approx(py, abs=1e-9)


def test_ground_truth_count_in_containing_interval():
    # agent reaches x=20 m at t=2 s; crossing lands in the second 1 s interval...
    # crossing segment's later frame is 51 (t=2.04 s) with 25 fps, interval index 2
    spec = one_agent_spec()
    _, truth = generate(spec, LOI, 1.0)
    assert truth.counts == {(2, 1): 1}


def test_ground_truth_speed_constant():
    spec = one_agent_spec()
    _, truth = generate(spec, LOI, 2.0)
    assert sorted(truth.speeds) == [(0, 1), (1, 1)]
    for speeds in truth.speeds.values():
        assert speeds == [pytest.approx(10.0)]


def test_direction_filter_in_ground_truth():
    spec = one_agent_spec()
    loi_with = LineOfInterest(a=LOI.a, b=LOI.b, direction=-1)
    loi_against = LineOfInterest(a=LOI.a, b=LOI.b, direction=1)
    _, t_with = generate(spec, loi_with, 1.0)
    _, t_against = generate(spec, loi_against, 1.0)
    assert sum(t_with.counts.values()) + sum(t_against.counts.values()) == 1


def test_occlusion_window_drops_detections():
    spec = one_agent_spec(occlusions=[(0, 10, 12)])
    batches, _ = generate(spec, LOI, 2.0)
    sizes = {frame: len(dets) for frame, dets in batches}
    assert sizes[9] == 1 and sizes[10] == 0 and sizes[12] == 0 and sizes[13] == 1


def test_miss_probability_drops_frames_deterministically():
    spec = one_agent_spec(miss_prob=0.3)
    batches, _ = generate(spec, LOI, 2.0)
    present = sum(len(dets) for _, dets in batches)
    assert 40 < present < 90  # ~70% of 100 frames
    again = sum(len(d) for _, d in generate(one_agent_spec(miss_prob=0.3), LOI, 2.0)[0])
    assert present == again


def test_embeddings_unit_norm_and_distinct():
    agents = [AgentSpec(class_id=0, x0_m=0, y0_m=5.0 * i, vx_mps=5, vy_mps=0)
              for i in range(3)]
    spec = one_agent_spec(agents=agents, embedding_dim=8, embedding_noise_std=0.05)
    batches, _ = generate(spec, LOI, 2.0)
    frame, dets = batches[0]
    assert len(dets) == 3
    for d in dets:
        assert abs(np.linalg.norm(d.appearance) - 1.0) <= 1e-9
    dots = [abs(float(dets[i].appearance @ dets[j].appearance))
            for i in range(3) for j in range(i + 1, 3)]
    assert all(d < 0.5 for d in dots)


def test_many_agents_random_unit_embeddings():
    agents = [AgentSpec(class_id=0, x0_m=0, y0_m=2.0 * i, vx_mps=5, vy_mps=0)
              for i in range(10)]
    spec = one_agent_spec(agents=agents, embedding_dim=4)
    batches, _ = generate(spec, LOI, 2.0)
    for d in batches[0][1]:
        assert abs(np.linalg.norm(d.appearance) - 1.0) <= 1e-9


def test_spawn_and_end_frames_respected():
    agents = [AgentSpec(class_id=0, x0_m=0, y0_m=0, vx_mps=5, vy_mps=0,
                        spawn_frame=10, end_frame=20)]
    spec = one_agent_spec(agents=agents)
    batches, truth = generate(spec, LOI, 2.0)
    sizes = {frame: len(dets) for frame, dets in batches}
    assert sizes[9] == 0 and sizes[10] == 1 and sizes[20] == 1 and sizes[21] == 0
    assert truth.trajectories[0]["frame"].tolist() == list(range(10, 21))


def test_truth_of_a_long_scene_costs_arrays_not_objects():
    # the bench's sparse_long layout over 5,000 frames: 294 agents, 71,795
    # agent-frames, whose paths take 1.6 MiB at 24 B a point. Building the
    # truth peaked at 1.94 MiB under tracemalloc, where a tuple per
    # agent-frame took 10.5 MiB; the bound leaves half the measured peak again
    spec = scenes.scenario("sparse_long", 7, scenes.Size(lanes=5, per_lane=0, frames=5000,
                                                          interval_s=5.0))
    loi = loi_to_world(scenes.LOI_PX, None, scenes.CALIBRATION)
    tracemalloc.start()
    try:
        truth = _ground_truth(spec, loi, 5.0, [_path(agent, spec) for agent in spec.agents])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, truth.trajectories)) == 71795
    assert peak < 3 * 2**20


def test_spec_validation():
    with pytest.raises(ValidationError):
        one_agent_spec(agents=[])
    with pytest.raises(ValidationError):
        one_agent_spec(miss_prob=1.0)
    with pytest.raises(ValidationError):
        one_agent_spec(occlusions=[(5, 1, 2)])
    with pytest.raises(ValidationError):
        one_agent_spec(occlusions=[(0, 0, 5)])
    with pytest.raises(ValidationError):
        AgentSpec(class_id=0, x0_m=0, y0_m=0, vx_mps=1, vy_mps=0, box_w_px=0)
    for bad in (dict(x0_m=math.nan), dict(vy_mps=math.inf), dict(box_h_px=math.inf)):
        with pytest.raises(ValidationError):
            AgentSpec(**{**dict(class_id=0, x0_m=0, y0_m=0, vx_mps=1, vy_mps=0), **bad})
    for bad in (dict(duration_s=math.inf), dict(fps=math.nan), dict(duration_s=1e308),
                dict(noise_std_px=math.nan), dict(embedding_noise_std=1e308),
                dict(embedding_dim=MAX_EMBEDDING_DIM + 1), dict(seed=-1)):
        with pytest.raises(ValidationError):
            one_agent_spec(**bad)


SCENARIO_TEXT = """\
[scenario]
fps = 25
duration_s = 8
noise_std_px = 0.5
miss_prob = 0.02
embedding_dim = 4
embedding_noise_std = 0.01
seed = 11

[calibration]
phi = 2.0
omega = 2.0
delta_deg = 90
x0 = -10
y0 = 5

[loi]
ax_px = 60
ay_px = -210
bx_px = 60
by_px = 190
direction =

[measure]
interval_s = 4

[agent.1]
class = 2
x0_m = 0
y0_m = 0
vx_mps = 10
vy_mps = 0

[agent.2]
class = 0
x0_m = 5
y0_m = 10
vx_mps = 8
vy_mps = 0
spawn_frame = 20

[occlusion.1]
agent = 0
first_frame = 50
last_frame = 52
"""


def test_parse_scenario_round_trips_fields():
    spec, loi, interval_s = parse_scenario(SCENARIO_TEXT)
    assert spec.fps == 25 and spec.duration_s == 8
    assert len(spec.agents) == 2
    assert spec.agents[1].spawn_frame == 20
    assert spec.occlusions == [(0, 50, 52)]
    assert loi.direction is None and interval_s == 4
    assert loi == loi_to_world(((60, -210), (60, 190)), None, spec.calibration)
    assert loi.a == (-10 + 60 / 2.0, 5 + -210 / 2.0)
    batches, truth = generate(spec, loi, interval_s)
    assert len(batches) == 200


def test_parse_scenario_errors():
    with pytest.raises(ValidationError):
        parse_scenario("[loi]\nax_px = 0\n")
    with pytest.raises(ValidationError):
        parse_scenario("not an ini file [ at all")
