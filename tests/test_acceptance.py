"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import functools
import math
import time

import numpy as np
import pytest
import scipy.stats

from trafficstate.assoc import (
    CostMatrix,
    appearance_distances,
    motion_distances,
    solve_assignment,
)
from trafficstate.calib import (
    CalibrationParams,
    ReferenceObject,
    derive_magnification,
    to_pixel,
    to_world,
)
from trafficstate.cli import main
from trafficstate.detstream import DetectionBatch, write_detections
from trafficstate.metrics import (
    average_precision,
    evaluate_detections,
    paired_t_test,
    pearson,
    rmse,
)
from trafficstate.motion import KalmanFilter
from trafficstate.synth import AgentSpec, ScenarioSpec, generate
from trafficstate.tracker import Tracker, TrackerConfig
from trafficstate.traffic import (
    LineOfInterest,
    assemble_trajectories,
    measure_intervals,
    parse_intervals,
)

from oracles import (
    brute_force_gated_assignment,
    loi_crossing,
    measure_by_rescan,
    row_fields,
    rows_from_rescan,
    simulate_constant_velocity,
    threshold_enumeration_ap,
)
from test_metrics import engine_labels, random_instance, stack_frames


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} [FAIL] {description}")
                raise
            print(f"ACCEPTANCE {number:2d} [PASS] {description}")
        return run
    return wrap


# -- 1: assignment oracle ------------------------------------------------------

@criterion(1, "assignment equals gated brute-force optimum (200 matrices)")
def test_assignment_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        values = rng.uniform(0.0, 10.0, size=(n, m))
        admissible = rng.random(size=(n, m)) < 0.7
        values[~admissible] = np.inf
        rows, cols = solve_assignment(CostMatrix(values=values, admissible=admissible)).matches.T
        count, cost = brute_force_gated_assignment(values, admissible)
        assert len(rows) == count
        assert values[rows, cols].sum() == pytest.approx(cost, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"assignment oracle took {elapsed:.2f}s"


# -- 2: Kalman convergence ------------------------------------------------------

@criterion(2, "Kalman locks onto noiseless constant-velocity streams")
def test_kalman_convergence():
    rng = np.random.default_rng(102)
    for _ in range(20):
        kf = KalmanFilter(pos_weight=1e-6)
        hist = simulate_constant_velocity(
            kf,
            h=float(rng.uniform(20, 200)),
            pos0=rng.uniform(-500, 500, size=2),
            vel=rng.uniform(-8, 8, size=2),
            steps=20,
        )
        assert hist[9][1] < 1e-6, f"positional error {hist[9][1]} after 10 cycles"
        assert hist[19][2] < 1e-3, f"velocity error {hist[19][2]} after 20 cycles"


# -- 3: distance identities -------------------------------------------------------

@criterion(3, "Mahalanobis/cosine distance identities")
def test_distance_identities():
    rng = np.random.default_rng(103)
    one = np.array([True])
    for _ in range(1000):
        sigma2 = float(rng.uniform(0.05, 100.0))
        y = rng.normal(scale=50.0, size=4)
        d = rng.normal(scale=50.0, size=4)
        got = motion_distances(y[:, None], sigma2 * np.ones((4, 1)), one, d[:, None])[0, 0]
        want = float((d - y) @ (d - y)) / sigma2
        assert abs(got - want) <= 1e-9 * max(1.0, want)
    members = []
    for _ in range(50):
        v = rng.normal(size=16)
        members.append(v / np.linalg.norm(v))
    members = np.array(members)[None]   # one gallery buffer, in row 0
    row, pair = np.array([0]), (np.array([0]), np.array([0]))
    for _ in range(200):
        q = rng.normal(size=16)
        q /= np.linalg.norm(q)
        d2 = appearance_distances(members, row, np.array([50]), q[None], *pair)
        assert 0.0 <= d2[0] <= 2.0
    exact = np.zeros(16)
    exact[3] = 1.0
    d2 = appearance_distances(exact[None, None], row, np.array([1]), exact[None], *pair)
    assert d2[0] == 0.0


# -- 4: end-to-end tracking fidelity ------------------------------------------------

def wave_scenario():
    """50 agents with staggered 2000-frame lifetimes over 10,000 frames."""
    n_frames = 10_000
    calib = CalibrationParams(phi=2.0, omega=2.0, delta_deg=90.0, x0=-20.0, y0=0.0)
    agents = []
    for i in range(50):
        spawn = 1 + (i * (n_frames - 2000)) // 49
        agents.append(AgentSpec(
            class_id=i % 5,
            x0_m=-60.0 - (i % 7),
            y0_m=5.0 * (i % 10),
            vx_mps=6.0 + 0.5 * (i % 4),
            vy_mps=0.0,
            spawn_frame=spawn,
            end_frame=min(spawn + 1999, n_frames),
        ))
    spec = ScenarioSpec(agents=agents, duration_s=400.0, fps=25.0,
                        calibration=calib, seed=104)
    loi = LineOfInterest(a=(0.0, -10.0), b=(0.0, 60.0))
    return spec, loi, calib


@criterion(4, "end-to-end: one id per agent, exact counts, speeds to 1e-6, <10s")
def test_end_to_end_fidelity():
    spec, loi, calib = wave_scenario()
    batches, truth = generate(spec, loi, interval_s=60.0)

    start = time.perf_counter()
    tracker = Tracker(TrackerConfig())
    frames = [tracker.step(frame, DetectionBatch.stack(frame, dets)) for frame, dets in batches]
    trajectories = assemble_trajectories(frames, calib)
    rows = measure_intervals(trajectories, loi, 60.0, spec.fps, spec.duration_s)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"engine took {elapsed:.2f}s for 10,000 frames"

    # one id per agent over the whole run
    by_key = {}
    for live in frames:
        for tid, (x, y, w, h) in zip(live.ids.tolist(), live.boxes.tolist()):
            by_key[(live.frame, round(x + w / 2.0, 4), round(y + h / 2.0, 4))] = tid
    agent_ids = [set() for _ in spec.agents]
    for idx, traj in enumerate(truth.trajectories):
        for frame, wx, wy in traj.tolist():
            px, py = to_pixel(wx, wy, calib)
            tid = by_key.get((frame, round(px, 4), round(py, 4)))
            if tid is not None:
                agent_ids[idx].add(tid)
    assert all(len(ids) == 1 for ids in agent_ids)
    assert len({ids.pop() for ids in agent_ids}) == 50

    def crossings(rows):
        return [(r.interval, r.class_id, r.count) for r in rows if r.count]

    gt = truth.to_measurements()
    assert crossings(rows) == crossings(gt)
    assert sum(r.count for r in gt) == 50
    # each track's speed, measured by the oracle on the engine's trajectories,
    # is its agent's to 1e-6 m/s; the engine's rows are the oracle's exactly
    rescan = measure_by_rescan(trajectories, loi_crossing(loi), 60.0, spec.fps, spec.duration_s)
    for i, m in enumerate(rescan):
        truth_speeds = {k: v for (j, k), v in truth.speeds.items() if j == i}
        assert set(m["speeds"]) == set(truth_speeds)
        for k, speeds in truth_speeds.items():
            got, want = sorted(m["speeds"][k]), sorted(speeds)
            assert len(got) == len(want)
            assert all(abs(a - b) < 1e-6 for a, b in zip(got, want))
    assert [row_fields(r) for r in rows] == rows_from_rescan(rescan)
    print(f"  (engine: {elapsed:.2f}s for 10,000 frames, 50 agents)")


# -- 5: occlusion robustness --------------------------------------------------------

def occlusion_scenario(gap_lengths, seed):
    calib = CalibrationParams(1.0, 1.0, 90.0)
    agents = []
    occlusions = []
    n_agents = 40
    for i in range(n_agents):
        agents.append(AgentSpec(
            class_id=i % 3,
            x0_m=10.0 + 3.0 * (i % 5),
            y0_m=60.0 * i,
            vx_mps=50.0,
            vy_mps=0.0,
        ))
        gap = gap_lengths[i % len(gap_lengths)]
        start = 30 + (i * 7) % 100
        occlusions.append((i, start, start + gap - 1))
    spec = ScenarioSpec(agents=agents, duration_s=8.0, fps=25.0, calibration=calib,
                        noise_std_px=1.0, occlusions=occlusions,
                        embedding_dim=16, embedding_noise_std=0.03, seed=seed)
    return spec, calib


def ids_per_agent(spec, calib):
    loi = LineOfInterest(a=(1e6, 0.0), b=(1e6, 1.0))  # never crossed
    batches, truth = generate(spec, loi, interval_s=spec.duration_s)
    tracker = Tracker(TrackerConfig())
    per_frame = {}
    for frame, dets in batches:
        live = tracker.step(frame, DetectionBatch.stack(frame, dets))
        per_frame[frame] = [(tid, x + w / 2.0, y + h / 2.0)
                            for tid, (x, y, w, h) in zip(live.ids.tolist(), live.boxes.tolist())]
    out = [set() for _ in spec.agents]
    for idx, traj in enumerate(truth.trajectories):
        for frame, wx, wy in traj.tolist():
            px, py = to_pixel(wx, wy, calib)
            best, best_d = None, 10.0
            for tid, u, v in per_frame.get(frame, []):
                d = math.hypot(u - px, v - py)
                if d < best_d:
                    best, best_d = tid, d
            if best is not None:
                out[idx].add(best)
    return out


@criterion(5, "occlusion: short gaps keep ids, long gaps split them")
def test_occlusion_robustness():
    spec, calib = occlusion_scenario(gap_lengths=(1, 2, 3), seed=105)
    ids = ids_per_agent(spec, calib)
    kept = sum(1 for s in ids if len(s) == 1)
    assert kept >= 0.95 * len(ids), f"only {kept}/{len(ids)} agents kept one id"

    spec, calib = occlusion_scenario(gap_lengths=(5, 6, 7), seed=106)
    ids = ids_per_agent(spec, calib)
    split = sum(1 for s in ids if len(s) >= 2)
    assert split == len(ids), f"only {split}/{len(ids)} agents changed id"


# -- 6: calibration -------------------------------------------------------------------

@criterion(6, "calibration: exact identity, affine, reference round-trip")
def test_calibration():
    p = CalibrationParams(1.0, 1.0, 90.0)
    assert to_world(7.0, 3.0, p) == (7.0, 3.0)

    rng = np.random.default_rng(107)
    for _ in range(1000):
        params = CalibrationParams(
            phi=float(rng.uniform(0.05, 20)), omega=float(rng.uniform(0.05, 20)),
            delta_deg=float(rng.uniform(5, 175)),
            x0=float(rng.uniform(-1e5, 1e5)), y0=float(rng.uniform(-1e5, 1e5)),
        )
        origin = np.array(to_world(0.0, 0.0, params))
        a = rng.uniform(-500, 500, size=2)
        b = rng.uniform(-500, 500, size=2)
        alpha, beta = rng.uniform(-2, 2, size=2)
        combo = alpha * a + beta * b
        lhs = np.array(to_world(*combo, params)) - origin
        rhs = alpha * (np.array(to_world(*a, params)) - origin) \
            + beta * (np.array(to_world(*b, params)) - origin)
        assert np.allclose(lhs, rhs, atol=1e-9 * max(1.0, float(np.abs(lhs).max())))

    ref = ReferenceObject(true_x_m=26.8224, true_y_m=13.4112,
                          apparent_x_px=880.0, apparent_y_px=440.0)
    phi, omega = derive_magnification(ref)
    params = CalibrationParams(phi=phi, omega=omega, delta_deg=90.0)
    dx = to_world(ref.apparent_x_px, 0.0, params)[0] - to_world(0.0, 0.0, params)[0]
    dy = to_world(0.0, ref.apparent_y_px, params)[1] - to_world(0.0, 0.0, params)[1]
    assert abs(dx - ref.true_x_m) <= 1e-9
    assert abs(dy - ref.true_y_m) <= 1e-9


# -- 7: metrics oracle -------------------------------------------------------------------

@criterion(7, "mAP matches threshold-enumeration oracle; AP fixture = 5/6")
def test_metrics_oracle():
    assert abs(average_precision(np.array([0.9, 0.8, 0.7]), np.array([True, False, True]), 2)
               - 5.0 / 6.0) <= 1e-12

    rng = np.random.default_rng(108)
    done = 0
    while done < 500:
        preds, gts = random_instance(rng)
        if not gts:
            continue
        report = evaluate_detections(stack_frames(preds), stack_frames(gts), n_classes=3,
                                     iou_threshold=0.5)
        labeled = engine_labels(stack_frames(preds), stack_frames(gts), 3)
        oracle_aps = [threshold_enumeration_ap(labeled[k], n_gt)
                      for k, n_gt in enumerate(report.n_gt.tolist()) if n_gt > 0]
        for k, n_gt in enumerate(report.n_gt.tolist()):
            if n_gt > 0:
                assert abs(report.ap[k] - threshold_enumeration_ap(labeled[k], n_gt)) <= 1e-9
        assert abs(report.map_50 - sum(oracle_aps) / len(oracle_aps)) <= 1e-9
        done += 1


# -- 8: statistics --------------------------------------------------------------------------

@criterion(8, "statistics: hand fixture t, identical-series degeneracies")
def test_statistics():
    a = [1.0, 2.0, 3.0, 4.0]
    b = [2.0, 2.0, 4.0, 4.0]
    t, p = paired_t_test(a, b)
    oracle = scipy.stats.ttest_rel(a, b)
    assert abs(t - (-1.732)) < 1e-3
    assert abs(t - oracle.statistic) < 1e-9
    assert abs(p - oracle.pvalue) < 1e-9

    assert rmse(a, a) == 0.0
    assert pearson(a, a) == pytest.approx(1.0, abs=1e-15)
    t0, p0 = paired_t_test(a, a)
    assert t0 == 0.0 and p0 == 1.0


# -- 9: determinism ----------------------------------------------------------------------------

SCENARIO_TEXT = """\
[scenario]
fps = 25
duration_s = 8
noise_std_px = 0.8
miss_prob = 0.05
embedding_dim = 8
embedding_noise_std = 0.05
seed = 31

[calibration]
phi = 2.0
omega = 2.0
delta_deg = 90

[loi]
ax_px = 100
ay_px = -500
bx_px = 100
by_px = 500

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
x0_m = -6
y0_m = 15
vx_mps = 9
vy_mps = 0.5
"""

RUN_CONFIG = """\
[calibration]
phi = 2.0
omega = 2.0
delta_deg = 90

[loi]
ax_px = 100
ay_px = -500
bx_px = 100
by_px = 500

[measure]
interval_s = 4
fps = 25
duration_s = 8
"""


@criterion(9, "every subcommand is byte-deterministic across reruns")
def test_determinism(tmp_path, capsys):
    spec = tmp_path / "scenario.ini"
    spec.write_text(SCENARIO_TEXT)
    cfg = tmp_path / "run.ini"
    cfg.write_text(RUN_CONFIG)
    gt_boxes = tmp_path / "gt.txt"
    gt_boxes.write_text("1,0,0,10,10,0\n1,60,0,10,10,1\n")
    pred_boxes = tmp_path / "pred.txt"
    pred_boxes.write_text("1,1,0,10,10,0.9,0\n1,60,0,10,10,0.8,1\n1,200,0,10,10,0.7,1\n")

    outputs = []
    for name in ("a", "b"):
        d = tmp_path / name
        assert main(["synth", "--spec", str(spec), "--seed", "7",
                     "--out-dir", str(d / "synth")]) == 0
        assert main(["track", "--detections", str(d / "synth" / "detections.txt"),
                     "--config", str(cfg), "--out-dir", str(d / "track")]) == 0
        assert main(["eval", "--pred", str(pred_boxes), "--gt", str(gt_boxes),
                     "--out-dir", str(d / "eval")]) == 0
        assert main(["stats",
                     "--measured", str(d / "track" / "intervals.txt"),
                     "--truth", str(d / "synth" / "ground_truth.txt"),
                     "--out-dir", str(d / "stats")]) == 0
        assert main(["print-config"]) == 0
        printed = capsys.readouterr().out
        outputs.append((
            (d / "synth" / "detections.txt").read_bytes(),
            (d / "synth" / "ground_truth.txt").read_bytes(),
            (d / "track" / "tracks.txt").read_bytes(),
            (d / "track" / "intervals.txt").read_bytes(),
            (d / "eval" / "eval_report.txt").read_bytes(),
            (d / "eval" / "confusion_matrix.txt").read_bytes(),
            (d / "stats" / "stats.txt").read_bytes(),
            printed,
        ))
    assert outputs[0] == outputs[1]


# -- 10: flow/speed arithmetic in the output file ----------------------------------------------

@criterion(10, "intervals file shows 720 veh/h for 12 crossings and 36 km/h at 10 m/s")
def test_flow_speed_arithmetic(tmp_path):
    calib = CalibrationParams(1.0, 1.0, 90.0)
    agents = [
        AgentSpec(class_id=2, x0_m=-20.0 - 2.0 * i, y0_m=30.0 * i,
                  vx_mps=10.0, vy_mps=0.0)
        for i in range(12)
    ]
    spec = ScenarioSpec(agents=agents, duration_s=60.0, fps=25.0,
                        calibration=calib, seed=110)
    loi = LineOfInterest(a=(0.0, -50.0), b=(0.0, 400.0))
    batches, _ = generate(spec, loi, interval_s=60.0)

    det_file = tmp_path / "detections.txt"
    with open(det_file, "w") as f:
        write_detections(f, batches)
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[loi]\nax_px = 0\nay_px = -50\nbx_px = 0\nby_px = 400\n"
        "[measure]\ninterval_s = 60\nfps = 25\nduration_s = 60\n"
    )
    out = tmp_path / "out"
    assert main(["track", "--detections", str(det_file), "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    with open(out / "intervals.txt") as f:
        rows = parse_intervals(f)
    row = next(r for r in rows if r.class_id == 2 and r.interval == 0)
    assert row.count == 12
    assert row.flow_vph == 720.0
    assert row.mean_speed_kmh == 36.0
    assert row.n_speed_tracks == 12
