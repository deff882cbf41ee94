import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trafficstate
from trafficstate import synth
from trafficstate.calib import CalibrationParams
from trafficstate.cli import main
from trafficstate.config import RunConfig, default_config_text, parse_config
from trafficstate.detstream import write_detections
from trafficstate.traffic import LineOfInterest, parse_intervals

SCENARIO = """\
[scenario]
fps = 25
duration_s = 8
seed = 21

[calibration]
phi = 2.0
omega = 2.0
delta_deg = 90

[loi]
ax_px = 80
ay_px = -400
bx_px = 80
by_px = 400

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
x0_m = -4
y0_m = 12
vx_mps = 9
vy_mps = 0
"""

RUN_CONFIG = """\
[calibration]
phi = 2.0
omega = 2.0
delta_deg = 90

[loi]
ax_px = 80
ay_px = -400
bx_px = 80
by_px = 400

[measure]
interval_s = 4
fps = 25
duration_s = 8
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_print_config_parses_back(capsys):
    assert main(["print-config"]) == 0
    text = capsys.readouterr().out
    cfg = parse_config(text)
    assert cfg.tracker.max_age == 3 and cfg.tracker.n_init == 3
    assert cfg.tracker.gallery_capacity == 100
    assert cfg.tracker.cost_lambda == 0.0
    assert cfg.tracker.motion_gate == pytest.approx(9.4877)
    assert cfg.tracker.appearance_gate == pytest.approx(0.2)
    assert cfg.fps == 25.0
    assert text == default_config_text()


def test_config_defaults_have_one_source():
    assert parse_config("") == RunConfig()
    assert parse_config(default_config_text()) == RunConfig()
    # sections present with every key absent fall back to RunConfig's defaults
    assert parse_config("[calibration]\n[loi]\n[tracking]\n[measure]\n[io]\n") == RunConfig()
    assert parse_config("[loi]\nax_px = 1\n").loi_px == ((1.0, 500.0), (1920.0, 500.0))


TWO_ROWS = "1,10,10,20,40,0.9,3\n2,12,10,20,40,0.9,3\n"


# a [tracking] case's id is its setting, and its key must appear in the error
BAD_SETTINGS = [pytest.param("tracking", setting, setting.split()[0], id=setting) for setting in [
    "cost_lambda = 2", "cost_lambda = -0.1", "cost_lambda = nan",
    "motion_gate = -5", "motion_gate = 0", "motion_gate = nan",
    "appearance_gate = 0", "appearance_gate = nan",
    "iou_gate = -1", "iou_gate = 1.5", "iou_gate = nan",
]] + [
    pytest.param("loi", "direction = 2", "direction", id="loi direction = 2"),
    pytest.param("loi", "ax_px = 80\nay_px = 100\nbx_px = 80\nby_px = 100", "endpoints",
                 id="loi endpoints equal"),
]


@pytest.mark.parametrize("section,setting,named", BAD_SETTINGS)
def test_bad_tracking_setting_exits_before_the_first_frame(tmp_path, capsys, section,
                                                           setting, named):
    cfg = write(tmp_path / "run.ini", f"[{section}]\n{setting}\n")
    dets = write(tmp_path / "dets.txt", TWO_ROWS)
    assert main(["track", "--detections", dets, "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out" / "tracks.txt").exists()


def test_tracks_rows_hold_box_centre_and_size(tmp_path):
    # a track confirmed at frame 3 writes one row per frame from then on;
    # tentative frames write nothing, and a coasting frame writes the predicted box
    rows = "".join(f"{f},{40 + 2 * f},30,20,40,0.9,3\n" for f in range(1, 4)) + "5,48,30,20,40,0.9,3\n"
    dets = write(tmp_path / "dets.txt", rows)
    assert main(["track", "--detections", dets, "--out-dir", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "tracks.txt").read_text().splitlines()
    assert lines[0] == "frame\tid\tclass\tu\tv\tw\th"
    assert lines[1].split("\t") == ["3", "1", "3", "56", "50", "20", "40"]
    assert [line.split("\t")[:3] for line in lines[2:]] == [["4", "1", "3"], ["5", "1", "3"]]
    assert lines[3].split("\t")[3:] == ["58", "50", "20", "40"]


def test_synth_then_track_matches_sidecar_counts(tmp_path):
    spec = write(tmp_path / "scenario.ini", SCENARIO)
    out = tmp_path / "gen"
    assert main(["synth", "--spec", spec, "--out-dir", str(out)]) == 0
    cfg = write(tmp_path / "run.ini", RUN_CONFIG)
    assert main(["track", "--detections", str(out / "detections.txt"),
                 "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 0

    with open(tmp_path / "run" / "intervals.txt") as f:
        measured = parse_intervals(f)
    with open(out / "ground_truth.txt") as f:
        truth = parse_intervals(f)
    m_counts = {(r.interval, r.class_id): r.count for r in measured if r.count}
    t_counts = {(r.interval, r.class_id): r.count for r in truth if r.count}
    assert m_counts == t_counts and m_counts
    m_speeds = {(r.interval, r.class_id): r.mean_speed_kmh for r in measured
                if r.n_speed_tracks}
    t_speeds = {(r.interval, r.class_id): r.mean_speed_kmh for r in truth
                if r.n_speed_tracks}
    assert set(m_speeds) == set(t_speeds)
    for key, v in t_speeds.items():
        assert m_speeds[key] == pytest.approx(v, abs=1e-4)

    with open(tmp_path / "run" / "tracks.txt") as f:
        lines = f.read().splitlines()
    assert lines[0] == "frame\tid\tclass\tu\tv\tw\th"
    assert len(lines) > 100


def test_track_deterministic_bytes(tmp_path):
    spec = write(tmp_path / "scenario.ini", SCENARIO)
    out = tmp_path / "gen"
    main(["synth", "--spec", spec, "--out-dir", str(out)])
    cfg = write(tmp_path / "run.ini", RUN_CONFIG)
    outputs = []
    for name in ("a", "b"):
        assert main(["track", "--detections", str(out / "detections.txt"),
                     "--config", cfg, "--out-dir", str(tmp_path / name)]) == 0
        outputs.append(((tmp_path / name / "tracks.txt").read_bytes(),
                        (tmp_path / name / "intervals.txt").read_bytes()))
    assert outputs[0] == outputs[1]


def test_synth_deterministic_and_seed_override(tmp_path):
    noisy = SCENARIO.replace("seed = 21", "seed = 21\nnoise_std_px = 1.0")
    spec = write(tmp_path / "scenario.ini", noisy)
    for name in ("a", "b"):
        assert main(["synth", "--spec", spec, "--seed", "5",
                     "--out-dir", str(tmp_path / name)]) == 0
    assert (tmp_path / "a" / "detections.txt").read_bytes() \
        == (tmp_path / "b" / "detections.txt").read_bytes()
    main(["synth", "--spec", spec, "--seed", "6", "--out-dir", str(tmp_path / "c")])
    assert (tmp_path / "a" / "detections.txt").read_bytes() \
        != (tmp_path / "c" / "detections.txt").read_bytes()


def test_track_empty_detections(tmp_path):
    det = write(tmp_path / "empty.txt", "# nothing\n")
    cfg = write(tmp_path / "run.ini", RUN_CONFIG)
    assert main(["track", "--detections", det, "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 0
    tracks = (tmp_path / "out" / "tracks.txt").read_text().splitlines()
    assert tracks == ["frame\tid\tclass\tu\tv\tw\th"]
    with open(tmp_path / "out" / "intervals.txt") as f:
        rows = parse_intervals(f)
    assert rows == []


def test_eval_perfect_predictions(tmp_path):
    gt = write(tmp_path / "gt.txt", "1,0,0,10,10,0\n1,50,0,10,10,1\n")
    pred = write(tmp_path / "pred.txt", "1,0,0,10,10,1.0,0\n1,50,0,10,10,1.0,1\n")
    out = tmp_path / "eval"
    assert main(["eval", "--pred", pred, "--gt", gt, "--iou", "0.5",
                 "--out-dir", str(out)]) == 0
    lines = (out / "eval_report.txt").read_text().splitlines()
    summary = lines[-1].split("\t")
    assert summary[0] == "all"
    assert summary[-1] == "1" and summary[-2] == "1" and summary[-3] == "1"
    conf = (out / "confusion_matrix.txt").read_text().splitlines()
    assert conf[1].split("\t")[1] == "1"
    assert conf[2].split("\t")[2] == "1"


def test_eval_empty_predictions(tmp_path):
    gt = write(tmp_path / "gt.txt", "1,0,0,10,10,0\n")
    pred = write(tmp_path / "pred.txt", "# none\n")
    out = tmp_path / "eval"
    assert main(["eval", "--pred", pred, "--gt", gt, "--out-dir", str(out)]) == 0
    lines = (out / "eval_report.txt").read_text().splitlines()
    summary = lines[-1].split("\t")
    assert summary[7] == "0" and summary[8] == "0" and summary[10] == "0"


def test_eval_ap_fixture_file(tmp_path):
    # [TP, FP, TP] by confidence against 2 ground truths -> AP 5/6
    gt = write(tmp_path / "gt.txt", "1,0,0,10,10,0\n1,100,0,10,10,0\n")
    pred = write(tmp_path / "pred.txt",
                 "1,0,0,10,10,0.9,0\n1,300,0,10,10,0.8,0\n1,100,0,10,10,0.7,0\n")
    out = tmp_path / "eval"
    assert main(["eval", "--pred", pred, "--gt", gt, "--out-dir", str(out)]) == 0
    lines = (out / "eval_report.txt").read_text().splitlines()
    row0 = lines[1].split("\t")
    assert float(row0[-1]) == pytest.approx(5 / 6, abs=1e-6)


def test_eval_custom_classes_and_vocabulary_mismatch(tmp_path):
    classes = write(tmp_path / "classes.txt", "car\nbus\n")
    gt = write(tmp_path / "gt.txt", "1,0,0,10,10,5\n")
    pred = write(tmp_path / "pred.txt", "1,0,0,10,10,1.0,0\n")
    rc = main(["eval", "--pred", pred, "--gt", gt, "--classes", classes,
               "--out-dir", str(tmp_path / "e")])
    assert rc == 1


def test_stats_identical_series(tmp_path):
    rows = ("interval\tt_start_s\tt_end_s\tclass\tcount\tflow_vph\tmean_speed_kmh\tn_speed_tracks\n"
            "0\t0\t60\t1\t3\t180\t30\t3\n"
            "1\t60\t120\t1\t5\t300\t32\t5\n"
            "2\t120\t180\t1\t4\t240\t31\t4\n")
    a = write(tmp_path / "a.txt", rows)
    b = write(tmp_path / "b.txt", rows)
    out = tmp_path / "stats"
    assert main(["stats", "--measured", a, "--truth", b,
                 "--out-dir", str(out)]) == 0
    lines = (out / "stats.txt").read_text().splitlines()
    assert lines[0] == "quantity\tclass\tn\trmse\tpearson\tt\tp"
    flow_all = next(l for l in lines if l.startswith("flow\tall")).split("\t")
    assert float(flow_all[3]) == 0.0
    assert float(flow_all[4]) == 1.0
    assert float(flow_all[5]) == 0.0
    assert float(flow_all[6]) == 1.0


def test_stats_constant_offset(tmp_path):
    def rows(offset):
        out = ["interval\tt_start_s\tt_end_s\tclass\tcount\tflow_vph\tmean_speed_kmh\tn_speed_tracks"]
        for i, c in enumerate((3, 5, 4, 6)):
            out.append(f"{i}\t{i*60}\t{(i+1)*60}\t0\t{c+offset}\t{(c+offset)*60}\tnan\t0")
        return "\n".join(out) + "\n"
    a = write(tmp_path / "a.txt", rows(2))
    b = write(tmp_path / "b.txt", rows(0))
    out = tmp_path / "stats"
    assert main(["stats", "--measured", a, "--truth", b, "--out-dir", str(out)]) == 0
    line = next(l for l in (out / "stats.txt").read_text().splitlines()
                if l.startswith("flow\tall")).split("\t")
    assert float(line[4]) == pytest.approx(1.0)   # perfectly correlated
    assert float(line[5]) != 0.0                  # but biased


def test_stats_hand_fixture(tmp_path):
    def rows(values):
        out = ["interval\tt_start_s\tt_end_s\tclass\tcount\tflow_vph\tmean_speed_kmh\tn_speed_tracks"]
        for i, c in enumerate(values):
            out.append(f"{i}\t{i*60}\t{(i+1)*60}\t0\t{c}\t{c*60}\tnan\t0")
        return "\n".join(out) + "\n"
    a = write(tmp_path / "a.txt", rows((1, 2, 3, 4)))
    b = write(tmp_path / "b.txt", rows((2, 2, 4, 4)))
    out = tmp_path / "stats"
    assert main(["stats", "--measured", a, "--truth", b, "--out-dir", str(out)]) == 0
    line = next(l for l in (out / "stats.txt").read_text().splitlines()
                if l.startswith("flow\t0")).split("\t")
    # counts scale by 60 into flows; t is scale-invariant
    assert float(line[5]) == pytest.approx(-1.7320508, abs=1e-4)


def test_stats_mismatched_grids_rejected(tmp_path):
    head = "interval\tt_start_s\tt_end_s\tclass\tcount\tflow_vph\tmean_speed_kmh\tn_speed_tracks\n"
    a = write(tmp_path / "a.txt", head + "0\t0\t60\t0\t1\t60\tnan\t0\n1\t60\t120\t0\t1\t60\tnan\t0\n")
    b = write(tmp_path / "b.txt", head + "0\t0\t30\t0\t1\t120\tnan\t0\n1\t30\t60\t0\t1\t120\tnan\t0\n")
    assert main(["stats", "--measured", a, "--truth", b,
                 "--out-dir", str(tmp_path / "s")]) == 1


def test_stats_rejects_non_finite_flow(tmp_path, capsys):
    head = "interval\tt_start_s\tt_end_s\tclass\tcount\tflow_vph\tmean_speed_kmh\tn_speed_tracks\n"
    good = head + "0\t0\t60\t0\t1\t60\tnan\t0\n1\t60\t120\t0\t1\t60\tnan\t0\n"
    a = write(tmp_path / "a.txt", good.replace("120\t0\t1\t60", "120\t0\t1\tinf"))
    b = write(tmp_path / "b.txt", good)
    assert main(["stats", "--measured", a, "--truth", b,
                 "--out-dir", str(tmp_path / "s")]) == 1
    assert f"{a}:3:" in capsys.readouterr().err
    assert not (tmp_path / "s" / "stats.txt").exists()


def test_exit_codes(tmp_path):
    assert main(["track", "--detections", str(tmp_path / "missing.txt"),
                 "--out-dir", str(tmp_path)]) == 2
    bad = write(tmp_path / "bad.txt", "1,0,0,10,10,5.0,0\n")  # confidence > 1
    assert main(["track", "--detections", bad, "--out-dir", str(tmp_path)]) == 1
    spec = write(tmp_path / "bad_spec.ini", "[scenario]\nduration_s = -1\n")
    assert main(["synth", "--spec", spec, "--out-dir", str(tmp_path)]) == 1


def test_track_reads_stdin(tmp_path, monkeypatch):
    cfg = write(tmp_path / "run.ini", RUN_CONFIG)
    monkeypatch.setattr("sys.stdin", io.StringIO("1,150,10,20,40,1.0,2\n"))
    assert main(["track", "--detections", "-", "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "tracks.txt").exists()


@pytest.mark.parametrize("field", ["x", "y"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_track_rejects_non_finite_box_position(tmp_path, capsys, field, value):
    x, y = (value, "10") if field == "x" else ("1", value)
    dets = write(tmp_path / "dets.txt", f"1,2,3,5,10,0.9,0\n1,{x},{y},5,10,0.9,0\n")
    assert main(["track", "--detections", dets, "--out-dir", str(tmp_path / "out")]) == 1
    assert f"{dets}:2:" in capsys.readouterr().err


BAD_ROWS = [
    "0,10,10,5,5,0.9,0,1,0",      # frame below 1
    "1,10,10,5,5,0.9,-1,1,0",     # negative class
    "1,10,10,5,5,0.9,9223372036854775808,1,0",  # class beyond int64
    "1,10,10,0,5,0.9,0,1,0",      # zero width
    "1,10,10,5,-5,0.9,0,1,0",     # negative height
    "1,10,10,5,5,1.5,0,1,0",      # confidence above 1
    "1,10,10,5,5,0.9,0,nan,0",    # non-finite embedding
    "1,10,10,5,5,0.9,0,inf,0",
    "1,10,10,5,5,0.9,0,1e308,-inf",
    "1,10,10,5,5,0.9,0,0,0",      # zero embedding
]


# eval rows may carry embeddings of any dimension; track rows may not
@pytest.mark.parametrize("command,row", [(c, r) for c in ("track", "eval") for r in BAD_ROWS]
                         + [("track", "1,10,10,5,5,0.9,0,1,0,0")])
def test_malformed_row_names_file_and_line(tmp_path, capsys, command, row):
    bad = write(tmp_path / "bad.txt", f"1,2,3,5,10,0.9,0,1,0\n{row}\n")
    if command == "track":
        argv = ["track", "--detections", bad]
    else:
        argv = ["eval", "--pred", bad, "--gt", write(tmp_path / "gt.txt", "1,2,3,5,10,0\n")]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
    assert f"{bad}:2:" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["1,10,10,5,5,0.9,0,1e308,1e308",
                                 "1,10,10,5,5,0.9,0,1e-200,1e-200"])
def test_track_accepts_finite_embedding_whose_squares_leave_float_range(tmp_path, row):
    # pytest turns RuntimeWarnings into errors, so this also proves no warning
    dets = write(tmp_path / "dets.txt", f"1,2,3,5,10,0.9,0,1,0\n{row}\n")
    assert main(["track", "--detections", dets, "--out-dir", str(tmp_path / "out")]) == 0


def test_config_import_leaves_synth_unloaded():
    src = str(Path(trafficstate.__file__).resolve().parents[1])
    probe = "import sys, trafficstate.config; print('trafficstate.synth' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


IMPORT_GUARD = """
import sys
from pathlib import Path
import trafficstate, trafficstate.cli as cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

tmp = Path(sys.argv[1])
pred, gt = tmp / "pred.txt", tmp / "gt.txt"
pred.write_text("1,2,3,5,10,0.9,0\\n1,40,3,5,10,0.8,1\\n")
gt.write_text("1,2,3,5,10,0\\n1,41,3,5,10,1\\n")
assert cli.main(["print-config"]) == 0
assert cli.main(["eval", "--pred", str(pred), "--gt", str(gt),
                 "--out-dir", str(tmp / "eval")]) == 0
print(scipy_loaded())
dets = tmp / "dets.txt"
# 1 px a frame keeps consecutive boxes at IoU 2/3, so both tracks confirm
dets.write_text("".join(f"{f},{10 + f},10,5,10,0.9,0\\n{f},{10 + f},60,5,10,0.9,1\\n"
                        for f in range(1, 6)))
assert cli.main(["track", "--detections", str(dets), "--out-dir", str(tmp / "track")]) == 0
print(scipy_loaded())
rows = (tmp / "track" / "tracks.txt").read_text().splitlines()[1:]
print(sorted((r.split("\\t")[0], r.split("\\t")[1]) for r in rows))
"""


def run_guard(script, tmp_path):
    src = str(Path(trafficstate.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    return out.stdout.splitlines()


def test_print_config_and_eval_leave_scipy_unloaded_until_track(tmp_path):
    # scipy loads on first use only: print-config and eval load none of it,
    # and neither does a track run in which no two pairs compete for a detection
    after_eval, after_track, confirmed = run_guard(IMPORT_GUARD, tmp_path)[-3:]
    assert after_eval == "[]"
    assert after_track == "[]"
    # tracks 1 and 2 confirm on frame 3 and write a row on every frame after it
    assert confirmed == str([(str(f), str(i)) for f in (3, 4, 5) for i in (1, 2)])


CONTESTED_GUARD = """
import sys
from pathlib import Path
import trafficstate.cli as cli

tmp = Path(sys.argv[1])
dets = tmp / "dets.txt"
# two still lanes 200 px apart, each outside the other's motion gate; on
# frame 6 one detection lands between them, 98 px from lane 1's centre and
# 102 px from lane 2's, inside both gates
lanes = "".join(f"{f},10,10,20,400,0.9,0\\n{f},210,10,20,400,0.9,0\\n" for f in range(1, 6))
dets.write_text(lanes)
assert cli.main(["track", "--detections", str(dets), "--out-dir", str(tmp / "lanes")]) == 0
print("scipy.optimize" in sys.modules)
dets.write_text(lanes + "6,108,10,20,400,0.9,0\\n")
assert cli.main(["track", "--detections", str(dets), "--out-dir", str(tmp / "contested")]) == 0
print("scipy.optimize" in sys.modules)
print((tmp / "contested" / "tracks.txt").read_text().splitlines()[-2:])
"""


def test_track_loads_the_solver_for_a_contested_detection(tmp_path):
    # the solver is deferred, not lost: two confirmed tracks gating one
    # detection send it to linear_sum_assignment, which gives it to the
    # nearer track while the other coasts
    lanes, contested, last_rows = run_guard(CONTESTED_GUARD, tmp_path)[-3:]
    assert lanes == "False"
    assert contested == "True"
    assert last_rows == str(["6\t1\t0\t118\t210\t20\t400", "6\t2\t0\t220\t210\t20\t400"])


PINNED_RUN_CONFIG = """\
[calibration]
phi = 10
omega = 10
delta_deg = 90

[loi]
ax_px = 300
ay_px = -1000
bx_px = 300
by_px = 1000

[tracking]
cost_lambda = 0.3
confidence_floor = 0.5

[measure]
interval_s = 1
fps = 25
"""

# sha256 of tracks.txt and intervals.txt for the scene below; a change to
# any layer that moves one byte of `track` output must update these on purpose
PINNED_TRACKS_SHA256 = "eed406afa76fc8cb5ce1fcbba551f97fa1a7e2235fa72d8ec2714e63367cb740"
PINNED_INTERVALS_SHA256 = "45d27c7a6f1158def53361541177c8dc8cf557b4172fa1bbc4009b336cb33d6d"


def pinned_scene_text() -> str:
    """Two opposing lanes of agents with 16-d noisy embeddings, pixel noise,
    misses, an occlusion, and every seventh row below the confidence floor."""
    agents = [synth.AgentSpec(class_id=k % 4, x0_m=-2.0 - 3.0 * k, y0_m=10.0,
                              vx_mps=12.0, vy_mps=0.0, spawn_frame=1 + 4 * k)
              for k in range(6)]
    agents += [synth.AgentSpec(class_id=2, x0_m=70.0 + 5.0 * k, y0_m=16.0,
                               vx_mps=-10.0, vy_mps=0.0, spawn_frame=1 + 6 * k)
               for k in range(4)]
    spec = synth.ScenarioSpec(
        agents=agents, duration_s=4.0, fps=25.0,
        calibration=CalibrationParams(10.0, 10.0, 90.0),
        noise_std_px=1.0, miss_prob=0.05, occlusions=[(1, 30, 36)],
        embedding_dim=16, embedding_noise_std=0.2, seed=9,
    )
    loi = LineOfInterest(a=(30.0, -100.0), b=(30.0, 100.0))
    batches, _ = synth.generate(spec, loi, 1.0)
    rows = [d for _, dets in batches for d in dets]
    for det in rows[::7]:
        det.confidence = 0.25
    out = io.StringIO()
    write_detections(out, batches)
    return out.getvalue()


def test_track_output_bytes_are_pinned_from_file_and_stdin(tmp_path, monkeypatch):
    text = pinned_scene_text()
    cfg = write(tmp_path / "run.ini", PINNED_RUN_CONFIG)
    dets = write(tmp_path / "dets.txt", text)
    assert main(["track", "--detections", dets, "--config", cfg,
                 "--out-dir", str(tmp_path / "file")]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["track", "--detections", "-", "--config", cfg,
                 "--out-dir", str(tmp_path / "stdin")]) == 0
    for run in ("file", "stdin"):
        tracks = (tmp_path / run / "tracks.txt").read_bytes()
        intervals = (tmp_path / run / "intervals.txt").read_bytes()
        assert hashlib.sha256(tracks).hexdigest() == PINNED_TRACKS_SHA256
        assert hashlib.sha256(intervals).hexdigest() == PINNED_INTERVALS_SHA256
