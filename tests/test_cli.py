import ast
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trafficstate
from trafficstate import cli, detstream, synth
from trafficstate.calib import CalibrationParams
from trafficstate.cli import main
from trafficstate.config import default_config_text, parse_config
from trafficstate.detstream import Detection, DetectionBatch, write_detections
from trafficstate.errors import NumericalError
from trafficstate.tracker import Tracker, TrackerConfig
from trafficstate.traffic import MAX_INTERVALS, LineOfInterest, parse_intervals

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


# print-config's bytes; the defaults it prints are the only ones parse_config reads
PRINT_CONFIG_SHA256 = "d825f1d4e4f2889230cc8ba80b5c4fa63f51f8bd5b91b7c6f1fb29c5b287d6ea"


def test_config_defaults_have_one_source(capsys):
    assert parse_config("") == parse_config(default_config_text())
    assert parse_config("").tracker == TrackerConfig()
    # sections present with every key absent, or one key given, keep the other defaults
    assert parse_config("[calibration]\n[loi]\n[tracking]\n[measure]\n[io]\n") == parse_config("")
    loi = parse_config("[loi]\nax_px = 1\n").loi
    assert loi == LineOfInterest(a=(1.0, 500.0), b=(1920.0, 500.0))
    assert main(["print-config"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 850 and hashlib.sha256(out).hexdigest() == PRINT_CONFIG_SHA256


TWO_ROWS = "1,10,10,20,40,0.9,3\n2,12,10,20,40,0.9,3\n"


# a [tracking] case's id is its setting, and its key must appear in the error
BAD_SETTINGS = [pytest.param("tracking", setting, setting.split()[0], id=setting) for setting in [
    "cost_lambda = 2", "cost_lambda = -0.1", "cost_lambda = nan",
    "motion_gate = -5", "motion_gate = 0", "motion_gate = nan",
    "appearance_gate = 0", "appearance_gate = nan",
    "iou_gate = -1", "iou_gate = 1.5", "iou_gate = nan", "gallery_capacity = 10001",
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


# the run config of the sparse_long bench scene at seed 7
SPARSE_LONG_RUN_CONFIG = """\
[calibration]
phi = 10.0
omega = 10.0
delta_deg = 90.0

[loi]
ax_px = 960.0
ay_px = 0.0
bx_px = 960.0
by_px = 1440.0
direction =

[measure]
interval_s = 5.0
fps = 25.0
duration_s = 80.0
"""


def edited(text, key, value):
    """text with key's line set to value, or dropped when value is None."""
    out, n = re.subn(rf"^{key} =.*\n", "" if value is None else f"{key} = {value}\n",
                     text, flags=re.M)
    assert n == 1
    return out


# (command, file text, what the one-line error must say after the file's name)
BAD_FILES = [pytest.param("track", edited(SPARSE_LONG_RUN_CONFIG, key, value), named,
                          id=f"track {key} = {value}") for key, value, named in [
    ("phi", "inf", "[calibration] phi"),
    ("ax_px", "nan", "[loi] line of interest endpoints"),
    ("interval_s", "inf", "[measure] interval_s"),
    ("interval_s", "nan", "[measure] interval_s"),
    ("fps", "inf", "[measure] fps"),
    # 1 / fps overflows: every point's time would be inf
    ("fps", "1e-320", "[measure] fps must be large enough"),
    ("duration_s", "inf", "[measure] duration_s"),
    ("duration_s", "1e9", "[measure] interval_s = 5.0 over"),
]] + [
    pytest.param("track", SPARSE_LONG_RUN_CONFIG + "\n[tracking]\ngallery_capacity = 1"
                 + "0" * 40 + "\n", "[tracking] gallery_capacity", id="track gallery 1e40"),
    pytest.param("track", SPARSE_LONG_RUN_CONFIG.replace("phi = 10.0\n", "phi = 10.0\nphi = 9\n"),
                 "[line 3]: option 'phi'", id="track duplicate key"),
    # with duration_s derived from the last frame, too: rejected before any
    # detection is read, not after the stream is tracked
    pytest.param("track", edited(edited(SPARSE_LONG_RUN_CONFIG, "fps", "1e-320"), "duration_s", ""),
                 "[measure] fps must be large enough", id="track fps = 1e-320 no duration"),
] + [pytest.param("synth", text, named, id=f"synth {name}") for name, text, named in [
    ("direction = up", edited(SCENARIO, "by_px", "400\ndirection = up"), "[loi] direction"),
    ("no ax_px", edited(SCENARIO, "ax_px", None), "[loi] ax_px"),
    ("interval_s = abc", edited(SCENARIO, "interval_s", "abc"), "[measure] interval_s"),
    ("phi = x", edited(SCENARIO, "phi", "x"), "[calibration] phi"),
    ("agent without vy_mps", SCENARIO.replace("vy_mps = 0\n\n[agent.2]", "\n[agent.2]"),
     "[agent.1] vy_mps"),
    ("occlusion without last_frame", SCENARIO + "\n[occlusion.1]\nagent = 0\nfirst_frame = 3\n",
     "[occlusion.1] last_frame"),
    ("no [loi]", re.sub(r"\[loi\][^[]*", "", SCENARIO), "[loi] ax_px"),
]] + [pytest.param("track", text, named, id=f"track {name}") for name, text, named in [
    # a misspelt key or section would otherwise leave its setting at the default
    ("interval", "[measure]\ninterval = 5\n", "[measure] interval: unknown key"),
    ("[tracker]", SPARSE_LONG_RUN_CONFIG + "\n[tracker]\nmax_age = 5\n",
     "[tracker] max_age: unknown key"),
    ("empty [traking]", SPARSE_LONG_RUN_CONFIG + "\n[traking]\n", "[traking]: unknown section"),
    ("[DEFAULT] fps", "[DEFAULT]\nfps = 30\n" + SPARSE_LONG_RUN_CONFIG,
     "[DEFAULT] fps: unknown key"),
    ("[scenario]", SPARSE_LONG_RUN_CONFIG + "\n[scenario]\nduration_s = 2\n",
     "[scenario] duration_s: unknown key"),
    # intervals.txt would be written over the tracks
    ("one [io] name", SPARSE_LONG_RUN_CONFIG + "\n[io]\ntracks_name = out.txt\n"
     "intervals_name = ./out.txt\n", "[io] tracks_name and intervals_name must differ"),
]] + [pytest.param("synth", text, named, id=f"synth {name}") for name, text, named in [
    ("[measure] fps", edited(SCENARIO, "interval_s", "4\nfps = 30"),
     "[measure] fps: unknown key"),
    ("agent speed", SCENARIO + "\n[agent.3]\nclass = 1\nspeed = 3\n",
     "[agent.3] speed: unknown key"),
    ("duraton_s", SCENARIO.replace("duration_s", "duraton_s"),
     "[scenario] duraton_s: unknown key"),
    ("[tracking]", SCENARIO + "\n[tracking]\nmax_age = 2\n", "[tracking] max_age: unknown key"),
]]


@pytest.mark.parametrize("command,text,named", BAD_FILES)
def test_bad_value_exits_1_naming_file_section_and_key(tmp_path, capsys, command, text, named):
    path = write(tmp_path / "input.ini", text)
    if command == "track":
        argv = ["track", "--detections", write(tmp_path / "dets.txt", TWO_ROWS), "--config", path]
    else:
        argv = ["synth", "--spec", path]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
    assert f"{path}: {named}" in err or f"'{path}' {named}" in err
    assert not (tmp_path / "out").exists()


# (input, the command that reads it)
NOT_UTF8 = [("detections", "track"), ("stdin", "track"), ("config", "track"),
            ("pred", "eval"), ("gt", "eval"), ("classes", "eval"), ("spec", "synth"),
            ("measured", "stats"), ("truth", "stats")]


@pytest.mark.parametrize("kind,command", NOT_UTF8, ids=[kind for kind, _ in NOT_UTF8])
def test_bytes_not_utf8_exit_1_naming_the_line(tmp_path, capsys, monkeypatch, kind, command):
    # line 3 is a comment holding a Latin-1 byte, after two lines that read well
    assert main(["synth", "--spec", write(tmp_path / "spec.ini", SCENARIO),
                 "--out-dir", str(tmp_path / "synth")]) == 0
    texts = {"detections": TWO_ROWS + "3,14,10,20,40,0.9,3\n", "config": RUN_CONFIG,
             "pred": "1,10,10,20,40,0.9,0\n1,50,10,20,40,0.8,1\n",
             "gt": "1,10,10,20,40,0\n1,50,10,20,40,1\n", "classes": "car\nbus\n",
             "spec": SCENARIO,
             "measured": (tmp_path / "synth" / "ground_truth.txt").read_text(encoding="utf-8")}
    texts["stdin"], texts["truth"] = texts["detections"], texts["measured"]
    lines = texts[kind].encode().splitlines(keepends=True)
    data = b"".join(lines[:2] + [b"# caf\xe9\n"] + lines[2:])
    paths = {name: str(tmp_path / f"{name}.txt") for name in texts}
    for name, text in texts.items():
        Path(paths[name]).write_bytes(data if name == kind else text.encode())
    if kind == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        paths["detections"] = paths["stdin"] = "-"
    argv = {"track": ["track", "--detections", paths["detections"], "--config", paths["config"]],
            "eval": ["eval", "--pred", paths["pred"], "--gt", paths["gt"],
                     "--classes", paths["classes"]],
            "synth": ["synth", "--spec", paths["spec"]],
            "stats": ["stats", "--measured", paths["measured"], "--truth", paths["truth"]]}
    assert main(argv[command] + ["--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {paths[kind]}:3: not UTF-8 text (byte 0xe9)\n"
    assert list((tmp_path / "out").glob("*")) == []


@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
@pytest.mark.parametrize("byte_line,field_line", [(5, 3), (3, 5)])
def test_first_bad_line_wins_over_a_byte_that_is_not_utf8(tmp_path, capsys, monkeypatch,
                                                         stdin, byte_line, field_line):
    # the byte is found while a chunk of lines is read, before the bad field
    # on line 3 is parsed; the error of the earlier line is the one reported
    lines = [f"{frame},{10 + frame},10,20,40,0.9,3\n".encode() for frame in range(1, 7)]
    lines[byte_line - 1] = b"# caf\xe9\n"
    lines[field_line - 1] = b"3,14,10,twenty,40,0.9,3\n"
    data = b"".join(lines)
    path = str(tmp_path / "dets.txt")
    Path(path).write_bytes(data)
    if stdin:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        path = "-"
    assert main(["track", "--detections", path, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:3: ")
    assert ("not UTF-8" in err) == (byte_line == 3)
    assert list((tmp_path / "out").glob("*")) == []


def test_every_documented_key_is_known(tmp_path):
    # print-config's keys, the reference-object keys it shows commented out,
    # and the run configs of the benchmark's `track` workloads
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import scenes
    finally:
        sys.path.pop(0)
    uncommented, n = re.subn(r"^# (ref_\w+ =)", r"\1", default_config_text(), flags=re.M)
    assert n == 4
    assert parse_config(uncommented).calibration.phi != parse_config("").calibration.phi
    for sizes in (scenes.SIZES, scenes.SMOKE_SIZES):
        for workload in ("dense_appearance", "sparse_long"):   # the `track` workloads
            parse_config(scenes.config_text(sizes[workload], 80.0))


def test_interval_cap_leaves_no_tracks_file(tmp_path, capsys):
    # duration_s comes from the last frame, which sets a grid past the cap
    # only once every frame has been tracked and written
    dets = write(tmp_path / "dets.txt", "1,10,10,5,5,0.9,0\n100000000000,11,10,5,5,0.9,0\n")
    assert main(["track", "--detections", dets, "--out-dir", str(tmp_path / "out")]) == 1
    assert "intervals" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


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


# a scene whose agents are listed out of spawn order, with staggered spawn
# and end frames (one past the scene's end), an occlusion, misses and embeddings
STAGGERED_SCENARIO = """\
[scenario]
fps = 10
duration_s = 6
noise_std_px = 0.8
miss_prob = 0.15
embedding_dim = 6
embedding_noise_std = 0.05
seed = 3

[calibration]
phi = 2.0
omega = 2.0
delta_deg = 90

[loi]
ax_px = 40
ay_px = -400
bx_px = 40
by_px = 400

[measure]
interval_s = 1.5

[agent.1]
class = 1
x0_m = 10
y0_m = 4
vx_mps = 6
vy_mps = 0
spawn_frame = 25
end_frame = 50

[agent.2]
class = 2
x0_m = 0
y0_m = 0
vx_mps = 10
vy_mps = 0.5
spawn_frame = 3
end_frame = 25

[agent.3]
class = 0
x0_m = 5
y0_m = 12
vx_mps = 7
vy_mps = 0
spawn_frame = 12

[agent.4]
class = 3
x0_m = -6
y0_m = 8
vx_mps = 11
vy_mps = -1
spawn_frame = 1
end_frame = 70

[agent.5]
class = 1
x0_m = 0
y0_m = -5
vx_mps = 8
vy_mps = 0
spawn_frame = 65

[occlusion.1]
agent = 2
first_frame = 20
last_frame = 24
"""

# sha256 of synth's detections.txt and ground_truth.txt for (scenario, seed);
# a change to them is a change to every scene built from a spec
PINNED_SYNTH_SHA256 = [
    (SCENARIO.replace("seed = 21", "seed = 21\nnoise_std_px = 1.0"), "5", "72ab3a4f54ba15531b5c95c3fcebfb7cc9fb995704a8ae3adc27ea73ed90d231",
     "d85771d2ef1bee2495da3c84574c012f8b2c5ce5555fe812dcb684bede4bb879"),
    (STAGGERED_SCENARIO, None, "6d933622e146634efd4dadfe2fa21dd47c669044e11adc94944a9f081bddc6a0",
     "8c6409c68b1eb4ed40ae6742e6e3045c47c69637e9224e71d1d00b0d31e53796"),
]


@pytest.mark.parametrize("text,seed,detections,truth", PINNED_SYNTH_SHA256)
def test_synth_output_bytes_are_pinned(tmp_path, text, seed, detections, truth):
    spec = write(tmp_path / "scenario.ini", text)
    argv = ["synth", "--spec", spec, "--out-dir", str(tmp_path / "out")]
    assert main(argv + (["--seed", seed] if seed else [])) == 0
    for name, pinned in (("detections.txt", detections), ("ground_truth.txt", truth)):
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == pinned


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


def test_eval_classes_file_skips_indented_comments(tmp_path):
    classes = write(tmp_path / "classes.txt", "car\n  # bus\n\ttruck \n")
    gt = write(tmp_path / "gt.txt", "1,0,0,10,10,1\n")
    pred = write(tmp_path / "pred.txt", "1,0,0,10,10,1.0,1\n")
    assert main(["eval", "--pred", pred, "--gt", gt, "--classes", classes,
                 "--out-dir", str(tmp_path / "e")]) == 0
    rows = (tmp_path / "e" / "eval_report.txt").read_text().splitlines()
    assert [row.split("\t")[:3] for row in rows[1:]] == \
        [["0", "car", "0"], ["1", "truck", "1"], ["all", "-", "1"]]


@pytest.mark.parametrize("text,error", [
    ("car\nbus\n\n car\n", "{}:4: duplicate class name 'car' (first on line 1)"),
    ("car\n# red cars\nCar\tRed\n", "{}:3: class name 'Car\\tRed' contains a tab"),
    ("# no names\n\n", "{}: class catalog must not be empty"),
    ("", "{}: class catalog must not be empty"),
])
def test_eval_classes_file_errors_name_the_file(tmp_path, capsys, text, error):
    classes = write(tmp_path / "classes.txt", text)
    gt = write(tmp_path / "gt.txt", "1,0,0,10,10,0\n")
    pred = write(tmp_path / "pred.txt", "1,0,0,10,10,1.0,0\n")
    assert main(["eval", "--pred", pred, "--gt", gt, "--classes", classes,
                 "--out-dir", str(tmp_path / "e")]) == 1
    assert capsys.readouterr().err == f"error: {error.format(classes)}\n"
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("pred_rows,gt_rows,bad_file,line", [
    # both files hold an id outside the catalog: the prediction file is read first
    (["1,0,0,10,10,1.0,0", "", "# far", "2,0,0,10,10,0.5,1"], ["1,0,0,10,10,1"], "pred", 4),
    (["1,0,0,10,10,1.0,0"], ["# truth", "1,0,0,10,10,0", "1,50,0,10,10,1"], "gt", 3),
])
def test_eval_class_id_outside_the_catalog_names_file_and_line(tmp_path, capsys, pred_rows,
                                                               gt_rows, bad_file, line):
    classes = write(tmp_path / "classes.txt", "car\n")
    paths = {"pred": write(tmp_path / "pred.txt", "\n".join(pred_rows) + "\n"),
             "gt": write(tmp_path / "gt.txt", "\n".join(gt_rows) + "\n")}
    assert main(["eval", "--pred", paths["pred"], "--gt", paths["gt"], "--classes", classes,
                 "--out-dir", str(tmp_path / "e")]) == 1
    assert capsys.readouterr().err == \
        f"error: {paths[bad_file]}:{line}: class id 1 outside the 1-class catalog\n"
    assert not (tmp_path / "e").exists()


def test_a_shrinking_track_that_coasts_does_not_abort_track(tmp_path):
    # track 1 shrinks to a height of 2 and coasts, its predicted height
    # falling to 0 and below, as track 2 is born: stage 2 leaves its
    # predicted box out of the IoU matching
    rows = [f"{k},500,500,{(13 - k) / 2},{13 - k},0.9,1" for k in range(1, 12)]
    rows += [f"{k},100,100,20,40,0.9,2" for k in range(12, 20)]
    dets = write(tmp_path / "dets.txt", "".join(row + "\n" for row in rows))
    assert main(["track", "--detections", dets, "--out-dir", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "tracks.txt").read_text().splitlines()
    assert [line.split("\t")[:3] for line in lines if line.split("\t")[1] == "2"] == \
        [[str(k), "2", "2"] for k in range(14, 20)]


# one degenerate track, of class 1, each far from the healthy track of class 2
DEGENERATE_TRACKS = {
    "height 1e-300": [f"{f},5000,5000,10,1e-300,0.9,1" for f in range(1, 12)],
    "height shrinking to 1e-176": [f"{f},5000,5000,10,{10.0 ** (-16 * f)!r},0.9,1"
                                   for f in range(1, 12)],
    "aspect 1e-10": [f"{f},5000,5000,1e-9,10,0.9,1" for f in range(1, 12)],
    "aspect 1e300": [f"{f},5000,5000,1e5,1e-295,0.9,1" for f in range(1, 12)],
    "corner at -1e5": [f"{f},-1e5,-1e5,10,10,0.9,1" for f in range(1, 12)],
    "corner at 1e5": [f"{f},1e5,1e5,1e5,1e5,0.9,1" for f in range(1, 12)],
    "height growing 4x a frame": [f"{f},5000,5000,10,{1e-3 * 4.0 ** f!r},0.9,1"
                                  for f in range(1, 12)],
    "shrinking, then coasting": [f"{k},500,500,{(13 - k) / 2},{13 - k},0.9,1"
                                 for k in range(1, 12)],
}


def healthy_rows(tmp_path, rows, name):
    """The class-2 rows of tracks.txt from a run on rows, without the track id."""
    rows = sorted(rows, key=lambda row: int(row.split(",")[0]))
    dets = write(tmp_path / f"{name}.txt", "".join(row + "\n" for row in rows))
    assert main(["track", "--detections", dets, "--out-dir", str(tmp_path / name)]) == 0
    lines = (tmp_path / name / "tracks.txt").read_text().splitlines()[1:]
    return [row[:1] + row[2:] for row in (line.split("\t") for line in lines) if row[2] == "2"]


@pytest.mark.parametrize("case", sorted(DEGENERATE_TRACKS))
@pytest.mark.parametrize("first", [1, 12], ids=["beside", "born-while-coasting"])
def test_a_degenerate_track_never_aborts_a_stream(tmp_path, case, first):
    # the degenerate track lives frames 1-11 and then coasts; the healthy one
    # moves from frame `first` on, through frames where the other coasts
    healthy = [f"{f},{100 + 3 * f},100,20,40,0.9,2" for f in range(first, first + 19)]
    alone = healthy_rows(tmp_path, healthy, "alone")
    assert len(alone) == 17
    assert healthy_rows(tmp_path, DEGENERATE_TRACKS[case] + healthy, "both") == alone


@pytest.mark.parametrize("measure,error", [
    ("interval_s = 1\nfps = 1.7e307\nduration_s = 1",
     "interval 0, class 1: mean_speed_kmh is not finite (path length through [calibration] "
     "over frames / [measure] fps)"),
    ("interval_s = 1e-306\nfps = 1e304",
     "interval 3000, class 1: flow_vph is not finite (count * 3600 / [measure] interval_s)"),
], ids=["speed", "flow"])
def test_track_refuses_an_interval_row_stats_would_refuse(tmp_path, capsys, measure, error):
    # the track crosses the line at x = 1000 px; the flow or the mean speed
    # of its interval leaves float range, and no output file is left behind
    dets = write(tmp_path / "dets.txt",
                 "".join(f"{f},{900 + 3 * f},100,20,40,0.9,1\n" for f in range(1, 80)))
    cfg = write(tmp_path / "run.ini", "[loi]\nax_px = 1000\nay_px = -400\nbx_px = 1000\n"
                f"by_px = 400\n[measure]\n{measure}\n")
    assert main(["track", "--detections", dets, "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert list((tmp_path / "out").iterdir()) == []


def test_track_refuses_a_world_point_out_of_float_range(tmp_path, capsys):
    # phi = 1e-307 maps the box centres, x >= 923 px, past float max: the run
    # exits 1 with no NumPy warning (an error under pytest), where it wrote a
    # row with a nan mean speed that stats refused, and no file is left
    dets = write(tmp_path / "dets.txt",
                 "".join(f"{f},{900 + 3 * f},100,20,40,0.9,1\n" for f in range(1, 80)))
    cfg = write(tmp_path / "run.ini", "[calibration]\nphi = 1e-307\n[loi]\nax_px = 0\n"
                "ay_px = 0\nbx_px = 0\nby_px = 1000\n[measure]\ninterval_s = 60\n")
    assert main(["track", "--detections", dets, "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("error: track 1, frame 1: world point (inf, 120) is not "
                                       "finite ([calibration] maps the box centre out of "
                                       "float range)\n")
    assert list((tmp_path / "out").iterdir()) == []


def test_synth_refuses_a_ground_truth_row_stats_would_refuse(tmp_path, capsys):
    # the agent starts on the line, in intervals of 1e-305 s, so its one
    # crossing gives a flow past float max; neither file is written
    spec = edited(edited(edited(SCENARIO, "fps", "1e300"), "duration_s", "3e-300"),
                  "interval_s", "1e-305").replace("x0_m = 0", "x0_m = 40")
    spec = spec[:spec.index("[agent.2]")]
    assert main(["synth", "--spec", write(tmp_path / "s.ini", spec),
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("error: interval 200000, class 2: flow_vph is not "
                                       "finite (count * 3600 / [measure] interval_s)\n")
    assert not (tmp_path / "out").exists()


FAST_AGENT_SCENARIO = """\
[scenario]
duration_s = 40
fps = 0.5

[loi]
ax_px = 5
ay_px = -100
bx_px = 5
by_px = 100

[measure]
interval_s = 20

[agent.1]
class = 1
x0_m = 0
y0_m = 0
vx_mps = 1e307
vy_mps = 0
"""


@pytest.mark.parametrize("spec,error", [
    # 1e307 m/s for 18 s leaves float range on frame 10: its box was written as inf
    (FAST_AGENT_SCENARIO, "agent 0, frame 10: world position (inf, 0) is not finite "
                          "(x0_m, y0_m, vx_mps, vy_mps and [scenario] fps)"),
    # a speed past float max: the row builder blamed [calibration] and [measure] fps
    (edited(edited(FAST_AGENT_SCENARIO, "vx_mps", "1.3e308"), "vy_mps", "1.3e308"),
     "agent 0: speed inf km/h is not finite (vx_mps, vy_mps)"),
    # a finite world position that the calibration maps past float max
    (FAST_AGENT_SCENARIO.replace("[loi]", "[calibration]\nphi = 1e300\n\n[loi]")
     .replace("1e307", "1").replace("x0_m = 0", "x0_m = 1e10"),
     "agent 0, frame 1: pixel centre (inf, 0) is not finite ([calibration] maps the world "
     "position out of float range)"),
    # a finite centre whose box corner, half a box width to its left, is not
    (FAST_AGENT_SCENARIO.replace("1e307", "1").replace("x0_m = 0", "x0_m = -1e308")
     + "box_w_px = 1.7e308\n",
     "agent 0, frame 1: box corner (-inf, -24) is not finite (the pixel centre less half "
     "of box_w_px, box_h_px)"),
], ids=["world position", "speed", "pixel centre", "box corner"])
def test_synth_refuses_an_agent_out_of_float_range(tmp_path, capsys, spec, error):
    assert main(["synth", "--spec", write(tmp_path / "s.ini", spec),
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "out").exists()


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


def test_stats_counts_an_interval_empty_in_both_files_as_zero_flow(tmp_path):
    # interval 1 has no row in either file: no crossing against no crossing,
    # a pair of zeros in the flow series, where it used to drop out (n = 3)
    head = "interval\tt_start_s\tt_end_s\tclass\tcount\tflow_vph\tmean_speed_kmh\tn_speed_tracks\n"

    def rows(counts):
        return head + "".join(f"{i}\t{60 * i}\t{60 * i + 60}\t1\t{c}\t{60 * c}\t{40 + i}\t{c}\n"
                              for i, c in counts)
    m = write(tmp_path / "m.txt", rows([(0, 2), (2, 1), (3, 3)]))
    t = write(tmp_path / "t.txt", rows([(0, 1), (2, 1), (3, 2)]))
    assert main(["stats", "--measured", m, "--truth", t, "--out-dir", str(tmp_path / "s")]) == 0
    lines = (tmp_path / "s" / "stats.txt").read_text().splitlines()
    flow_all = lines[1].split("\t")
    assert flow_all[:4] == ["flow", "all", "4", "42.4264"]
    # the speed series still pair only the intervals with a speed in both
    assert lines[3].split("\t")[:3] == ["speed", "all", "3"]


def test_stats_of_speeds_near_float_max(tmp_path):
    # squares and sums of these speeds leave float range; the statistics do not
    head = "interval\tt_start_s\tt_end_s\tclass\tcount\tflow_vph\tmean_speed_kmh\tn_speed_tracks\n"
    rows = head + "0\t0\t60\t1\t1\t60\t{}\t1\n1\t60\t120\t1\t1\t60\t{}\t1\n"
    m = write(tmp_path / "m.txt", rows.format("1e300", "2e300"))
    t = write(tmp_path / "t.txt", rows.format("50", "60"))
    assert main(["stats", "--measured", m, "--truth", t, "--out-dir", str(tmp_path / "s")]) == 0
    lines = (tmp_path / "s" / "stats.txt").read_text().splitlines()
    assert lines[-2:] == ["speed\tall\t2\t1.58114e+300\t1\t3\t0.204833",
                          "speed\t1\t2\t1.58114e+300\t1\t3\t0.204833"]


def test_stats_mismatched_grids_rejected(tmp_path, capsys):
    head = "interval\tt_start_s\tt_end_s\tclass\tcount\tflow_vph\tmean_speed_kmh\tn_speed_tracks\n"
    a = write(tmp_path / "a.txt", head + "0\t0\t60\t0\t1\t60\tnan\t0\n1\t60\t120\t0\t1\t60\tnan\t0\n")
    b = write(tmp_path / "b.txt", head + "0\t0\t30\t0\t1\t120\tnan\t0\n1\t30\t60\t0\t1\t120\tnan\t0\n")
    assert main(["stats", "--measured", a, "--truth", b,
                 "--out-dir", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == \
        f"error: interval 0 boundaries differ: 0 to 60 s in {a}, 0 to 30 s in {b}\n"


def test_stats_rejects_two_rows_of_an_interval_with_different_boundaries(tmp_path, capsys):
    head = "interval\tt_start_s\tt_end_s\tclass\tcount\tflow_vph\tmean_speed_kmh\tn_speed_tracks\n"
    good = head + "0\t0\t5\t0\t1\t720\tnan\t0\n1\t5\t10\t0\t1\t720\tnan\t0\n"
    m = write(tmp_path / "m.txt", good + "0\t0\t6\t1\t1\t720\tnan\t0\n")
    t = write(tmp_path / "t.txt", good)
    assert main(["stats", "--measured", m, "--truth", t,
                 "--out-dir", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == \
        f"error: {m}:4: interval 0 spans 0 to 6 s, but 0 to 5 s on line 2\n"
    # within the 1e-9 s tolerance the rows agree
    m = write(tmp_path / "m.txt", good + "0\t0\t5.0000000001\t1\t1\t720\tnan\t0\n")
    assert main(["stats", "--measured", m, "--truth", t, "--out-dir", str(tmp_path / "s")]) == 0


def test_stats_rejects_non_finite_flow(tmp_path, capsys):
    head = "interval\tt_start_s\tt_end_s\tclass\tcount\tflow_vph\tmean_speed_kmh\tn_speed_tracks\n"
    good = head + "0\t0\t60\t0\t1\t60\tnan\t0\n1\t60\t120\t0\t1\t60\tnan\t0\n"
    a = write(tmp_path / "a.txt", good.replace("120\t0\t1\t60", "120\t0\t1\tinf"))
    b = write(tmp_path / "b.txt", good)
    assert main(["stats", "--measured", a, "--truth", b,
                 "--out-dir", str(tmp_path / "s")]) == 1
    assert f"{a}:3:" in capsys.readouterr().err
    assert not (tmp_path / "s" / "stats.txt").exists()


def test_stats_rejects_a_second_row_for_an_interval_and_class(tmp_path, capsys):
    # a second row would otherwise silently replace the first in the series
    head = "interval\tt_start_s\tt_end_s\tclass\tcount\tflow_vph\tmean_speed_kmh\tn_speed_tracks\n"
    good = head + "0\t0\t60\t1\t1\t60\tnan\t0\n1\t60\t120\t1\t1\t60\tnan\t0\n"
    m = write(tmp_path / "m.txt", good.replace("\n1\t60", "\n0\t0\t60\t1\t2\t120\tnan\t0\n1\t60"))
    t = write(tmp_path / "t.txt", good)
    assert main(["stats", "--measured", m, "--truth", t,
                 "--out-dir", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == f"error: {m}:3: duplicate row for interval 0, class 1\n"
    assert not (tmp_path / "s").exists()


def test_stats_refuses_an_interval_index_past_the_grid_cap(tmp_path, capsys):
    # the flow series run over every index up to the largest, so one row far
    # out would make stats build a series of that length
    head = "interval\tt_start_s\tt_end_s\tclass\tcount\tflow_vph\tmean_speed_kmh\tn_speed_tracks\n"

    def rows(last):
        return head + "".join(f"{i}\t{60 * i}\t{60 * i + 60}\t0\t1\t60\tnan\t0\n"
                              for i in (0, last))

    m = write(tmp_path / "m.txt", rows(MAX_INTERVALS))
    t = write(tmp_path / "t.txt", rows(1))
    assert main(["stats", "--measured", m, "--truth", t,
                 "--out-dir", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == \
        f"error: {m}:3: interval {MAX_INTERVALS} is past the last of the {MAX_INTERVALS} " \
        "intervals a grid may hold\n"
    assert not (tmp_path / "s").exists()
    # the last interval a grid may hold is read
    assert parse_intervals(io.StringIO(rows(MAX_INTERVALS - 1)))[-1].interval \
        == MAX_INTERVALS - 1


@pytest.mark.parametrize("iou", ["nan", "inf", "1.5", "-1", "-0.01"])
def test_eval_rejects_an_iou_threshold_outside_0_1(tmp_path, capsys, iou):
    gt = write(tmp_path / "gt.txt", "1,0,0,10,10,0\n")
    pred = write(tmp_path / "pred.txt", "1,0,0,10,10,1.0,0\n")
    assert main(["eval", "--pred", pred, "--gt", gt, "--iou", iou,
                 "--out-dir", str(tmp_path / "e")]) == 1
    assert "iou threshold must be in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_eval_accepts_the_iou_thresholds_0_and_1(tmp_path):
    gt = write(tmp_path / "gt.txt", "1,0,0,10,10,0\n")
    pred = write(tmp_path / "pred.txt", "1,0,0,10,10,1.0,0\n")
    for iou in ("0", "1"):
        assert main(["eval", "--pred", pred, "--gt", gt, "--iou", iou,
                     "--out-dir", str(tmp_path / iou)]) == 0


def test_exit_codes(tmp_path):
    assert main(["track", "--detections", str(tmp_path / "missing.txt"),
                 "--out-dir", str(tmp_path)]) == 2
    bad = write(tmp_path / "bad.txt", "1,0,0,10,10,5.0,0\n")  # confidence > 1
    assert main(["track", "--detections", bad, "--out-dir", str(tmp_path)]) == 1
    spec = write(tmp_path / "bad_spec.ini", "[scenario]\nduration_s = -1\n")
    assert main(["synth", "--spec", spec, "--out-dir", str(tmp_path)]) == 1
    spec = write(tmp_path / "spec.ini", SCENARIO)
    assert main(["synth", "--spec", spec, "--seed", "-1", "--out-dir", str(tmp_path)]) == 1


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
    # and so does the CLI's: only the synth command loads it
    src = str(Path(trafficstate.__file__).resolve().parents[1])
    for module in ("trafficstate.config", "trafficstate.cli"):
        probe = f"import sys, {module}; print('trafficstate.synth' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "False", module


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
@pytest.mark.parametrize("setting", [None, "2"])
def test_import_makes_blas_single_threaded_unless_set(setting):
    # the variable is set before numpy loads, so the process keeps one thread;
    # a value the caller set is left as it is
    src = str(Path(trafficstate.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    probe = ("import os, trafficstate; "
             "print(os.environ['OPENBLAS_NUM_THREADS']); "
             "print(*(line.split()[1] for line in open('/proc/self/status') "
             "if line.startswith('Threads:')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(env, PYTHONPATH=src))
    value, count = out.stdout.split()
    assert value == (setting or "1")
    if setting is None:
        assert count == "1"


IMPORT_GUARD = """
import sys
from pathlib import Path
import trafficstate, trafficstate.cli as cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def ma_loaded():
    return "numpy.ma" in sys.modules

tmp = Path(sys.argv[1])
pred, gt = tmp / "pred.txt", tmp / "gt.txt"
pred.write_text("1,2,3,5,10,0.9,0\\n1,40,3,5,10,0.8,1\\n")
gt.write_text("1,2,3,5,10,0\\n1,41,3,5,10,1\\n")
assert cli.main(["eval", "--pred", str(pred), "--gt", str(gt),
                 "--out-dir", str(tmp / "eval")]) == 0
print(sorted(m for m in sys.modules if m.startswith("trafficstate.")))
print(scipy_loaded())
print(ma_loaded())
# identical series: their t statistic needs no scipy.special
rows = "".join(f"{i}\\t{60 * i}\\t{60 * i + 60}\\t0\\t{i}\\t{60 * i}\\tnan\\t0\\n" for i in range(3))
(tmp / "intervals.txt").write_text(rows)
assert cli.main(["stats", "--measured", str(tmp / "intervals.txt"),
                 "--truth", str(tmp / "intervals.txt"), "--out-dir", str(tmp / "stats")]) == 0
print(sorted(m for m in sys.modules if m.startswith("trafficstate.")))
print(ma_loaded())
assert cli.main(["print-config"]) == 0
print(scipy_loaded())
print(ma_loaded())
dets = tmp / "dets.txt"
# 1 px a frame keeps consecutive boxes at IoU 2/3, so both tracks confirm
dets.write_text("".join(f"{f},{10 + f},10,5,10,0.9,0\\n{f},{10 + f},60,5,10,0.9,1\\n"
                        for f in range(1, 6)))
assert cli.main(["track", "--detections", str(dets), "--out-dir", str(tmp / "track")]) == 0
print(scipy_loaded())
print(ma_loaded())
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
    lines = run_guard(IMPORT_GUARD, tmp_path)
    (eval_modules, after_eval, ma_after_eval, stats_modules, ma_after_stats), \
        (after_print_config, ma_after_print_config, after_track, ma_after_track, confirmed) \
        = lines[:5], lines[-5:]
    # no command loads numpy.ma, which np.unique and np.union1d import on
    # first use; it takes longer to import than the tracker's own modules
    assert [ma_after_eval, ma_after_stats, ma_after_print_config, ma_after_track] \
        == ["False"] * 4
    # eval loads only its own layers, after `import trafficstate` and the CLI
    eval_modules = set(ast.literal_eval(eval_modules))
    assert "trafficstate.metrics" in eval_modules
    assert eval_modules.isdisjoint({f"trafficstate.{m}" for m in
                                    ("tracker", "motion", "traffic", "calib", "config")})
    # stats adds the intervals reader, but no tracker or filter
    stats_modules = set(ast.literal_eval(stats_modules))
    assert "trafficstate.traffic" in stats_modules
    assert stats_modules.isdisjoint({f"trafficstate.{m}" for m in
                                     ("tracker", "motion", "config")})
    assert after_eval == "[]"
    assert after_print_config == "[]"
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


def pinned_scene_text(embedding_dim: int = 16, occlusions=((1, 30, 36),)) -> str:
    """Two opposing lanes of agents with noisy embeddings (none, in 7-column
    rows, at embedding_dim 0), pixel noise, misses, occlusions (agent, first
    frame, last frame), and every seventh row below the confidence floor."""
    agents = [synth.AgentSpec(class_id=k % 4, x0_m=-2.0 - 3.0 * k, y0_m=10.0,
                              vx_mps=12.0, vy_mps=0.0, spawn_frame=1 + 4 * k)
              for k in range(6)]
    agents += [synth.AgentSpec(class_id=2, x0_m=70.0 + 5.0 * k, y0_m=16.0,
                               vx_mps=-10.0, vy_mps=0.0, spawn_frame=1 + 6 * k)
               for k in range(4)]
    spec = synth.ScenarioSpec(
        agents=agents, duration_s=4.0, fps=25.0,
        calibration=CalibrationParams(10.0, 10.0, 90.0),
        noise_std_px=1.0, miss_prob=0.05, occlusions=list(occlusions),
        embedding_dim=embedding_dim, embedding_noise_std=0.2, seed=9,
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


def test_track_output_bytes_are_pinned_in_chunks_of_7(tmp_path, monkeypatch):
    # the scene is smaller than one default chunk; at 7 lines a chunk, frames
    # span chunks and the confidence floor drops rows on chunk boundaries
    monkeypatch.setattr(detstream, "CHUNK_ROWS", 7)
    test_track_output_bytes_are_pinned_from_file_and_stdin(tmp_path, monkeypatch)


# sha256 of tracks.txt and intervals.txt for the 7-column form of the pinned
# scene, with a second occlusion, shorter than max_age
PINNED_PLAIN_TRACKS_SHA256 = "cdf139886ca59e12ab1e2f956bd738e98edc15a63854d2bcffc0f949321c0daf"
PINNED_PLAIN_INTERVALS_SHA256 = "1fc6634f1af9133430c091b993c53ee608ff0bd1d433813f48356b498a64a636"


def test_track_output_bytes_are_pinned_for_a_stream_without_descriptors(tmp_path, monkeypatch):
    # many chunks of 16 lines: frames span chunks, and the floor drops rows on
    # chunk boundaries
    monkeypatch.setattr(detstream, "CHUNK_ROWS", 16)
    text = pinned_scene_text(embedding_dim=0, occlusions=((1, 30, 36), (7, 50, 51)))
    assert {line.count(",") for line in text.splitlines()} == {6}
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
        assert hashlib.sha256(tracks).hexdigest() == PINNED_PLAIN_TRACKS_SHA256
        assert hashlib.sha256(intervals).hexdigest() == PINNED_PLAIN_INTERVALS_SHA256


def assert_no_child_left():
    # a reader neither reaped nor ended shows here as (0, 0) or its (pid, status)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_bad_row_past_the_second_chunk_leaves_no_tracks_file_and_no_reader(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(detstream, "CHUNK_ROWS", 4)
    lines = pinned_scene_text().splitlines(keepends=True)[:20]
    lines[13] = lines[13].replace(",", ",nan,", 1)
    dets = write(tmp_path / "dets.txt", "".join(lines))
    assert main(["track", "--detections", dets, "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {dets}:14: ")
    assert list((tmp_path / "out").glob("*")) == []
    assert_no_child_left()


def test_a_failed_step_ends_the_reader(tmp_path, capsys, monkeypatch):
    # the reader is still running, a chunk ahead and blocked on the pipe,
    # when the tracker fails on the second frame
    step = Tracker.step

    def failing_step(self, frame, batch):
        if frame == 2:
            raise NumericalError("step failed")
        return step(self, frame, batch)

    monkeypatch.setattr(Tracker, "step", failing_step)
    vec = ",".join(["0.25"] * 16)
    dets = write(tmp_path / "dets.txt", "".join(
        f"{f},{10 + 30 * k},10,20,40,0.9,0,{vec}\n" for f in range(1, 31) for k in range(100)))
    assert main(["track", "--detections", dets, "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "numerical error: step failed\n"
    assert list((tmp_path / "out").glob("*")) == []
    assert_no_child_left()


# track, with chunks of 7 lines, so that the reader process crosses chunks
SMALL_CHUNKS_TRACK = """
import sys
from trafficstate import cli, detstream
detstream.CHUNK_ROWS = 7
sys.exit(cli.main(sys.argv[1:]))
"""


def test_track_on_stdin_writes_the_bytes_of_the_same_file_by_path(tmp_path):
    # standard input is a file descriptor here, read by the reader process
    src = str(Path(trafficstate.__file__).resolve().parents[1])
    cfg = write(tmp_path / "run.ini", PINNED_RUN_CONFIG)
    dets = write(tmp_path / "dets.txt", pinned_scene_text())
    for run, detections in (("path", dets), ("stdin", "-")):
        with open(dets, "rb") as stdin:
            subprocess.run([sys.executable, "-c", SMALL_CHUNKS_TRACK, "track",
                            "--detections", detections, "--config", cfg,
                            "--out-dir", str(tmp_path / run)],
                           stdin=stdin, check=True, env=dict(os.environ, PYTHONPATH=src))
    for name in ("tracks.txt", "intervals.txt"):
        assert (tmp_path / "stdin" / name).read_bytes() == (tmp_path / "path" / name).read_bytes()
    tracks = (tmp_path / "stdin" / "tracks.txt").read_bytes()
    assert hashlib.sha256(tracks).hexdigest() == PINNED_TRACKS_SHA256


def test_clean_inputs_never_take_the_row_path(tmp_path, monkeypatch):
    # a clean file, a comment line included, is read as arrays; the row-at-a-time
    # parse is for input that the array read cannot vouch for
    def row_path(*args, **kwargs):
        raise AssertionError("clean input read row by row")

    monkeypatch.setattr(detstream, "_parse_rows", row_path)
    cfg = write(tmp_path / "run.ini", PINNED_RUN_CONFIG)
    dets = write(tmp_path / "dets.txt", "# frame,x,y,w,h,conf,class,e0..e15\n"
                 + pinned_scene_text())
    for size in (64, detstream.CHUNK_ROWS):
        monkeypatch.setattr(detstream, "CHUNK_ROWS", size)
        assert main(["track", "--detections", dets, "--config", cfg,
                     "--out-dir", str(tmp_path / str(size))]) == 0
        tracks = (tmp_path / str(size) / "tracks.txt").read_bytes()
        assert hashlib.sha256(tracks).hexdigest() == PINNED_TRACKS_SHA256
    # ground truth with every row in the 6-column form, in the 7-column one,
    # and as written, in both: a file that mixes them is read as one array
    pred_text, gt_text = pinned_eval_texts()
    gt_rows = [line.split(",") for line in gt_text.splitlines()]
    pred = write(tmp_path / "pred.txt", "# predictions\n" + pred_text)
    texts = {form: "".join(",".join(parts[:5] + conf + parts[-1:]) + "\n" for parts in gt_rows)
             for form, conf in (("6", []), ("7", ["1.0"]))}
    texts["mixed"] = gt_text
    for form, text in texts.items():
        gt = write(tmp_path / f"gt_{form}.txt", "# ground truth\n" + text)
        out = tmp_path / f"eval_{form}"
        assert main(["eval", "--pred", pred, "--gt", gt, "--out-dir", str(out)]) == 0
        report = (out / "eval_report.txt").read_bytes()
        assert hashlib.sha256(report).hexdigest() == PINNED_EVAL_REPORT_SHA256


def test_track_does_no_matrix_algebra(tmp_path, monkeypatch):
    # the filter and the motion distance are elementwise on covariance
    # blocks: no eigensolver, solve, factorization or inverse runs
    def forbidden(*args, **kwargs):
        raise AssertionError("matrix algebra in track")

    for name in ("eigvalsh", "solve", "cholesky", "inv"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    cfg = write(tmp_path / "run.ini", PINNED_RUN_CONFIG)
    dets = write(tmp_path / "dets.txt", pinned_scene_text())
    assert main(["track", "--detections", dets, "--config", cfg,
                 "--out-dir", str(tmp_path)]) == 0
    for name, pinned in (("tracks.txt", PINNED_TRACKS_SHA256),
                         ("intervals.txt", PINNED_INTERVALS_SHA256)):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == pinned


def every_frame(batches, tracker):
    """Every frame index from 1 to the last batch's, gaps filled with empty batches."""
    next_frame = 1
    for frame, batch in batches:
        for empty in range(next_frame, frame):
            yield empty, DetectionBatch.stack(empty, [])
        yield frame, batch
        next_frame = frame + 1


def test_frame_gaps_give_the_bytes_of_stepping_every_frame(tmp_path, monkeypatch):
    # the pinned scene minus frames 40-41 (confirmed tracks coast through) and
    # 60-66 (they outlive max_age and end), plus its last row again at frame 400
    rows = [line for line in pinned_scene_text().splitlines()
            if not 40 <= int(line.split(",")[0]) <= 41
            and not 60 <= int(line.split(",")[0]) <= 66]
    rows.append("400," + rows[-1].split(",", 1)[1])
    dets = write(tmp_path / "dets.txt", "\n".join(rows) + "\n")
    cfg = write(tmp_path / "run.ini", PINNED_RUN_CONFIG)
    assert main(["track", "--detections", dets, "--config", cfg,
                 "--out-dir", str(tmp_path / "gaps")]) == 0
    monkeypatch.setattr(cli, "_frames_to_step", every_frame)
    assert main(["track", "--detections", dets, "--config", cfg,
                 "--out-dir", str(tmp_path / "every")]) == 0
    tracks = (tmp_path / "gaps" / "tracks.txt").read_text()
    assert {"40", "41", "60"} <= {line.split("\t")[0] for line in tracks.splitlines()}
    for name in ("tracks.txt", "intervals.txt"):
        assert (tmp_path / "gaps" / name).read_bytes() == (tmp_path / "every" / name).read_bytes()


def test_a_long_frame_gap_is_crossed_in_a_few_steps(tmp_path, monkeypatch):
    stepped = []
    step = Tracker.step

    def counted(self, frame, batch):
        stepped.append(frame)
        return step(self, frame, batch)

    monkeypatch.setattr(Tracker, "step", counted)
    dets = write(tmp_path / "dets.txt", "1,10,10,5,5,0.9,0\n200000,10,10,5,5,0.9,0\n")
    assert main(["track", "--detections", dets, "--out-dir", str(tmp_path)]) == 0
    assert len(stepped) <= TrackerConfig().max_age + 3
    assert stepped[0] == 1 and stepped[-1] == 200000


HUGE_FRAMES_CONFIG = """\
[loi]
ax_px = 110
ay_px = 0
bx_px = 110
by_px = 1000

[measure]
interval_s = 1e17
fps = 25
duration_s = 4e17
"""


@pytest.mark.parametrize("first,lead,interval", [
    (2**53, "", "0\t0\t1e+17"),
    (2**63, "", "3\t3e+17\t4e+17"),
    (2**63, "1,500,500,20,40,0.9,2\n", "3\t3e+17\t4e+17"),   # int64 and larger together
])
def test_frames_past_float_precision_stay_exact(tmp_path, first, lead, interval):
    # 8 frames 3 px apart at 25 fps: 75 m/s (270 km/h) across x = 110 px; a
    # frame column rounded to float64 gives 65.625 m/s and inf, or equal frames
    rows = "".join(f"{first + k},{100 + 3 * k},100,20,40,0.9,1\n" for k in range(8))
    dets = write(tmp_path / "dets.txt", lead + rows)
    cfg = write(tmp_path / "run.ini", HUGE_FRAMES_CONFIG)
    assert main(["track", "--detections", dets, "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "intervals.txt").read_text().splitlines()
    assert lines[1:] == [f"{interval}\t1\t1\t3.6e-14\t270\t1"]


# sha256 of eval_report.txt and confusion_matrix.txt for the scene below; a
# change to the metrics layer that moves one byte of `eval` output must
# update these on purpose
PINNED_EVAL_REPORT_SHA256 = "7aebf7e66097f3b07c5a5a6323a7466dacb3f286ce213261b839778b68a9a53f"
PINNED_CONFUSION_SHA256 = "988320c76b03eae2675f49574cabfa36e3395f2d4496441d474bc259f791fe36"


def pinned_eval_texts() -> tuple[str, str]:
    """(predictions, ground truth) of three overlapping lanes in four classes.

    The ground truth is exact; half its rows drop the confidence column. The
    predictions see the scene with 2 px noise and 10% misses, seeded
    confidences, every ninth class label shifted and a false positive every
    fifth frame.
    """
    agents = [synth.AgentSpec(class_id=k % 4, x0_m=-2.0 - 4.0 * k, y0_m=8.0 + 3.0 * (k % 3),
                              vx_mps=10.0, vy_mps=0.0, spawn_frame=1 + 3 * k)
              for k in range(9)]
    spec = synth.ScenarioSpec(agents=agents, duration_s=2.0, fps=25.0,
                              calibration=CalibrationParams(10.0, 10.0, 90.0), seed=4)
    loi = LineOfInterest(a=(30.0, -100.0), b=(30.0, 100.0))
    truth, _ = synth.generate(spec, loi, 1.0)
    spec.noise_std_px, spec.miss_prob, spec.seed = 2.0, 0.1, 5
    seen, _ = synth.generate(spec, loi, 1.0)
    rng = np.random.default_rng(6)
    for i, det in enumerate(d for _, dets in seen for d in dets):
        det.confidence = float(rng.uniform(0.05, 1.0))
        if i % 9 == 0:
            det.class_id = (det.class_id + 1) % 4
    for frame, dets in seen[::5]:
        dets.append(Detection(frame=frame, class_id=frame % 4, bbox=(300.0, 60.0, 24.0, 48.0),
                              confidence=float(rng.uniform(0.05, 1.0))))
    pred, gt = io.StringIO(), io.StringIO()
    write_detections(pred, seen)
    write_detections(gt, truth)
    gt_rows = [line.split(",") for line in gt.getvalue().splitlines()]
    gt_text = "".join(",".join(parts[:5] + parts[6:] if i % 2 else parts) + "\n"
                      for i, parts in enumerate(gt_rows))
    return pred.getvalue(), gt_text


def test_eval_output_bytes_are_pinned(tmp_path):
    pred_text, gt_text = pinned_eval_texts()
    pred = write(tmp_path / "pred.txt", pred_text)
    gt = write(tmp_path / "gt.txt", gt_text)
    assert main(["eval", "--pred", pred, "--gt", gt, "--out-dir", str(tmp_path / "out")]) == 0
    report = (tmp_path / "out" / "eval_report.txt").read_bytes()
    confusion = (tmp_path / "out" / "confusion_matrix.txt").read_bytes()
    assert hashlib.sha256(report).hexdigest() == PINNED_EVAL_REPORT_SHA256
    assert hashlib.sha256(confusion).hexdigest() == PINNED_CONFUSION_SHA256


# the same for the scene above with tied confidences; tied detections rank in
# input order, and -0.0 ties with 0.0
PINNED_TIED_EVAL_REPORT_SHA256 = "b46e85b0a537d0cdc8bfd551e45a5e84a6c5f262f55cfeeb4f0156b508043d4f"
PINNED_TIED_CONFUSION_SHA256 = "988320c76b03eae2675f49574cabfa36e3395f2d4496441d474bc259f791fe36"


def test_eval_output_bytes_are_pinned_with_tied_confidences(tmp_path):
    pred_text, gt_text = pinned_eval_texts()
    rows = [line.split(",") for line in pred_text.splitlines()]
    for i, parts in enumerate(rows):
        parts[5] = {0: "0.0", 3: "-0.0"}.get(i % 7, f"{float(parts[5]):.1f}")
    pred = write(tmp_path / "pred.txt", "".join(",".join(parts) + "\n" for parts in rows))
    gt = write(tmp_path / "gt.txt", gt_text)
    assert main(["eval", "--pred", pred, "--gt", gt, "--out-dir", str(tmp_path / "out")]) == 0
    report = (tmp_path / "out" / "eval_report.txt").read_bytes()
    confusion = (tmp_path / "out" / "confusion_matrix.txt").read_bytes()
    assert hashlib.sha256(report).hexdigest() == PINNED_TIED_EVAL_REPORT_SHA256
    assert hashlib.sha256(confusion).hexdigest() == PINNED_TIED_CONFUSION_SHA256
