"""The benchmark's traced runner still wraps the layers it reports.

bench/traced.py patches engine functions by name to time each layer; a
rename in the engine would leave a span silently missing. This runs it as
the benchmark does, on tiny inputs, against the untraced CLI.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import trafficstate
from trafficstate.calib import CalibrationParams
from trafficstate.detstream import write_detections
from trafficstate.synth import AgentSpec, ScenarioSpec, generate
from trafficstate.traffic import LineOfInterest

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "bench" / "traced.py"
SRC = str(Path(trafficstate.__file__).resolve().parents[1])

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
interval_s = 1
fps = 25
"""


def run(argv, cwd):
    return subprocess.run([sys.executable] + argv, capture_output=True, text=True, cwd=cwd,
                          timeout=120, env=dict(os.environ, PYTHONPATH=SRC))


def traced_and_plain(tmp_path, cli_args, outputs):
    """Run the CLI under bench/traced.py and plainly; return the traced run's
    spans file (span names, layer counts and live tracks per step).

    cli_args holds an {out} placeholder; each run writes to its own directory,
    and every named output must come out byte-identical.
    """
    spans = tmp_path / "spans.json"
    traced = run([str(TRACED), str(spans), "--"]
                 + [a.format(out=tmp_path / "traced") for a in cli_args], tmp_path)
    plain = run(["-m", "trafficstate.cli"]
                + [a.format(out=tmp_path / "plain") for a in cli_args], tmp_path)
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    for name in outputs:
        assert (tmp_path / "traced" / name).read_bytes() \
            == (tmp_path / "plain" / name).read_bytes()
    return json.loads(spans.read_text())


def span_names(trace):
    return {span[0] for span in trace["spans"]}


def test_traced_track_matches_plain_and_has_every_span(tmp_path):
    calib = CalibrationParams(2.0, 2.0, 90.0)
    agents = [AgentSpec(class_id=i, x0_m=-8.0 + 3 * i, y0_m=15.0 * i, vx_mps=9.0, vy_mps=0.0)
              for i in range(3)]
    spec = ScenarioSpec(agents=agents, duration_s=3.0, fps=25.0, calibration=calib,
                        noise_std_px=0.5, embedding_dim=4, embedding_noise_std=0.05, seed=3)
    batches, _ = generate(spec, LineOfInterest((40.0, -100.0), (40.0, 100.0)), 1.0)
    dets = tmp_path / "dets.txt"
    with open(dets, "w", encoding="utf-8") as f:
        write_detections(f, batches)
    (tmp_path / "run.ini").write_text(RUN_CONFIG, encoding="utf-8")
    trace = traced_and_plain(
        tmp_path, ["track", "--detections", str(dets), "--config", "run.ini",
                   "--out-dir", "{out}"], ["tracks.txt", "intervals.txt"])
    # every wrapped name the tiny scene reaches: a refactor that stops calling
    # one leaves its layer silently empty in the benchmark's report
    assert span_names(trace) == {
        "detstream.parse", "tracker.step", "motion.predict", "motion.project",
        "motion.update", "motion.initiate", "assoc.cost", "assoc.iou", "assoc.solve",
        "traffic.assemble", "traffic.measure", "traffic.write"}
    # every live track on every step is one trajectory point
    assert trace["counts"]["traffic.points"] == sum(trace["live_tracks"]) > 0


def test_traced_eval_matches_plain_and_has_every_span(tmp_path):
    (tmp_path / "pred.txt").write_text("1,0,0,10,10,0.9,0\n1,50,0,10,10,0.8,1\n"
                                       "2,300,0,10,10,0.7,0\n", encoding="utf-8")
    (tmp_path / "gt.txt").write_text("1,1,0,10,10,0\n1,50,0,10,10,1\n2,0,0,10,10,0\n",
                                     encoding="utf-8")
    trace = traced_and_plain(
        tmp_path, ["eval", "--pred", "pred.txt", "--gt", "gt.txt", "--out-dir", "{out}"],
        ["eval_report.txt", "confusion_matrix.txt"])
    assert {"metrics.load", "metrics.evaluate", "metrics.match", "metrics.confusion",
            "metrics.write"} <= span_names(trace)
