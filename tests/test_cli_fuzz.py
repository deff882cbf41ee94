"""Fuzzed detection input, run config values and scenario values through
the `track` and `synth` commands, and the number format of `tracks.txt`.

Needs hypothesis (the `test` extra in pyproject.toml); skipped without it.
"""
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trafficstate.cli import _track_rows, main  # noqa: E402
from trafficstate.config import default_config_text  # noqa: E402
from trafficstate.tracker import LiveTracks  # noqa: E402

# fields that parse, fields that parse to out-of-range or non-finite values,
# and fields that do not parse
FUZZ_FIELD = st.one_of(
    st.sampled_from(["1", "2", "0", "-1", "0.5", "10", "1e308", "-1e308", "1e-320",
                     "nan", "inf", "-inf", "", " ", "x", "1.5.2", "0x10", "9" * 40]),
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
)
FUZZ_LINE = st.one_of(
    st.lists(FUZZ_FIELD, max_size=12).map(",".join),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
)
# well-formed rows with arbitrary box values, in frame order, so that the
# tracker and the measurement stage see them too
FUZZ_ROW = st.tuples(
    st.integers(1, 4), st.floats(), st.floats(), st.floats(min_value=0.0),
    st.floats(min_value=0.0), st.floats(0.0, 1.0), st.integers(0, 2),
)
FUZZ_ROWS = st.lists(FUZZ_ROW, max_size=10).map(lambda rows: [
    ",".join([str(r[0])] + [repr(v) for v in r[1:6]] + [str(r[6])]) for r in sorted(rows)
])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=st.one_of(st.lists(FUZZ_LINE, min_size=1, max_size=6), FUZZ_ROWS))
# a sub-pixel box seen in consecutive frames: its tentative track's
# innovation covariance is ill-conditioned when stage 2 would match it
@example(lines=["1,0,0,1,1e-38,0.9,0", "2,0,0,1,1e-38,0.9,0"])
def test_fuzzed_detection_lines_exit_cleanly(lines):
    with tempfile.TemporaryDirectory() as tmp:
        dets = Path(tmp) / "dets.txt"
        dets.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["track", "--detections", str(dets), "--out-dir", str(Path(tmp) / "out")])
    assert code in (0, 1)


# a value of every kind: non-finite, blank, unparsable, fractional, negative,
# zero, small, huge, and an integer far beyond int64
FUZZ_VALUES = ["nan", "inf", "-inf", "", "x", "1.5", "-1", "0", "2", "1e308", "9" * 40]

SMALL_SCENARIO = """\
[scenario]
fps = 25
duration_s = 2
seed = 3
noise_std_px = 0.5
miss_prob = 0.1
embedding_dim = 2
embedding_noise_std = 0.1

[calibration]
phi = 2.0
omega = 2.0
delta_deg = 80
x0 = 1
y0 = -1

[loi]
ax_px = 40
ay_px = -100
bx_px = 40
by_px = 100
direction = 1

[measure]
interval_s = 1

[agent.1]
class = 1
x0_m = 0
y0_m = 0
vx_mps = 10
vy_mps = 1
spawn_frame = 2
end_frame = 40
box_w_px = 20
box_h_px = 30

[occlusion.1]
agent = 0
first_frame = 5
last_frame = 9
"""


def with_value(text: str, line_no: int, value: str) -> str:
    lines = text.splitlines()
    lines[line_no] = lines[line_no].split("=")[0] + "= " + value
    return "\n".join(lines) + "\n"


def key_lines(text: str) -> list[int]:
    return [i for i, line in enumerate(text.splitlines())
            if "=" in line and not line.startswith("#")]


PRINT_CONFIG = default_config_text()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(line_no=st.sampled_from(key_lines(PRINT_CONFIG)), value=st.sampled_from(FUZZ_VALUES))
def test_one_fuzzed_run_config_value_exits_cleanly(line_no, value):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(with_value(PRINT_CONFIG, line_no, value), encoding="utf-8")
        dets = Path(tmp) / "dets.txt"
        dets.write_text("1,10,10,20,40,0.9,3\n2,12,10,20,40,0.9,3\n", encoding="utf-8")
        code = main(["track", "--detections", str(dets), "--config", str(cfg),
                     "--out-dir", str(Path(tmp) / "out")])
    assert code in (0, 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(line_no=st.sampled_from(key_lines(SMALL_SCENARIO)), value=st.sampled_from(FUZZ_VALUES))
def test_one_fuzzed_scenario_value_exits_cleanly(line_no, value):
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "scene.ini"
        spec.write_text(with_value(SMALL_SCENARIO, line_no, value), encoding="utf-8")
        code = main(["synth", "--spec", str(spec), "--out-dir", str(Path(tmp) / "out")])
    assert code in (0, 1)


# tracks.txt formats each frame's rows with one %-format; its floats must
# read as the format spec .6g writes them
@settings(max_examples=2000, deadline=None, derandomize=True)
@given(x=st.floats())
@example(x=0.0)
@example(x=-0.0)
@example(x=float("nan"))
@example(x=float("inf"))
@example(x=float("-inf"))
@example(x=5e-324)
@example(x=2.2250738585072014e-308)
@example(x=1e16)
@example(x=-1e16)
@example(x=999999.5)
@example(x=1.7976931348623157e308)
def test_percent_g_writes_every_double_as_the_format_spec(x):
    assert "%.6g" % x == f"{x:.6g}"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(frame=st.integers(1, 10**9), data=st.data())
def test_a_frames_track_rows_are_the_rows_written_one_by_one(frame, data):
    n = data.draw(st.integers(0, 6))
    boxes = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=4 * n,
                                        max_size=4 * n))).reshape(n, 4)
    confirmed = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
    live = LiveTracks(frame=frame, ids=np.arange(1, n + 1) * 7, confirmed=confirmed,
                      class_ids=np.arange(n) % 3, boxes=boxes)
    want = "".join(f"{frame}\t{i}\t{c}\t{x + w / 2.0:.6g}\t{y + h / 2.0:.6g}\t"
                   f"{w:.6g}\t{h:.6g}\n"
                   for i, c, (x, y, w, h) in zip(live.ids[confirmed].tolist(),
                                                 live.class_ids[confirmed].tolist(),
                                                 boxes[confirmed].tolist()))
    assert _track_rows(live) == want
