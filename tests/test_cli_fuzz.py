"""Fuzzed detection input through the `track` command.

Needs hypothesis (the `test` extra in pyproject.toml); skipped without it.
"""
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trafficstate.cli import main  # noqa: E402

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
