"""Every demo script runs to completion against the package sources."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trafficstate

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    src = str(Path(trafficstate.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                         capture_output=True, text=True, cwd=tmp_path, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
