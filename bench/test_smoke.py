"""Smoke test of the benchmark: a tiny size of every workload, both modes.

Run from the checkout root:  python3 -m pytest bench/test_smoke.py -q
Each workload takes a few seconds.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run_bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    runs = {trace: run_bench(workload, trace) for trace in (0, 1)}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = runs[trace]
        assert result["correct"], lines
        assert result["failed"] == 0 and result["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == wanted
        for name, unit in wanted.items():
            pattern = rf"{re.escape(name)}\s+\S+ {re.escape(unit)}(\s|$)"
            assert any(re.match(pattern, line) for line in lines), name

    # the traced child's outputs were compared inside the run; the untraced
    # and traced modes must also report the same output digests
    outputs = [[line for line in runs[t][0] if line.startswith("output ")] for t in (0, 1)]
    assert outputs[0] and outputs[0] == outputs[1]

    # span self times plus cli.self_s account for the traced wall time
    record = json.loads(
        (ROOT / ".bench_work" / "results" / f"{workload}-seed{SEED}-trace1.json").read_text())
    spans = json.loads(Path(ROOT / record["trace"]["spans_file"]).read_text())["spans"]
    self_sum = sum(record["trace"]["self_s_by_span"].values())
    cli_self = record["metrics"]["cli.self_s"]
    main_s = record["trace"]["main_s"]
    assert self_sum + cli_self == pytest.approx(main_s, rel=1e-9, abs=1e-9)
    assert self_sum == pytest.approx(covered((s[1], s[2]) for s in spans), abs=1e-9)
    assert cli_self >= 0.0
