"""End-to-end and per-layer benchmark of the trafficstate pipeline.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is not installed. The
benchmark writes a workload's inputs from the seed (bench/scenes.py), then
runs `python -m trafficstate.cli` children with PYTHONPATH=src one after
another for about S seconds: a closed loop with a single client. With
--trace 0 it reports the end-to-end metrics; with --trace 1 it runs the
same child untraced and once under bench/traced.py, and reports the
per-layer metrics. End-to-end times are scaled to a nominal machine speed,
measured by a fixed probe timed between children. Every child's outputs
are checked. The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Per-run details (environment, input and output sha256, every sample) go
to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("dense_appearance", "sparse_long", "eval_dense")
HARD_LIMIT_S = 170.0        # the whole run must end within 180 s
TRACE_SLOWDOWN = 1.3        # budget for a traced child against an untraced one
# What probe_s() took on a 2-vCPU x86-64 VM (Python 3.11) in a fast stretch.
# End-to-end times are reported at the machine speed this stands for.
PROBE_NOMINAL_S = 0.125

# Tracking quality against synth's closed-form truth, and detection quality
# of the eval workload, must stay inside these limits for a run to count as
# correct. They sit well outside the spread over seeds of correct code: one
# miscounted crossing moves the flow RMSE by a few percent of the mean flow.
# An RMS error of one crossing per interval always passes, so that small
# scenes with few crossings per interval can be checked too.
MAX_FLOW_RMSE_SHARE = 0.2   # of the mean true flow over all classes
MAX_SPEED_RMSE_KMH = 5.0
MIN_MAP = 0.6
QUALITY_UNITS = {"flow_rmse_vph": "vph", "speed_rmse_kmh": "km/h", "map": "ratio"}

clock = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="tiny scenes, for the smoke test")
    return p.parse_args(argv)


# -- statistics ------------------------------------------------------------

def tail(values):
    """(p, value) for the highest listed percentile with >= 10 samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            ordered = sorted(values)
            return p, ordered[min(n - 1, int(p / 100.0 * n))]
    return None


def describe(values, unit: str) -> str:
    t = tail(values)
    tail_txt = (f"p{t[0]:g} {t[1]:.6g} {unit}" if t
                else "no tail percentile: fewer than 20 samples")
    return f"median of n={len(values)}; {tail_txt}"


# -- child processes ---------------------------------------------------------

@dataclass
class Child:
    """Outcome of one child process; error is '' when it exited 0."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str


def run_child(argv, env, deadline, stdin_path=None, log_path=None) -> Child:
    """Spawn argv from the checkout root and reap it with its resource usage."""
    timeout = max(1.0, deadline - clock())
    stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
    log = open(log_path, "wb") if log_path else subprocess.DEVNULL
    try:
        start = clock()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=stdin,
                                stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = clock() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
    finally:
        for f in (stdin, log):
            if f is not subprocess.DEVNULL:
                f.close()
    error = ""
    if code != 0:
        error = f"killed by signal {-code}" if code < 0 else f"exit {code}"
        if log_path:
            lines = Path(log_path).read_text(errors="replace").strip().splitlines()
            if lines:
                error += f": {lines[-1]}"
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, error)


# -- output checks -------------------------------------------------------------

def output_names(kind: str):
    return (("tracks.txt", "intervals.txt") if kind == "track"
            else ("eval_report.txt", "confusion_matrix.txt"))


def check_track_outputs(out: Path) -> str:
    """'' when tracks.txt and intervals.txt are well formed, else the reason."""
    from trafficstate import cli, traffic
    from trafficstate.errors import ValidationError

    with open(out / "tracks.txt", encoding="utf-8") as f:
        if f.readline().rstrip("\n") != cli.TRACKS_HEADER:
            return "tracks.txt: wrong header"
        for line_no, line in enumerate(f, start=2):
            if len(line.rstrip("\n").split("\t")) != 7:
                return f"tracks.txt:{line_no}: expected 7 columns"
    with open(out / "intervals.txt", encoding="utf-8") as f:
        if f.readline().rstrip("\n") != traffic.INTERVALS_HEADER:
            return "intervals.txt: wrong header"
        try:
            rows = traffic.parse_intervals(f, path="intervals.txt")
        except ValidationError as exc:
            return str(exc)
    if not rows:
        return "intervals.txt: no rows"
    for r in rows:
        if r.interval < 0 or r.count < 0 or r.n_speed_tracks < 0 or r.end <= r.start:
            return f"intervals.txt: bad row for interval {r.interval}"
    return ""


def check_eval_outputs(out: Path) -> str:
    """'' when eval_report.txt and confusion_matrix.txt are well formed."""
    from trafficstate import metrics
    from trafficstate.detstream import ClassCatalog

    n = ClassCatalog().count
    lines = (out / "eval_report.txt").read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != metrics.EVAL_HEADER:
        return "eval_report.txt: wrong header"
    if len(lines) != n + 2 or not lines[-1].startswith("all\t"):
        return f"eval_report.txt: expected {n} class rows and a summary row"
    if any(len(line.split("\t")) != 11 for line in lines[1:]):
        return "eval_report.txt: expected 11 columns"
    conf = (out / "confusion_matrix.txt").read_text(encoding="utf-8").splitlines()
    if len(conf) != n + 1 or any(len(line.split("\t")) != n + 1 for line in conf):
        return f"confusion_matrix.txt: expected a {n} x {n} matrix"
    try:
        ap = float(lines[-1].split("\t")[-1])
        [float(v) for line in conf[1:] for v in line.split("\t")[1:]]
    except ValueError as exc:
        return f"unparseable value ({exc})"
    if not 0.0 <= ap <= 1.0:
        return f"eval_report.txt: mAP {ap} outside [0, 1]"
    return ""


class Runs:
    """Runs every child of a workload and records what failed, and why."""

    def __init__(self, workload, inputs, work: Path, env, deadline):
        self.workload, self.inputs, self.work = workload, inputs, work
        self.env, self.deadline = env, deadline
        self.attempted = 0
        self.failed: set[str] = set()   # labels of failed runs and checks
        self.failures: list[str] = []   # one line per reason
        self.reference = None          # output sha256 of the first good run
        self.kept_out = None           # outputs kept for the quality checks

    def fail(self, label: str, reason: str) -> None:
        self.failed.add(label)
        self.failures.append(f"{label}: {reason}")

    def child(self, argv, label: str, **kwargs) -> Child:
        self.attempted += 1
        res = run_child(argv, self.env, self.deadline, **kwargs)
        if res.error:
            self.fail(label, res.error)
        return res

    def cli_args(self, out: Path):
        files = self.inputs.files
        if self.inputs.kind == "track":
            dets = "-" if self.inputs.stdin else str(files["detections"])
            return ["track", "--detections", dets, "--config", str(files["config"]),
                    "--out-dir", str(out)]
        return ["eval", "--pred", str(files["pred"]), "--gt", str(files["gt"]),
                "--out-dir", str(out)]

    def workload_child(self, index: int, spans_path: Path | None = None):
        """One run of the workload's subcommand; returns (Child, sha256 map)."""
        from scenes import sha256_of

        label = f"run {index}" + (" (traced)" if spans_path else "")
        out = self.work / f"out{index}"
        prefix = ([sys.executable, str(BENCH / "traced.py"), str(spans_path), "--"]
                  if spans_path else [sys.executable, "-m", "trafficstate.cli"])
        stdin = self.inputs.files["detections"] if self.inputs.stdin else None
        res = self.child(prefix + self.cli_args(out), label, stdin_path=stdin,
                         log_path=self.work / f"stderr{index}.txt")
        if res.error:
            return res, None
        names = output_names(self.inputs.kind)
        missing = [n for n in names if not (out / n).is_file()]
        if missing:
            self.fail(label, f"missing {', '.join(missing)}")
            return res, None
        check = (check_track_outputs if self.inputs.kind == "track"
                 else check_eval_outputs)
        reason = check(out)
        if reason:
            self.fail(label, reason)
            return res, None
        digests = {n: sha256_of(out / n) for n in names}
        if self.reference is None:
            self.reference, self.kept_out = digests, out
        else:
            for n in names:
                if digests[n] != self.reference[n]:
                    self.fail(label, f"{n} sha256 differs from run 0")
            shutil.rmtree(out)
        return res, digests


# -- quality ---------------------------------------------------------------------

def track_quality(runs: Runs) -> dict:
    """flow/speed RMSE of intervals.txt against the closed-form truth."""
    from trafficstate import traffic

    out = runs.work / "stats"
    argv = [sys.executable, "-m", "trafficstate.cli", "stats",
            "--measured", str(runs.kept_out / "intervals.txt"),
            "--truth", str(runs.inputs.files["truth"]), "--out-dir", str(out)]
    res = runs.child(argv, "stats", log_path=runs.work / "stderr_stats.txt")
    if res.error:
        return {}
    rows = {}
    for line in (out / "stats.txt").read_text(encoding="utf-8").splitlines()[1:]:
        cols = line.split("\t")
        if cols[1] == "all":
            rows[cols[0]] = float(cols[3])
    if set(rows) != {"flow", "speed"}:
        runs.fail("stats", "missing the flow all or speed all row")
        return {}
    quality = {"flow_rmse_vph": rows["flow"], "speed_rmse_kmh": rows["speed"]}
    with open(runs.inputs.files["truth"], encoding="utf-8") as f:
        truth = traffic.parse_intervals(f)
    n_intervals = max(r.interval for r in truth) + 1
    one_crossing_vph = 3600.0 / (truth[0].end - truth[0].start)
    limit = max(MAX_FLOW_RMSE_SHARE * sum(r.flow_vph for r in truth) / n_intervals,
                one_crossing_vph)
    if not quality["flow_rmse_vph"] <= limit:
        runs.fail("quality", f"flow_rmse_vph {quality['flow_rmse_vph']} above {limit}")
    if not quality["speed_rmse_kmh"] <= MAX_SPEED_RMSE_KMH:
        runs.fail("quality",
                  f"speed_rmse_kmh {quality['speed_rmse_kmh']} above {MAX_SPEED_RMSE_KMH}")
    return quality


def eval_quality(runs: Runs) -> dict:
    last = (runs.kept_out / "eval_report.txt").read_text(encoding="utf-8").splitlines()[-1]
    quality = {"map": float(last.split("\t")[-1])}
    if not quality["map"] >= MIN_MAP:
        runs.fail("quality", f"map {quality['map']} below {MIN_MAP}")
    return quality


# -- per-layer metrics from spans -------------------------------------------------

LAYER_METRICS = [
    ("detstream.parse_s", "s"), ("detstream.rows", "count"), ("detstream.frames", "count"),
    ("tracker.step_s", "s"), ("tracker.self_s", "s"), ("tracker.step_ms_p50", "ms"),
    ("tracker.step_ms_tail", "ms"), ("tracker.live_tracks_mean", "count"),
    ("tracker.live_tracks_max", "count"), ("tracker.births", "count"),
    ("tracker.confirmed_rows", "count"),
    ("motion.predict_s", "s"), ("motion.project_s", "s"), ("motion.update_s", "s"),
    ("motion.initiate_s", "s"), ("motion.rows", "count"),
    ("assoc.cost_s", "s"), ("assoc.cost_calls", "count"), ("assoc.cost_cells", "count"),
    ("assoc.admissible_ratio", "ratio"), ("assoc.iou_s", "s"), ("assoc.iou_cells", "count"),
    ("assoc.solve_s", "s"), ("assoc.match_ratio", "ratio"),
    ("traffic.assemble_s", "s"), ("traffic.measure_s", "s"), ("traffic.write_s", "s"),
    ("traffic.points", "count"), ("traffic.intervals", "count"),
    ("metrics.load_s", "s"), ("metrics.evaluate_s", "s"), ("metrics.match_s", "s"),
    ("metrics.confusion_s", "s"), ("metrics.pairs", "count"), ("metrics.write_s", "s"),
    ("cli.self_s", "s"), ("trace.overhead_ratio", "ratio"),
]


def span_times(spans):
    """(total, self) seconds per span name; self excludes direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total, own = {}, {}
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start) - child_time[i]
    return total, own


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float,
                  confirmed_rows: int) -> tuple[dict, dict]:
    """Per-layer metric values, and notes on how they were derived."""
    spans = trace["spans"]
    total, own = span_times(spans)
    counts = trace["counts"]
    steps = [(end - start) * 1e3 for name, start, end, _, _ in spans
             if name == "tracker.step"]
    live = trace["live_tracks"]
    top = sum(end - start for _, start, end, parent, _ in spans if parent < 0)

    def t(name):
        return total.get(name, 0.0)

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    step_tail = tail(steps)
    notes = {"step_ms_tail_percentile": step_tail[0] if step_tail else None,
             "self_s_by_span": own, "main_s": trace["main_s"], "spans": len(spans)}
    values = {
        "detstream.parse_s": t("detstream.parse"),
        "detstream.rows": counts.get("detstream.rows", 0),
        "detstream.frames": counts.get("detstream.frames", 0),
        "tracker.step_s": t("tracker.step"),
        "tracker.self_s": own.get("tracker.step", 0.0),
        "tracker.step_ms_p50": statistics.median(steps) if steps else 0.0,
        "tracker.step_ms_tail": step_tail[1] if step_tail else 0.0,
        "tracker.live_tracks_mean": statistics.fmean(live) if live else 0.0,
        "tracker.live_tracks_max": max(live, default=0),
        "tracker.births": counts.get("tracker.births", 0),
        "tracker.confirmed_rows": confirmed_rows,
        "motion.predict_s": t("motion.predict"),
        "motion.project_s": t("motion.project"),
        "motion.update_s": t("motion.update"),
        "motion.initiate_s": t("motion.initiate"),
        "motion.rows": counts.get("motion.rows", 0),
        "assoc.cost_s": t("assoc.cost"),
        "assoc.cost_calls": counts.get("assoc.cost_calls", 0),
        "assoc.cost_cells": counts.get("assoc.cost_cells", 0),
        "assoc.admissible_ratio": ratio("assoc.admissible_cells", "assoc.cost_cells"),
        "assoc.iou_s": t("assoc.iou"),
        "assoc.iou_cells": counts.get("assoc.iou_cells", 0),
        "assoc.solve_s": t("assoc.solve"),
        "assoc.match_ratio": ratio("assoc.rows_matched", "assoc.rows_offered"),
        "traffic.assemble_s": t("traffic.assemble"),
        "traffic.measure_s": t("traffic.measure"),
        "traffic.write_s": t("traffic.write"),
        "traffic.points": counts.get("traffic.points", 0),
        "traffic.intervals": counts.get("traffic.intervals", 0),
        "metrics.load_s": t("metrics.load"),
        "metrics.evaluate_s": t("metrics.evaluate"),
        "metrics.match_s": t("metrics.match"),
        "metrics.confusion_s": t("metrics.confusion"),
        "metrics.pairs": counts.get("metrics.pairs", 0),
        "metrics.write_s": t("metrics.write"),
        "cli.self_s": trace["main_s"] - top,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
    return values, notes


# -- environment -------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name} unresolved)"


def environment() -> dict:
    import numpy
    import scipy

    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v, "unset") for v in blas_vars},
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


# -- the two modes -------------------------------------------------------------------

def probe_s() -> float:
    """Seconds a fixed pure-Python job takes: the machine's speed just now."""
    start = clock()
    total, counts = 0, {}
    for i in range(1_500_000):
        total += i * i % 7
    for i in range(200_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + 1
    return clock() - start


def measure_end_to_end(runs: Runs, seconds: float, record: dict) -> dict:
    """Run workload children, with a set-up child before every second one,
    until `seconds` have passed, and time the speed probe between children.

    Interleaving spreads both kinds of sample over the whole run, so drift
    in the machine's speed moves their medians alike. Sampling set-up every
    second round leaves more of the run to the workload samples, whose
    median is the noisier.

    The machine's speed swings by up to 1.6x for seconds to minutes at a
    time, so each time sample is scaled by PROBE_NOMINAL_S over the mean of
    the probes just before and just after it: a time at the speed where the
    probe takes PROBE_NOMINAL_S. Memory is not scaled.
    """
    start = clock()
    config = [sys.executable, "-m", "trafficstate.cli", "print-config"]
    runs.child(config, "set-up warm-up")     # fills the bytecode cache
    raw = {"setup_s": [], "wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    samples = {name: [] for name in raw}
    probes = [probe_s()]
    record.update(samples=samples, raw_samples=raw, probe_s=probes)

    def add(name, value):
        raw[name].append(value)
        if name == "peak_rss_mb":
            samples[name].append(value)
        else:
            samples[name].append(value * 2.0 * PROBE_NOMINAL_S / (probes[-2] + probes[-1]))

    i = 0
    while i == 0 or (clock() + statistics.median(raw["wall_s"])
                     + (statistics.median(raw["setup_s"]) if i % 2 == 0 else 0.0)
                     <= start + seconds):
        if i % 2 == 0:
            res = runs.child(config, f"set-up {i // 2}")
            if res.error:
                return {}
            probes.append(probe_s())
            add("setup_s", res.wall_s)
        res, _ = runs.workload_child(i)
        if res.error:
            return {}
        probes.append(probe_s())
        add("wall_s", res.wall_s)
        add("cpu_s", res.cpu_s)
        add("peak_rss_mb", res.rss_mb)
        i += 1
    return {name: statistics.median(values) for name, values in samples.items()}


def measure_layers(runs: Runs, seconds: float, record: dict, spans_copy: Path) -> dict:
    start = clock()
    runs.child([sys.executable, "-m", "trafficstate.cli", "print-config"],
               "set-up warm-up")
    walls = []
    i = 0
    while i == 0 or (clock() + (1.0 + TRACE_SLOWDOWN) * statistics.median(walls)
                     <= start + seconds):
        res, _ = runs.workload_child(i)
        i += 1
        if res.error:
            return {}
        walls.append(res.wall_s)
    spans_path = runs.work / "spans.json"
    res, digests = runs.workload_child(i, spans_path=spans_path)
    if digests is None:
        return {}
    shutil.copyfile(spans_path, spans_copy)
    trace = json.loads(spans_path.read_text())
    confirmed = 0
    if runs.inputs.kind == "track":
        with open(runs.kept_out / "tracks.txt", encoding="utf-8") as f:
            confirmed = sum(1 for _ in f) - 1
    values, record["trace"] = layer_metrics(trace, res.wall_s, statistics.median(walls),
                                            confirmed)
    record["trace"]["spans_file"] = str(spans_copy.relative_to(ROOT))
    record["samples"] = {"untraced_wall_s": walls, "traced_wall_s": res.wall_s}
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "trafficstate" / "cli.py").is_file():
        print(f"error: no trafficstate sources under {ROOT / 'src'}; run the benchmark "
              "from a full source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import scenes

    hard_deadline = clock() + HARD_LIMIT_S
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    t0 = clock()
    inputs = scenes.build_inputs(args.workload, args.seed, work / "inputs", smoke=args.smoke)
    gen_s = clock() - t0
    env = dict(os.environ, PYTHONPATH="src")
    runs = Runs(args.workload, inputs, work, env, hard_deadline)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": environment(),
              "inputs_sha256": inputs.sha256, "generation_s": gen_s,
              "load": "closed loop, one client, children run back to back"}
    try:
        if args.trace == 0:
            values = measure_end_to_end(runs, args.seconds, record)
            quality = {}
            if runs.kept_out is not None:
                quality = (track_quality(runs) if inputs.kind == "track"
                           else eval_quality(runs))
            units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
            record["quality"] = quality
        else:
            spans_copy = results_dir / f"{args.workload}-seed{args.seed}-spans.json"
            values = measure_layers(runs, args.seconds, record, spans_copy)
            units = dict(LAYER_METRICS)
        record["outputs_sha256"] = runs.reference
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runs.failed)
    correct = failed == 0 and bool(values)
    record.update(metrics=values, attempted=runs.attempted, failed=failed,
                  failures=runs.failures)
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / out_name).write_text(json.dumps(record, indent=1) + "\n")

    env_rec = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({record['load']})")
    print("environment: " + "  ".join(f"{k} {v}" for k, v in env_rec.items()))
    for role, digest in inputs.sha256.items():
        print(f"input {inputs.files[role].name} sha256 {digest}")
    for name, digest in (runs.reference or {}).items():
        print(f"output {name} sha256 {digest}")
    samples, raw = record.get("samples", {}), record.get("raw_samples", {})
    if "probe_s" in record:
        print(f"speed probe: median {statistics.median(record['probe_s']):.4g} s against "
              f"{PROBE_NOMINAL_S} s nominal; times below are scaled to the nominal speed")
    for name, value in values.items():
        extra = f"  ({describe(samples[name], units[name])})" if name in samples else ""
        if name in raw and raw[name] != samples[name]:
            extra += f"  (unscaled median {statistics.median(raw[name]):.6g} {units[name]})"
        print(f"{name:26s} {value:.6g} {units[name]}{extra}")
    for name, value in record.get("quality", {}).items():
        print(f"{name:26s} {value:.6g} {QUALITY_UNITS[name]}  (checked against a fixed limit)")
    print(f"{'error_rate':26s} {failed / max(1, runs.attempted):.6g} ratio"
          f"  ({failed} failed of {runs.attempted} attempted)")
    for reason in runs.failures:
        print(f"failure: {reason}")
    print(f"details: {(results_dir / out_name).relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": runs.attempted, "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
