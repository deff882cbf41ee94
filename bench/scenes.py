"""Workload definitions: pinned synth scenes built from a seed.

Every input file a workload reads is generated here through the public
`trafficstate.synth` API, so the same seed always gives the same bytes.
The seed draws the scene layout (lane speeds and offsets, classes, arrival
jitter, occlusion windows) and is passed on as the synth noise seed; the
size of each scene is fixed, so the work per run does not depend on it.

All scenes are laid out in pixels, seen at 10 px per metre with no skew,
at 25 fps, with a vertical counting line at x = 960 px.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from trafficstate import detstream, synth, traffic
from trafficstate.calib import CalibrationParams

FPS = 25.0
PX_PER_M = 10.0
CALIBRATION = CalibrationParams(PX_PER_M, PX_PER_M, 90.0)
LOI_PX = ((960.0, 0.0), (960.0, 1440.0))
N_CLASSES_USED = 6          # class ids 0..5 of the 14-class default catalog
LANE_PITCH_PX = 60.0        # boxes are 48 px tall, so lanes never overlap
AGENT_GAP_PX = 96.0         # boxes are 24 px wide, so lane mates never overlap


@dataclass(frozen=True)
class Size:
    """The knobs that set how much work one child run does.

    sparse_long takes its agent count from the frame count, so per_lane is 0;
    eval_dense measures no intervals, so interval_s is 0.
    """

    lanes: int
    per_lane: int
    frames: int
    interval_s: float


# Full sizes give children of about 2.5-3.5 s on a 2-CPU machine; the smoke
# sizes finish in well under a second of work each.
SIZES = {
    "dense_appearance": Size(lanes=12, per_lane=10, frames=120, interval_s=2.0),
    "sparse_long": Size(lanes=5, per_lane=0, frames=2000, interval_s=5.0),
    "eval_dense": Size(lanes=20, per_lane=10, frames=35, interval_s=0.0),
}
SMOKE_SIZES = {
    "dense_appearance": Size(lanes=4, per_lane=4, frames=60, interval_s=1.0),
    "sparse_long": Size(lanes=3, per_lane=0, frames=300, interval_s=2.0),
    "eval_dense": Size(lanes=4, per_lane=4, frames=10, interval_s=0.0),
}

# sparse_long: each agent lives SPARSE_LIFE frames and one arrives every
# SPARSE_ARRIVAL frames, so about SPARSE_LIFE / SPARSE_ARRIVAL are live.
SPARSE_LIFE = 250
SPARSE_ARRIVAL = 17


@dataclass
class Inputs:
    """Files one workload's child processes read, with their digests."""

    kind: str                 # "track" or "eval"
    files: dict[str, Path]    # role -> path
    sha256: dict[str, str]    # role -> hex digest
    stdin: bool = False       # detections fed on standard input


def _lane_agents(rng: np.random.Generator, size: Size) -> list[synth.AgentSpec]:
    """Lanes of equal-speed agents: lane mates keep their spacing for good."""
    agents = []
    for lane in range(size.lanes):
        speed = float(rng.uniform(10.0, 20.0))
        offset = float(rng.uniform(0.0, AGENT_GAP_PX))
        for k in range(size.per_lane):
            agents.append(synth.AgentSpec(
                class_id=int(rng.integers(0, N_CLASSES_USED)),
                x0_m=(480.0 + offset + k * AGENT_GAP_PX) / PX_PER_M,
                y0_m=(100.0 + lane * LANE_PITCH_PX) / PX_PER_M,
                vx_mps=speed, vy_mps=0.0,
            ))
    return agents


def _sparse_spec(rng: np.random.Generator, size: Size, seed: int) -> synth.ScenarioSpec:
    """Steady arrivals and departures; about 15 tracks live at once."""
    agents = []
    occlusions = []
    lane_speed = rng.uniform(12.0, 16.0, size=size.lanes)
    n_agents = size.frames // SPARSE_ARRIVAL
    for i in range(n_agents):
        lane = i % size.lanes
        spawn = 1 + i * SPARSE_ARRIVAL + int(rng.integers(0, 3))
        speed = float(lane_speed[lane])
        travel_m = speed * SPARSE_LIFE / FPS
        agents.append(synth.AgentSpec(
            class_id=int(rng.integers(0, N_CLASSES_USED)),
            x0_m=960.0 / PX_PER_M - travel_m / 2.0 + float(rng.uniform(-2.0, 2.0)),
            y0_m=(100.0 + lane * LANE_PITCH_PX) / PX_PER_M,
            vx_mps=speed, vy_mps=0.0,
            spawn_frame=spawn, end_frame=spawn + SPARSE_LIFE - 1,
        ))
        # one agent in five loses 1-3 frames: shorter than max_age, so the
        # track must coast through it and be re-acquired
        if rng.random() < 0.2:
            first = spawn + int(rng.integers(20, SPARSE_LIFE - 20))
            last = first + int(rng.integers(0, 3))
            if last <= size.frames:
                occlusions.append((i, first, last))
    return synth.ScenarioSpec(
        agents=agents, duration_s=size.frames / FPS, fps=FPS,
        calibration=CALIBRATION, noise_std_px=1.0, miss_prob=0.05,
        occlusions=occlusions, seed=seed,
    )


def scenario(workload: str, seed: int, size: Size) -> synth.ScenarioSpec:
    """The synth scene of a workload; for eval_dense, its ground truth."""
    rng = np.random.default_rng([seed, sorted(SIZES).index(workload)])
    if workload == "sparse_long":
        return _sparse_spec(rng, size, seed)
    spec = synth.ScenarioSpec(
        agents=_lane_agents(rng, size), duration_s=size.frames / FPS, fps=FPS,
        calibration=CALIBRATION, noise_std_px=1.0, miss_prob=0.05, seed=seed,
    )
    if workload == "dense_appearance":
        spec.embedding_dim = 64
        spec.embedding_noise_std = 0.03
    if workload == "eval_dense":
        spec.noise_std_px = 0.0
        spec.miss_prob = 0.0
    return spec


def config_text(size: Size, duration_s: float) -> str:
    """Run config for `track`: the scene's calibration and counting line."""
    (ax, ay), (bx, by) = LOI_PX
    return (
        f"[calibration]\nphi = {PX_PER_M}\nomega = {PX_PER_M}\ndelta_deg = 90.0\n\n"
        f"[loi]\nax_px = {ax}\nay_px = {ay}\nbx_px = {bx}\nby_px = {by}\n"
        "direction =\n\n"
        f"[measure]\ninterval_s = {size.interval_s}\nfps = {FPS}\n"
        f"duration_s = {duration_s}\n"
    )


def _predictions(truth_spec: synth.ScenarioSpec, seed: int) -> list:
    """A noisier, patchier detector's view of the ground-truth scene.

    Boxes get 2 px noise and 10% misses from synth; the benchmark then
    draws confidences in (0, 1] and flips 5% of the class labels.
    """
    noisy = replace(truth_spec, noise_std_px=2.0, miss_prob=0.1, seed=seed + 1)
    batches, _ = synth.generate(noisy, synth.loi_to_world(LOI_PX, None, CALIBRATION), 1.0)
    rng = np.random.default_rng([seed, 99])
    for _, dets in batches:
        for det in dets:
            det.confidence = float(1.0 - rng.random())
            if rng.random() < 0.05:
                det.class_id = int((det.class_id + 1 + rng.integers(0, N_CLASSES_USED - 1))
                                   % N_CLASSES_USED)
    return batches


def _write_batches(path: Path, batches) -> None:
    with open(path, "w", encoding="utf-8") as f:
        detstream.write_detections(f, batches)


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def build_inputs(workload: str, seed: int, out_dir: Path, smoke: bool = False) -> Inputs:
    """Write a workload's input files under out_dir and hash them."""
    size = (SMOKE_SIZES if smoke else SIZES)[workload]
    spec = scenario(workload, seed, size)
    loi = synth.loi_to_world(LOI_PX, None, CALIBRATION)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    if workload == "eval_dense":
        batches, _ = synth.generate(spec, loi, 1.0)
        files["gt"] = out_dir / "gt.txt"
        files["pred"] = out_dir / "pred.txt"
        _write_batches(files["gt"], batches)
        _write_batches(files["pred"], _predictions(spec, seed))
        kind = "eval"
    else:
        batches, truth = synth.generate(spec, loi, size.interval_s)
        files["detections"] = out_dir / "detections.txt"
        files["truth"] = out_dir / "ground_truth.txt"
        files["config"] = out_dir / "run.ini"
        _write_batches(files["detections"], batches)
        with open(files["truth"], "w", encoding="utf-8") as f:
            traffic.write_intervals(f, truth.to_measurements())
        files["config"].write_text(config_text(size, spec.duration_s), encoding="utf-8")
        kind = "track"
    return Inputs(kind=kind, files=files,
                  sha256={role: sha256_of(p) for role, p in files.items()},
                  stdin=workload == "sparse_long")
