"""Synthetic traffic scenarios with exact ground truth.

Agents move at constant world velocity; their boxes are projected into
pixel space through the inverse calibration, optionally corrupted with
Gaussian centroid noise, dropped frames, and occlusion windows. Ground
truth (trajectories, per-interval classified crossing counts, speeds) is
computed in closed form from the motion model, never by running the
tracking engine, so it can serve as an independent oracle. A frame visits only
its live agents and an agent's frames find their intervals in one pass, so the
cost grows with the detections: an hour at 25 fps (90k frames) builds in about
15 s of CPU on a 2-vCPU VM.

For exact engine-vs-truth comparisons keep agents alive through the whole
run: a track whose agent disappears coasts for up to max_age frames on
predicted positions, which the model truth knows nothing about.

`parse_scenario` reads a scenario file ([scenario], [agent.*], [occlusion.*],
and [calibration], [loi] and [measure] read as in a run config) with the INI
reader of `config`; an absent key keeps its field's default, if it has one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .calib import CalibrationParams, to_pixel
from .config import (DEFAULTS, RUN_CONFIG_KEYS, ini_value, prefixed, read_calibration, read_ini,
                     read_loi, read_section)
from .detstream import Detection
from .errors import ValidationError, positive, require
from .traffic import IntervalRow, LineOfInterest, interval_count, interval_grid, interval_rows
from .traffic import loi_to_world  # noqa: F401  (kept importable as synth.loi_to_world)

# a scene is generated in memory, frame by frame: bound its frames (11 hours
# at 25 fps) and its descriptor width (the widest common re-id embedding);
# noise beyond MAX_NOISE_STD swamps any scene, and squaring it leaves float range
MAX_FRAMES = 10**6
MAX_EMBEDDING_DIM = 2048
MAX_NOISE_STD = 1e100


@dataclass(frozen=True)
class AgentSpec:
    """One road user: class, lifetime, and constant-velocity world motion."""

    class_id: int
    x0_m: float
    y0_m: float
    vx_mps: float
    vy_mps: float
    spawn_frame: int = 1
    end_frame: Optional[int] = None
    box_w_px: float = 24.0
    box_h_px: float = 48.0

    def __post_init__(self):
        require(self, "class_id", lambda v: v >= 0, ">= 0")
        require(self, "spawn_frame", lambda v: v >= 1, ">= 1")
        require(self, "end_frame", lambda v: v is None or v >= self.spawn_frame,
                "unset or >= spawn_frame")
        require(self, "x0_m y0_m vx_mps vy_mps", math.isfinite, "finite")
        require(self, "box_w_px box_h_px", positive, "finite and > 0")

    @property
    def speed_mps(self) -> float:
        return math.hypot(self.vx_mps, self.vy_mps)


@dataclass
class ScenarioSpec:
    """Complete description of a synthetic scene; the seed pins every byte."""

    agents: list[AgentSpec]
    duration_s: float
    fps: float = 25.0
    calibration: CalibrationParams = CalibrationParams(1.0, 1.0, 90.0)
    noise_std_px: float = 0.0
    miss_prob: float = 0.0
    occlusions: list[tuple[int, int, int]] = field(default_factory=list)
    embedding_dim: int = 0
    embedding_noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.agents:
            raise ValidationError("scenario needs at least one agent")
        require(self, "duration_s fps", positive, "finite and > 0")
        if not self.duration_s * self.fps <= MAX_FRAMES:
            raise ValidationError(f"duration_s * fps must be at most {MAX_FRAMES} frames")
        require(self, "miss_prob", lambda v: 0.0 <= v < 1.0, "in [0, 1)")
        require(self, "noise_std_px embedding_noise_std", lambda v: 0 <= v <= MAX_NOISE_STD,
                f"in [0, {MAX_NOISE_STD:g}]")
        require(self, "embedding_dim", lambda v: 0 <= v <= MAX_EMBEDDING_DIM,
                f"in [0, {MAX_EMBEDDING_DIM}]")
        require(self, "seed", lambda v: v >= 0, ">= 0")
        n_frames = self.n_frames
        for agent_idx, first, last in self.occlusions:
            if not 0 <= agent_idx < len(self.agents):
                raise ValidationError(f"occlusion for unknown agent {agent_idx}")
            if not 1 <= first <= last <= n_frames:
                raise ValidationError(
                    f"occlusion window [{first}, {last}] outside 1..{n_frames}"
                )

    @property
    def n_frames(self) -> int:
        return int(round(self.duration_s * self.fps))


@dataclass
class GroundTruth:
    """Model truth: world trajectories, per-interval counts and speeds."""

    trajectories: dict[int, list[tuple[int, float, float]]]
    counts: dict[int, dict[int, int]]            # interval -> class -> crossings
    speeds: dict[int, dict[int, list[float]]]    # interval -> class -> m/s values
    interval_s: float
    total_duration: float

    def to_measurements(self) -> list[IntervalRow]:
        """The truth's interval rows, from the builder the engine's rows come from."""
        return interval_rows(
            interval_grid(self.interval_s, self.total_duration), self.interval_s,
            {(i, k): c for i, by in self.counts.items() for k, c in by.items()},
            {(i, k): v for i, by in self.speeds.items() for k, v in by.items()})


def _world_pos(agent: AgentSpec, frame: int, fps: float) -> tuple[float, float]:
    dt = (frame - agent.spawn_frame) / fps
    return agent.x0_m + agent.vx_mps * dt, agent.y0_m + agent.vy_mps * dt


def _segments_intersect(p1, p2, a, b) -> bool:
    """Closed-segment intersection by solving the parametric 2x2 system."""
    rx, ry = p2[0] - p1[0], p2[1] - p1[1]
    sx, sy = b[0] - a[0], b[1] - a[1]
    qx, qy = a[0] - p1[0], a[1] - p1[1]
    denom = rx * sy - ry * sx
    if denom == 0.0:
        if qx * ry - qy * rx != 0.0:
            return False
        rr = rx * rx + ry * ry
        if rr == 0.0:
            return (min(a[0], b[0]) <= p1[0] <= max(a[0], b[0])
                    and min(a[1], b[1]) <= p1[1] <= max(a[1], b[1]))
        t0 = (qx * rx + qy * ry) / rr
        t1 = t0 + (sx * rx + sy * ry) / rr
        return max(min(t0, t1), 0.0) <= min(max(t0, t1), 1.0)
    t = (qx * sy - qy * sx) / denom
    u = (qx * ry - qy * rx) / denom
    return 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0


def _embedding_means(n_agents: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    if n_agents <= dim:
        return np.eye(dim)[:n_agents]
    vecs = rng.normal(size=(n_agents, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def generate(
    spec: ScenarioSpec,
    loi: LineOfInterest,
    interval_s: float,
) -> tuple[list[tuple[int, list[Detection]]], GroundTruth]:
    """Produce the detection stream and its closed-form ground truth.

    loi is given in world coordinates (meters); counts honor its optional
    direction filter with the same sign convention the engine uses.
    """
    rng = np.random.default_rng(spec.seed)
    occluded = {(idx, f) for idx, first, last in spec.occlusions for f in range(first, last + 1)}
    means = (_embedding_means(len(spec.agents), spec.embedding_dim, rng)
             if spec.embedding_dim > 0 else None)

    entering: dict[int, list[int]] = {}
    for idx, agent in enumerate(spec.agents):
        entering.setdefault(agent.spawn_frame, []).append(idx)
    # the agents alive on the frame, by index, the order their draws are made
    # in: agents may be listed out of spawn order, so those entering merge in
    live: list[int] = []
    batches: list[tuple[int, list[Detection]]] = []
    for frame in range(1, spec.n_frames + 1):
        if frame in entering:
            live = sorted(live + entering[frame])
        dets: list[Detection] = []
        for idx in live:
            agent = spec.agents[idx]
            if (idx, frame) in occluded or (spec.miss_prob > 0 and rng.random() < spec.miss_prob):
                continue
            wx, wy = _world_pos(agent, frame, spec.fps)
            cx, cy = to_pixel(wx, wy, spec.calibration)
            if spec.noise_std_px > 0:
                offset = rng.normal(0.0, spec.noise_std_px, size=2)
                cx, cy = cx + offset[0], cy + offset[1]
            bbox = (cx - agent.box_w_px / 2.0, cy - agent.box_h_px / 2.0,
                    agent.box_w_px, agent.box_h_px)
            appearance = None
            if means is not None:
                vec = means[idx]
                if spec.embedding_noise_std > 0:
                    vec = vec + rng.normal(0.0, spec.embedding_noise_std, size=spec.embedding_dim)
                norm = np.linalg.norm(vec)
                appearance = vec / norm if norm else means[idx]
            dets.append(Detection(frame=frame, class_id=agent.class_id, bbox=bbox,
                                  confidence=1.0, appearance=appearance))
        batches.append((frame, dets))
        live = [idx for idx in live if spec.agents[idx].end_frame != frame]

    return batches, _ground_truth(spec, loi, interval_s)


def _ground_truth(spec: ScenarioSpec, loi: LineOfInterest,
                  interval_s: float) -> GroundTruth:
    n_frames = spec.n_frames
    starts, ends = (bounds.tolist() for bounds in interval_grid(interval_s, spec.duration_s))
    n_intervals = len(ends)
    dx, dy = loi.b[0] - loi.a[0], loi.b[1] - loi.a[1]
    trajectories: dict[int, list[tuple[int, float, float]]] = {}
    counts: dict[int, dict[int, int]] = {}
    speeds: dict[int, dict[int, list[float]]] = {}

    for idx, agent in enumerate(spec.agents):
        last = n_frames if agent.end_frame is None else min(agent.end_frame, n_frames)
        frames = range(agent.spawn_frame, last + 1)
        trajectories[idx] = traj = [(f, *_world_pos(agent, f, spec.fps)) for f in frames]
        # a crossing is the later frame of the first segment meeting the line in
        # the counted direction; the last interval takes it up to the scene's end
        crossing = next((f1 for (_, x0, y0), (f1, x1, y1) in zip(traj, traj[1:])
                         if _segments_intersect((x0, y0), (x1, y1), loi.a, loi.b)
                         and (loi.direction is None
                              or (dx * (y1 - y0) - dy * (x1 - x0)) * loi.direction > 0)), None)
        if crossing is not None and crossing / spec.fps <= spec.duration_s and n_intervals:
            i = min(int(crossing / spec.fps / interval_s), n_intervals - 1)
            by_class = counts.setdefault(i, {})
            by_class[agent.class_id] = by_class.get(agent.class_id, 0) + 1

        # the grid's intervals are disjoint and ascending, so a frame can only be
        # held by the first one ending after its time: [start, end), the last
        # closed at its end
        held: Counter[int] = Counter()
        for f in frames if n_intervals else ():
            t = f / spec.fps
            i = min(bisect_right(ends, t), n_intervals - 1)
            if starts[i] <= t < ends[i] or (i == n_intervals - 1 and t == ends[i]):
                held[i] += 1
        for i, n in held.items():
            if n >= 2:
                speeds.setdefault(i, {}).setdefault(agent.class_id, []).append(agent.speed_mps)

    return GroundTruth(trajectories=trajectories, counts=counts, speeds=speeds,
                       interval_s=interval_s, total_duration=spec.duration_s)


# ---------------------------------------------------------------------------
# scenario files


OCCLUSION_KEYS = ("agent", "first_frame", "last_frame")
# the sections and keys a scenario file may hold; "agent." and "occlusion."
# stand for every section named with that prefix
SCENARIO_KEYS = {
    "scenario": {f.name for f in fields(ScenarioSpec)} - {"agents", "calibration", "occlusions"},
    "agent.": {f.name for f in fields(AgentSpec)} - {"class_id"} | {"class"},
    "occlusion.": set(OCCLUSION_KEYS),
    "calibration": RUN_CONFIG_KEYS["calibration"],
    "loi": RUN_CONFIG_KEYS["loi"],
    "measure": {"interval_s"},
}


def parse_scenario(text: str, path: str = "<scenario>"):
    """Read a scenario file into (ScenarioSpec, LineOfInterest, interval_s).

    [calibration] and [measure] interval_s default as in DEFAULT_CONFIG; the
    [loi] endpoints, in pixels as in a run config, are required.
    """
    ini = read_ini(text, path, SCENARIO_KEYS, {s: DEFAULTS[s] for s in ("calibration", "measure")})
    with prefixed(f"{path}:"):
        calibration = read_calibration(ini)
        agents = [read_section(ini, s, AgentSpec, class_id=ini_value(ini, s, "class", int))
                  for s in ini.sections() if s.startswith("agent.")]
        occlusions = [tuple(ini_value(ini, s, k, int) for k in OCCLUSION_KEYS)
                      for s in ini.sections() if s.startswith("occlusion.")]
        spec = read_section(ini, "scenario", ScenarioSpec, agents=agents,
                            calibration=calibration, occlusions=occlusions)
        interval_s = ini_value(ini, "measure", "interval_s")
        with prefixed("[measure]"):
            interval_count(interval_s, spec.duration_s)
        return spec, read_loi(ini, calibration), interval_s
