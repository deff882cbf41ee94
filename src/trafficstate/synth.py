"""Synthetic traffic scenarios with exact ground truth.

Agents move at constant world velocity; their boxes are projected into
pixel space through the inverse calibration, optionally corrupted with
Gaussian centroid noise, dropped frames, and occlusion windows. Each
agent's path is sampled once, in arrays; the detections and the ground
truth (trajectories, per-interval classified crossing counts, speeds) both
read it, never the tracking engine, so the truth is an independent oracle.
A frame visits only its live agents, so the cost grows with the
detections: an hour at 25 fps (90k frames) builds in about 12 s of CPU on
a 2-vCPU VM, its truth in under 1 s.

For exact engine-vs-truth comparisons keep agents alive through the whole
run: a track whose agent disappears coasts for up to max_age frames on
predicted positions, which the model truth knows nothing about.

`parse_scenario` reads a scenario file ([scenario], [agent.*], [occlusion.*],
and [calibration], [loi] and [measure] read as in a run config) with the INI
reader of `config`; an absent key keeps its field's default, if it has one.
"""

from __future__ import annotations

import math
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
    """Model truth: each agent's sampled path, per-interval counts and speeds."""

    trajectories: list[np.ndarray]                # (frame, x, y) arrays, as Trajectory.points
    counts: dict[tuple[int, int], int]            # (interval, class) -> crossings
    speeds: dict[tuple[int, int], list[float]]    # (interval, class) -> m/s, in agent order
    interval_s: float
    total_duration: float

    def to_measurements(self) -> list[IntervalRow]:
        """The truth's interval rows, from the builder the engine's rows come from."""
        return interval_rows(interval_grid(self.interval_s, self.total_duration),
                             self.interval_s, self.counts, self.speeds)


def _path(agent: AgentSpec, spec: ScenarioSpec) -> np.ndarray:
    """The agent's frames, spawn_frame to min(end_frame, n_frames), with
    world x, y = x0 + v * (frame - spawn_frame) / fps: the one place motion is written."""
    last = spec.n_frames if agent.end_frame is None else min(agent.end_frame, spec.n_frames)
    first = min(agent.spawn_frame, last + 1)   # none from a spawn past the end, or past int64
    path = np.empty(last + 1 - first, [("frame", "i8"), ("x", "f8"), ("y", "f8")])
    path["frame"] = np.arange(first, last + 1)
    dt = (path["frame"] - first) / spec.fps
    with np.errstate(over="ignore"):
        path["x"], path["y"] = agent.x0_m + agent.vx_mps * dt, agent.y0_m + agent.vy_mps * dt
    return path


def _pixel_centres(idx: int, agent: AgentSpec, path: np.ndarray, calib: CalibrationParams):
    """The path's pixel box centres, one (u, v) row a frame. A speed, world
    position, centre or box corner that is not finite raises a
    ValidationError naming the agent and the keys behind it."""
    if not math.isfinite(agent.speed_mps * 3.6):
        raise ValidationError(f"agent {idx}: speed {agent.speed_mps * 3.6:g} km/h is not "
                              "finite (vx_mps, vy_mps)")
    with np.errstate(over="ignore", invalid="ignore"):
        u, v = to_pixel(path["x"], path["y"], calib)
        left, top = u - agent.box_w_px / 2.0, v - agent.box_h_px / 2.0
    for what, a, b, why in (
            ("world position", path["x"], path["y"], "x0_m, y0_m, vx_mps, vy_mps and "
                                                     "[scenario] fps"),
            ("pixel centre", u, v, "[calibration] maps the world position out of float range"),
            ("box corner", left, top, "the pixel centre less half of box_w_px, box_h_px")):
        bad = np.flatnonzero(~(np.isfinite(a) & np.isfinite(b)))[:1].tolist()
        if bad:
            raise ValidationError(f"agent {idx}, frame {path['frame'][bad[0]]}: {what} "
                                  f"({a[bad[0]]:g}, {b[bad[0]]:g}) is not finite ({why})")
    return np.column_stack((u, v))


def _meets(x: np.ndarray, y: np.ndarray, a, b) -> np.ndarray:
    """Whether each segment (x[j], y[j]) -> (x[j + 1], y[j + 1]) meets the
    closed segment a -> b, by solving the parametric 2x2 system elementwise.
    The overlap test orders t0 and t1 as Python's min and max do (t0 unless
    t1 is strictly beyond it), so an overflow's nan compares as in floats."""
    sx, sy = b[0] - a[0], b[1] - a[1]
    with np.errstate(all="ignore"):   # floats overflow to inf and nan without a word
        rx, ry, qx, qy = x[1:] - x[:-1], y[1:] - y[:-1], a[0] - x[:-1], a[1] - y[:-1]
        denom, side = rx * sy - ry * sx, qx * ry - qy * rx
        t, u = (qx * sy - qy * sx) / denom, side / denom
        crossing = (denom != 0.0) & (0.0 <= t) & (t <= 1.0) & (0.0 <= u) & (u <= 1.0)
        # parallel and on the line (side 0): a still point must lie in the
        # segment's box, a moving one overlap it in the parameter
        rr = rx * rx + ry * ry
        t0 = (qx * rx + qy * ry) / rr
        t1 = t0 + (sx * rx + sy * ry) / rr
        lo, hi = np.where(t1 < t0, t1, t0), np.where(t1 > t0, t1, t0)
        overlap = np.maximum(lo, 0.0) <= np.minimum(hi, 1.0)
    inside = ((min(a[0], b[0]) <= x[:-1]) & (x[:-1] <= max(a[0], b[0]))
              & (min(a[1], b[1]) <= y[:-1]) & (y[:-1] <= max(a[1], b[1])))
    return crossing | ((denom == 0.0) & (side == 0.0) & np.where(rr == 0.0, inside, overlap))


def _embedding_means(n_agents: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    if n_agents <= dim:
        return np.eye(dim)[:n_agents]
    vecs = rng.normal(size=(n_agents, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def generate(spec: ScenarioSpec, loi: LineOfInterest,
             interval_s: float) -> tuple[list[tuple[int, list[Detection]]], GroundTruth]:
    """Produce the detection stream and its closed-form ground truth.

    loi is given in world coordinates (meters); counts honor its optional
    direction filter with the same sign convention the engine uses.
    """
    paths = [_path(agent, spec) for agent in spec.agents]
    centres = [_pixel_centres(idx, agent, path, spec.calibration)
               for idx, (agent, path) in enumerate(zip(spec.agents, paths))]
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
            cx, cy = centres[idx][frame - agent.spawn_frame].tolist()
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

    return batches, _ground_truth(spec, loi, interval_s, paths)


def _ground_truth(spec: ScenarioSpec, loi: LineOfInterest, interval_s: float,
                  paths: list[np.ndarray]) -> GroundTruth:
    starts, ends = interval_grid(interval_s, spec.duration_s)
    last = len(ends) - 1
    counts: dict[tuple[int, int], int] = {}
    speeds: dict[tuple[int, int], list[float]] = {}
    for agent, path in zip(spec.agents, paths) if len(ends) else ():
        frames, x, y = path["frame"], path["x"], path["y"]
        # a crossing is the later frame of the first segment meeting the line in
        # the counted direction; the last interval takes it up to the scene's end
        hit = _meets(x, y, loi.a, loi.b)
        if loi.direction is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                hit &= ((loi.b[0] - loi.a[0]) * (y[1:] - y[:-1])
                        - (loi.b[1] - loi.a[1]) * (x[1:] - x[:-1])) * loi.direction > 0
        crossed = frames[1:][hit][:1] / spec.fps
        if len(crossed) and crossed[0] <= spec.duration_s:
            key = (min(int(crossed[0] / interval_s), last), agent.class_id)
            counts[key] = counts.get(key, 0) + 1

        # the grid's intervals are disjoint and ascending, so a frame can only be
        # held by the first one ending after its time: [start, end), the last
        # closed at its end
        t = frames / spec.fps
        at = np.minimum(np.searchsorted(ends, t, side="right"), last)
        held, n = np.unique(at[((starts[at] <= t) & (t < ends[at]))
                               | ((at == last) & (t == ends[at]))], return_counts=True)
        for i in held[n >= 2].tolist():
            speeds.setdefault((i, agent.class_id), []).append(agent.speed_mps)
    return GroundTruth(trajectories=paths, counts=counts, speeds=speeds,
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
