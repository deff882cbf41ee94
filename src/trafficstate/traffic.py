"""Flow and speed measurement from calibrated trajectories.

Tracks become world-coordinate trajectories; a user-defined Line of
Interest is intersected with each trajectory to produce per-interval,
per-class crossing counts and flows, and per-interval speeds are path
length over elapsed time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional, Sequence

from .calib import CalibrationParams, to_world
from .errors import ParseError, ValidationError
from .tracker import TrackSnapshot

MPS_TO_KMH = 3.6
SECONDS_PER_HOUR = 3600.0


@dataclass
class Trajectory:
    """World-coordinate path of one track: (frame, x_m, y_m) points."""

    track_id: int
    class_id: int
    points: list[tuple[int, float, float]]


@dataclass(frozen=True)
class LineOfInterest:
    """Counting segment in world coordinates, optional crossing direction.

    direction, when set to +1 or -1, keeps only crossings whose signed
    area test against the segment matches that sign.
    """

    a: tuple[float, float]
    b: tuple[float, float]
    direction: Optional[int] = None

    def __post_init__(self):
        if self.a == self.b:
            raise ValidationError("line of interest endpoints must differ")
        if self.direction not in (None, 1, -1):
            raise ValidationError(f"direction must be +1, -1 or unset, got {self.direction}")


def loi_to_world(loi_px, direction, calib: CalibrationParams) -> LineOfInterest:
    """Map pixel LoI endpoints into the world frame used for counting."""
    (ax, ay), (bx, by) = loi_px
    return LineOfInterest(a=to_world(ax, ay, calib), b=to_world(bx, by, calib),
                          direction=direction)


@dataclass
class IntervalMeasurement:
    """Counts, flows and speeds for one time interval."""

    index: int
    start: float
    end: float
    counts: dict[int, int] = field(default_factory=dict)
    flows: dict[int, float] = field(default_factory=dict)          # vehicles/hour
    speeds: dict[int, list[float]] = field(default_factory=dict)   # m/s per track
    mean_speed_kmh: dict[int, float] = field(default_factory=dict)


def assemble_trajectories(
    snapshots: Iterable[TrackSnapshot], calib: CalibrationParams
) -> list[Trajectory]:
    """Group a frame-ordered snapshot stream into world trajectories.

    Each snapshot contributes its centroid mapped through the calibration;
    a track's class is its final (most-voted) label.
    """
    by_id: dict[int, Trajectory] = {}
    for snap in snapshots:
        wx, wy = to_world(snap.centroid[0], snap.centroid[1], calib)
        traj = by_id.get(snap.track_id)
        if traj is None:
            by_id[snap.track_id] = Trajectory(
                track_id=snap.track_id, class_id=snap.class_id,
                points=[(snap.frame, wx, wy)],
            )
        else:
            traj.points.append((snap.frame, wx, wy))
            traj.class_id = snap.class_id
    return [by_id[tid] for tid in sorted(by_id)]


def _orient(p, q, r) -> float:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _on_segment(p, q, r) -> bool:
    return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))


def segment_crosses(p1, p2, loi: LineOfInterest) -> bool:
    """Closed-segment intersection test; collinear overlap counts."""
    a, b = loi.a, loi.b
    o1 = _orient(p1, p2, a)
    o2 = _orient(p1, p2, b)
    o3 = _orient(a, b, p1)
    o4 = _orient(a, b, p2)
    if ((o1 > 0 and o2 < 0) or (o1 < 0 and o2 > 0)) \
            and ((o3 > 0 and o4 < 0) or (o3 < 0 and o4 > 0)):
        return True
    if o1 == 0 and _on_segment(p1, p2, a):
        return True
    if o2 == 0 and _on_segment(p1, p2, b):
        return True
    if o3 == 0 and _on_segment(a, b, p1):
        return True
    if o4 == 0 and _on_segment(a, b, p2):
        return True
    return False


def crossing_sign(p1, p2, loi: LineOfInterest) -> int:
    """Sign of the motion direction relative to the segment (0 if parallel)."""
    cross = (loi.b[0] - loi.a[0]) * (p2[1] - p1[1]) \
        - (loi.b[1] - loi.a[1]) * (p2[0] - p1[0])
    return (cross > 0) - (cross < 0)


def interval_grid(interval_s: float, total_duration: float) -> list[tuple[float, float]]:
    """[start, end) boundaries; the last interval may be partial and is
    closed at total_duration."""
    if interval_s <= 0:
        raise ValidationError(f"interval length must be positive, got {interval_s}")
    if total_duration < 0:
        raise ValidationError("total duration must be non-negative")
    n = max(0, math.ceil(total_duration / interval_s - 1e-12))
    return [
        (i * interval_s, min((i + 1) * interval_s, total_duration)) for i in range(n)
    ]


def _interval_index(t: float, interval_s: float, n_intervals: int,
                    total_duration: float) -> Optional[int]:
    if t > total_duration or n_intervals == 0:
        return None
    return min(int(t / interval_s), n_intervals - 1)


def first_crossing(traj: Trajectory, loi: LineOfInterest) -> Optional[int]:
    """Frame index ending the first segment of the trajectory that crosses
    the line, honoring the direction filter; None if it never crosses."""
    pts = traj.points
    for (f0, x0, y0), (f1, x1, y1) in zip(pts, pts[1:]):
        if segment_crosses((x0, y0), (x1, y1), loi):
            if loi.direction is not None \
                    and crossing_sign((x0, y0), (x1, y1), loi) != loi.direction:
                continue
            return f1
    return None


def count_and_flow(
    trajectories: Sequence[Trajectory],
    loi: LineOfInterest,
    interval_s: float,
    fps: float,
    total_duration: float,
) -> list[IntervalMeasurement]:
    """Per-interval classified crossing counts and flows (vehicles/hour).

    Each track contributes at most one crossing, attributed to the
    interval containing the later frame of its first crossing segment.
    """
    if fps <= 0:
        raise ValidationError(f"fps must be positive, got {fps}")
    grid = interval_grid(interval_s, total_duration)
    measurements = [
        IntervalMeasurement(index=i, start=s, end=e) for i, (s, e) in enumerate(grid)
    ]
    for traj in trajectories:
        frame = first_crossing(traj, loi)
        if frame is None:
            continue
        idx = _interval_index(frame / fps, interval_s, len(grid), total_duration)
        if idx is None:
            continue
        counts = measurements[idx].counts
        counts[traj.class_id] = counts.get(traj.class_id, 0) + 1
    for m in measurements:
        for k, c in m.counts.items():
            m.flows[k] = c * SECONDS_PER_HOUR / interval_s
    return measurements


def interval_speed(
    traj: Trajectory,
    start: float,
    end: float,
    fps: float,
    closed_end: bool = False,
) -> Optional[float]:
    """Path length over elapsed seconds for the trajectory's points inside
    [start, end); None with fewer than two points inside."""
    if fps <= 0:
        raise ValidationError(f"fps must be positive, got {fps}")
    inside = [
        (f, x, y) for f, x, y in traj.points
        if start <= f / fps < end or (closed_end and f / fps == end)
    ]
    if len(inside) < 2:
        return None
    path = 0.0
    for (f0, x0, y0), (f1, x1, y1) in zip(inside, inside[1:]):
        path += math.hypot(x1 - x0, y1 - y0)
    elapsed = (inside[-1][0] - inside[0][0]) / fps
    return path / elapsed


def collect_speeds(
    measurements: list[IntervalMeasurement],
    trajectories: Sequence[Trajectory],
    fps: float,
) -> None:
    """Fill per-interval per-class speed lists (m/s), in track-id order."""
    last = len(measurements) - 1
    for m_idx, m in enumerate(measurements):
        for traj in trajectories:
            v = interval_speed(traj, m.start, m.end, fps, closed_end=(m_idx == last))
            if v is None:
                continue
            m.speeds.setdefault(traj.class_id, []).append(v)


def aggregate(measurements: list[IntervalMeasurement]) -> list[IntervalMeasurement]:
    """Compute per-class mean speeds in km/h; classes without speeds stay absent."""
    for m in measurements:
        for k, vals in m.speeds.items():
            if vals:
                m.mean_speed_kmh[k] = (sum(vals) / len(vals)) * MPS_TO_KMH
    return measurements


def measure_intervals(
    trajectories: Sequence[Trajectory],
    loi: LineOfInterest,
    interval_s: float,
    fps: float,
    total_duration: float,
) -> list[IntervalMeasurement]:
    """Counts, flows, and speeds in one pass over assembled trajectories."""
    measurements = count_and_flow(trajectories, loi, interval_s, fps, total_duration)
    collect_speeds(measurements, trajectories, fps)
    return aggregate(measurements)


INTERVALS_HEADER = "interval\tt_start_s\tt_end_s\tclass\tcount\tflow_vph\tmean_speed_kmh\tn_speed_tracks"


def write_intervals(out: IO[str], measurements: Sequence[IntervalMeasurement]) -> None:
    """Tab-delimited interval rows, one per (interval, class) with activity."""
    out.write(INTERVALS_HEADER + "\n")
    for m in measurements:
        classes = sorted(set(m.counts) | set(m.speeds))
        for k in classes:
            count = m.counts.get(k, 0)
            n_speeds = len(m.speeds.get(k, []))
            if count == 0 and n_speeds == 0:
                continue
            flow = m.flows.get(k, 0.0)
            mean = m.mean_speed_kmh.get(k)
            cols = [
                str(m.index), f"{m.start:.6g}", f"{m.end:.6g}", str(k),
                str(count), f"{flow:.6g}",
                f"{mean:.6g}" if mean is not None else "nan",
                str(n_speeds),
            ]
            out.write("\t".join(cols) + "\n")


@dataclass
class IntervalRow:
    """One parsed row of an intervals file."""

    interval: int
    start: float
    end: float
    class_id: int
    count: int
    flow_vph: float
    mean_speed_kmh: float  # nan when absent
    n_speed_tracks: int


def parse_intervals(source: IO[str] | Iterable[str], path=None) -> list[IntervalRow]:
    rows = []
    for line_no, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("interval\t") or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 8:
            raise ParseError(f"expected 8 tab-separated columns, got {len(parts)}",
                             line_no, path)
        try:
            rows.append(IntervalRow(
                interval=int(parts[0]), start=float(parts[1]), end=float(parts[2]),
                class_id=int(parts[3]), count=int(parts[4]), flow_vph=float(parts[5]),
                mean_speed_kmh=float(parts[6]), n_speed_tracks=int(parts[7]),
            ))
        except ValueError as exc:
            raise ParseError(f"unparseable field ({exc})", line_no, path) from None
    return rows
