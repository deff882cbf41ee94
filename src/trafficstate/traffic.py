"""Flow and speed measurement from calibrated trajectories.

`assemble_trajectories` turns the tracker's per-frame `LiveTracks` records
into world-coordinate trajectories: all box centres go through the
calibration in one call on arrays, then a stable sort groups them by track.
A user-defined Line of Interest is intersected with each trajectory to
produce per-interval, per-class crossing counts and flows, and
per-interval speeds are path length over elapsed time.
`measure_intervals` does both in one sweep over each trajectory's points.

Time is frame / fps, on the grid of `interval_grid`. The two rules that
place a time in an interval differ:

- a crossing at time t goes to interval min(int(t / interval_s), n - 1),
  and only when t <= total_duration;
- a point at time t belongs to the interval with start <= t < end; the
  last interval also takes a point at exactly its end.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .calib import CalibrationParams, to_world
from .errors import ParseError, ValidationError, positive
from .tracker import LiveTracks

MPS_TO_KMH = 3.6
SECONDS_PER_HOUR = 3600.0
# intervals on one grid: each gets a measurement before any is known to hold
# data, so a long duration over short intervals is refused, not allocated
MAX_INTERVALS = 10**6


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
        if not all(map(math.isfinite, (*self.a, *self.b))):
            raise ValidationError(f"line of interest endpoints {self.a}, {self.b} must be finite")
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


def assemble_trajectories(
    frames: Sequence[LiveTracks], calib: CalibrationParams
) -> list[Trajectory]:
    """Group the live tracks of frame-ordered records into world trajectories.

    Each track contributes its box centre on each frame, mapped through the
    calibration; a track's class is its label on its last frame.
    Trajectories come in id order.
    """
    if not frames:
        return []
    ids = np.concatenate([f.ids for f in frames])
    boxes = np.concatenate([f.boxes for f in frames])
    labels = np.concatenate([f.class_ids for f in frames])
    frame_of = np.repeat([f.frame for f in frames], [len(f.ids) for f in frames])
    wx, wy = to_world(boxes[:, 0] + boxes[:, 2] / 2.0,
                      boxes[:, 1] + boxes[:, 3] / 2.0, calib)

    order = np.argsort(ids, kind="stable")   # keeps each track's points in frame order
    ids = ids[order]
    starts = np.flatnonzero(np.diff(ids, prepend=-1)).tolist()
    ends = starts[1:] + [len(ids)]
    points = list(zip(frame_of[order].tolist(), wx[order].tolist(), wy[order].tolist()))
    labels = labels[order].tolist()
    return [Trajectory(track_id=int(ids[a]), class_id=labels[b - 1], points=points[a:b])
            for a, b in zip(starts, ends)]


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


def interval_count(interval_s: float, total_duration: float) -> int:
    """Number of intervals on the grid of total_duration, at most MAX_INTERVALS."""
    if not (positive(interval_s) and 0 <= total_duration < math.inf):
        raise ValidationError(f"interval_s must be finite and > 0 and total duration finite "
                              f"and >= 0, got {interval_s} and {total_duration}")
    n = total_duration / interval_s - 1e-12
    if n > MAX_INTERVALS:
        raise ValidationError(
            f"interval_s = {interval_s} over a total duration of {total_duration} s "
            f"gives more than {MAX_INTERVALS} intervals")
    return max(0, math.ceil(n))


def interval_grid(interval_s: float, total_duration: float) -> list[tuple[float, float]]:
    """[start, end) boundaries; the last interval may be partial and is
    closed at total_duration."""
    n = interval_count(interval_s, total_duration)
    return [
        (i * interval_s, min((i + 1) * interval_s, total_duration)) for i in range(n)
    ]


def measure_intervals(
    trajectories: Sequence[Trajectory],
    loi: LineOfInterest,
    interval_s: float,
    fps: float,
    total_duration: float,
) -> list[IntervalMeasurement]:
    """Per-interval classified counts, flows (vehicles/hour) and speeds (m/s).

    One sweep over each trajectory's points, in the given (track-id) order;
    points must be in non-decreasing frame order, as assemble_trajectories
    yields them. A point's time is frame / fps.

    Crossings: a track counts once, at the later frame of its first segment
    that crosses the line and passes the direction filter. A crossing at
    time t goes to interval min(int(t / interval_s), n - 1), and only when
    t <= total_duration.

    Speeds: a point belongs to the interval with start <= t < end; the last
    interval also takes a point at exactly its end. Each interval holding
    two or more of a track's points gets one speed: the path length through
    those points over the seconds between the first and the last.
    """
    if not positive(fps):
        raise ValidationError(f"fps must be finite and > 0, got {fps}")
    grid = interval_grid(interval_s, total_duration)
    measurements = [
        IntervalMeasurement(index=i, start=s, end=e) for i, (s, e) in enumerate(grid)
    ]
    starts = [s for s, _ in grid]
    last = len(grid) - 1

    def interval_of(t: float) -> Optional[int]:
        i = bisect_right(starts, t) - 1
        if i < 0:
            return None
        end = grid[i][1]
        return i if t < end or (i == last and t == end) else None

    for traj in trajectories:
        k = traj.class_id
        crossed = False
        prev = None
        # the open run of consecutive points inside interval `run`
        run = first = last_frame = None
        path = 0.0
        for f, x, y in traj.points:
            p, t = (x, y), f / fps
            if prev is not None and not crossed and segment_crosses(prev, p, loi) \
                    and (loi.direction is None
                         or crossing_sign(prev, p, loi) == loi.direction):
                crossed = True
                if grid and t <= total_duration:
                    counts = measurements[min(int(t / interval_s), last)].counts
                    counts[k] = counts.get(k, 0) + 1
            i = interval_of(t)
            if i is not None and i == run:
                path += math.hypot(x - prev[0], y - prev[1])
                last_frame = f
            else:
                if last_frame is not None:
                    measurements[run].speeds.setdefault(k, []).append(
                        path / ((last_frame - first) / fps))
                run, first, last_frame, path = i, f, None, 0.0
            prev = p
        if last_frame is not None:
            measurements[run].speeds.setdefault(k, []).append(
                path / ((last_frame - first) / fps))
    for m in measurements:
        for k, c in m.counts.items():
            m.flows[k] = c * SECONDS_PER_HOUR / interval_s
    return measurements


INTERVALS_HEADER = "interval\tt_start_s\tt_end_s\tclass\tcount\tflow_vph\tmean_speed_kmh\tn_speed_tracks"


def write_intervals(out: IO[str], measurements: Sequence[IntervalMeasurement]) -> None:
    """Tab-delimited interval rows, one per (interval, class) with activity."""
    out.write(INTERVALS_HEADER + "\n")
    for m in measurements:
        classes = sorted(set(m.counts) | set(m.speeds))
        for k in classes:
            count = m.counts.get(k, 0)
            vals = m.speeds.get(k, [])
            if count == 0 and not vals:
                continue
            flow = m.flows.get(k, 0.0)
            cols = [
                str(m.index), f"{m.start:.6g}", f"{m.end:.6g}", str(k),
                str(count), f"{flow:.6g}",
                f"{(sum(vals) / len(vals)) * MPS_TO_KMH:.6g}" if vals else "nan",
                str(len(vals)),
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
    """Rows of an intervals file; mean_speed_kmh is nan exactly when n_speed_tracks is 0."""
    rows = []
    seen = set()
    for line_no, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("interval\t") or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 8:
            raise ParseError(f"expected 8 tab-separated columns, got {len(parts)}",
                             line_no, path)
        try:
            row = IntervalRow(
                interval=int(parts[0]), start=float(parts[1]), end=float(parts[2]),
                class_id=int(parts[3]), count=int(parts[4]), flow_vph=float(parts[5]),
                mean_speed_kmh=float(parts[6]), n_speed_tracks=int(parts[7]),
            )
        except ValueError as exc:
            raise ParseError(f"unparseable field ({exc})", line_no, path) from None
        if not all(map(math.isfinite, (row.start, row.end, row.flow_vph))):
            raise ParseError("t_start_s, t_end_s and flow_vph must be finite", line_no, path)
        if math.isinf(row.mean_speed_kmh):
            raise ParseError("mean_speed_kmh must be finite or nan", line_no, path)
        if min(row.interval, row.class_id, row.count, row.n_speed_tracks) < 0:
            raise ParseError("interval, class, count and n_speed_tracks must be >= 0",
                             line_no, path)
        if math.isnan(row.mean_speed_kmh) != (row.n_speed_tracks == 0):
            raise ParseError("mean_speed_kmh must be nan exactly when n_speed_tracks is 0",
                             line_no, path)
        if (row.interval, row.class_id) in seen:
            raise ParseError(f"duplicate row for interval {row.interval}, class {row.class_id}",
                             line_no, path)
        seen.add((row.interval, row.class_id))
        rows.append(row)
    return rows
