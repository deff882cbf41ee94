"""Flow and speed measurement from calibrated trajectories.

`assemble_trajectories` turns the tracker's per-frame `LiveTracks` records
into world-coordinate trajectories: all box centres go through the
calibration in one call on arrays, then a stable sort groups them by track
into slices of one structured array. `measure_intervals` tests every
segment between a track's consecutive points against a user-defined Line
of Interest in one elementwise pass, for per-interval, per-class crossing
counts; per-interval speeds are path length over elapsed time. Both go
to `interval_rows`, the one builder of `IntervalRow`s (`synth`'s truth
goes there too): a row per (interval, class) with a crossing or a speed,
which `write_intervals` formats and `parse_intervals` reads back.

Time is frame / fps, on the grid of `interval_grid`. The two rules that
place a time in an interval differ:

- a crossing at time t goes to interval min(int(t / interval_s), n - 1),
  and only when 0 <= t <= total_duration;
- a point at time t belongs to the interval with start <= t < end; the
  last interval also takes a point at exactly its end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .calib import CalibrationParams, to_world
from .errors import ContractError, ParseError, ValidationError, positive

if TYPE_CHECKING:   # an annotation only: `stats` need not load the tracker
    from .tracker import LiveTracks

# intervals on one grid: its bounds are two arrays of one float an interval
# (16 MB at the cap), so a long duration over short intervals is refused
MAX_INTERVALS = 10**6


@dataclass
class Trajectory:
    """World-coordinate path of one track: a structured array of points
    with fields frame (integer), x and y (metres), one row per point."""

    track_id: int
    class_id: int
    points: np.ndarray


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
class IntervalRow:
    """Flow and speed of one class in one interval: one line of an intervals file."""

    interval: int
    start: float
    end: float
    class_id: int
    count: int
    flow_vph: float
    mean_speed_kmh: float  # nan when absent
    n_speed_tracks: int


def assemble_trajectories(
    frames: Sequence[LiveTracks], calib: CalibrationParams
) -> list[Trajectory]:
    """Group the live tracks of frame-ordered records into world trajectories.

    Each track contributes its box centre on each frame, mapped through the
    calibration; a track's class is its label on its last frame.
    Trajectories come in id order, each holding a view of one array. A
    world point that is not finite raises a ValidationError naming the
    first track and frame that has one.
    """
    if not frames:
        return []
    ids = np.concatenate([f.ids for f in frames])
    boxes = np.concatenate([f.boxes for f in frames])
    labels = np.concatenate([f.class_ids for f in frames])
    # frames have no upper bound: int64 unless one does not fit, never a float
    numbers = [f.frame for f in frames]
    frame_of = np.repeat(np.array(numbers, dtype=np.int64 if max(numbers) < 2**63 else object),
                         [len(f.ids) for f in frames])
    with np.errstate(over="ignore", invalid="ignore"):
        wx, wy = to_world(boxes[:, 0] + boxes[:, 2] / 2.0,
                          boxes[:, 1] + boxes[:, 3] / 2.0, calib)
    bad = np.flatnonzero(~(np.isfinite(wx) & np.isfinite(wy)))
    if len(bad):
        j = bad[0]
        raise ValidationError(f"track {ids[j]}, frame {frame_of[j]}: world point "
                              f"({wx[j]:g}, {wy[j]:g}) is not finite ([calibration] maps "
                              "the box centre out of float range)")

    order = np.argsort(ids, kind="stable")   # keeps each track's points in frame order
    ids = ids[order]
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    ends = np.append(starts, len(ids))[1:]
    points = np.empty(len(ids), [("frame", frame_of.dtype), ("x", "f8"), ("y", "f8")])
    points["frame"], points["x"], points["y"] = frame_of[order], wx[order], wy[order]
    return [Trajectory(track_id=i, class_id=k, points=points[a:b])
            for i, k, a, b in zip(ids[starts].tolist(), labels[order[ends - 1]].tolist(),
                                  starts.tolist(), ends.tolist())]


def _between(u, v, r):
    """min(u, v) <= r <= max(u, v), elementwise."""
    return (np.minimum(u, v) <= r) & (r <= np.maximum(u, v))


def _crossings(x: np.ndarray, y: np.ndarray, loi: LineOfInterest) -> np.ndarray:
    """Whether each segment (x[j], y[j]) -> (x[j + 1], y[j + 1]) meets the
    closed LoI (collinear overlap counts) and passes its direction filter.
    Orientations are compared by sign: a product of two tiny ones is 0."""
    (ax, ay), (bx, by) = loi.a, loi.b
    px, py, qx, qy = x[:-1], y[:-1], x[1:], y[1:]
    dx, dy, ex, ey = qx - px, qy - py, bx - ax, by - ay
    o1 = dx * (ay - py) - dy * (ax - px)     # a against p -> q
    o2 = dx * (by - py) - dy * (bx - px)     # b against p -> q
    o3 = ex * (py - ay) - ey * (px - ax)     # p against a -> b
    o4 = ex * (qy - ay) - ey * (qx - ax)     # q against a -> b
    hit = (np.sign(o1) * np.sign(o2) < 0) & (np.sign(o3) * np.sign(o4) < 0)
    hit |= (o1 == 0) & _between(px, qx, ax) & _between(py, qy, ay)
    hit |= (o2 == 0) & _between(px, qx, bx) & _between(py, qy, by)
    hit |= (o3 == 0) & _between(ax, bx, px) & _between(ay, by, py)
    hit |= (o4 == 0) & _between(ax, bx, qx) & _between(ay, by, qy)
    if loi.direction is not None:
        hit &= np.sign(ex * dy - ey * dx) == loi.direction
    return hit


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


def interval_grid(interval_s: float, total_duration: float) -> tuple[np.ndarray, np.ndarray]:
    """The starts and ends of the grid's [start, end) intervals: interval i
    spans i * interval_s to min((i + 1) * interval_s, total_duration), so the
    last one may be partial; it is closed at total_duration."""
    edges = np.arange(interval_count(interval_s, total_duration) + 1) * interval_s
    return edges[:-1], np.minimum(edges[1:], total_duration)


def interval_rows(grid: tuple[np.ndarray, np.ndarray], interval_s: float,
                  counts: dict[tuple[int, int], int],
                  speeds: dict[tuple[int, int], list[float]]) -> list[IntervalRow]:
    """One row per (interval, class) key of counts (crossings) or speeds
    (per-track m/s), in (interval, class) order, on interval_grid's grid.

    The flow is count * 3600 / interval_s vehicles/hour, the mean speed the
    km/h mean of the speeds summed in their order, nan without one. A flow or
    mean that is not finite, which parse_intervals would refuse, raises
    ValidationError."""
    starts, ends = grid
    rows = []
    for i, k in sorted(counts.keys() | speeds.keys()):
        count, vals = counts.get((i, k), 0), speeds.get((i, k), [])
        flow = count * 3600.0 / interval_s
        speed = (sum(vals) / len(vals)) * 3.6 if vals else math.nan
        if math.isinf(flow):
            raise ValidationError(f"interval {i}, class {k}: flow_vph is not finite "
                                  "(count * 3600 / [measure] interval_s)")
        if vals and not math.isfinite(speed):
            raise ValidationError(f"interval {i}, class {k}: mean_speed_kmh is not "
                                  "finite (path length through [calibration] over "
                                  "frames / [measure] fps)")
        rows.append(IntervalRow(i, float(starts[i]), float(ends[i]), k, count, flow, speed,
                                len(vals)))
    return rows


def measure_intervals(
    trajectories: Sequence[Trajectory],
    loi: LineOfInterest,
    interval_s: float,
    fps: float,
    total_duration: float,
) -> list[IntervalRow]:
    """interval_rows of the classified crossings and speeds: one row per
    (interval, class) with either, none for an interval without.

    Frames must strictly increase within each trajectory, as
    assemble_trajectories yields them; a ContractError names the first
    track where they do not. A point's time is frame / fps.

    Crossings: a track counts once, at the later frame of its first segment
    that crosses the line and passes the direction filter. A crossing at
    time t goes to interval min(int(t / interval_s), n - 1), and only when
    0 <= t <= total_duration.

    Speeds: a point belongs to the interval with start <= t < end; the last
    interval also takes a point at exactly its end. Each interval holding
    two or more of a track's points gets one speed: the path length through
    those points over the seconds between the first and the last.
    interval_rows averages them in trajectory order.
    """
    if not positive(fps):
        raise ValidationError(f"fps must be finite and > 0, got {fps}")
    grid = interval_grid(interval_s, total_duration)
    if not trajectories:
        return []
    frame, x, y = (np.concatenate([t.points[name] for t in trajectories])
                   for name in ("frame", "x", "y"))
    track = np.repeat(np.arange(len(trajectories)), [len(t.points) for t in trajectories])
    inner = track[1:] == track[:-1]   # segment j joins points j and j + 1 of one track
    back = np.flatnonzero(inner & (frame[1:] <= frame[:-1]))
    if len(back):
        j = back[0]
        raise ContractError(f"trajectory {trajectories[track[j]].track_id}: frame {frame[j + 1]} "
                            f"after frame {frame[j]}; frames must strictly increase")
    starts, ends = grid
    if not len(starts):
        return []
    last = len(starts) - 1
    t = (frame / fps).astype(np.float64)
    # Python floats overflow to inf and nan without a word; so does this pass
    with np.errstate(over="ignore", invalid="ignore"):
        hits = np.flatnonzero(inner & _crossings(x, y, loi))
        # each point's interval, -1 off the grid; a run of segments [a, b)
        # joins a track's consecutive points a..b in one interval
        at = np.searchsorted(starts, t, side="right") - 1
        end = ends[at]
        at[(at < 0) | ~((t < end) | ((at == last) & (t == end)))] = -1
        step = inner & (at[1:] == at[:-1]) & (at[1:] >= 0)
        seg = np.flatnonzero(step)
        lengths = np.fromiter(map(math.hypot, (x[seg + 1] - x[seg]).tolist(),
                                  (y[seg + 1] - y[seg]).tolist()), np.float64, len(seg))
        a, b = np.flatnonzero(np.diff(step, prepend=False, append=False)).reshape(-1, 2).T
        # each run's lengths summed in order, as np.add.reduceat would not:
        # pass k adds the k-th length of every run that has one
        n, path, live = b - a, np.zeros(len(a)), np.arange(len(a))
        first = np.cumsum(n) - n
        for k in range(n.max(initial=0)):
            live = live[n[live] > k]
            path[live] += lengths[first[live] + k]
        speed = path / ((frame[b] - frame[a]) / fps).astype(np.float64)
    counts: dict[tuple[int, int], int] = {}
    speeds: dict[tuple[int, int], list[float]] = {}
    crossed, first_hit = np.unique(track[hits], return_index=True)
    for i, when in zip(crossed.tolist(), t[hits[first_hit] + 1].tolist()):
        if 0 <= when <= total_duration:
            key = (min(int(when / interval_s), last), trajectories[i].class_id)
            counts[key] = counts.get(key, 0) + 1
    for i, tr, v in zip(at[a].tolist(), track[a].tolist(), speed.tolist()):
        speeds.setdefault((i, trajectories[tr].class_id), []).append(v)
    return interval_rows(grid, interval_s, counts, speeds)


INTERVALS_HEADER = "interval\tt_start_s\tt_end_s\tclass\tcount\tflow_vph\tmean_speed_kmh\tn_speed_tracks"


def write_intervals(out: IO[str], rows: Iterable[IntervalRow]) -> None:
    """The header, then one tab-delimited line per row."""
    out.write(INTERVALS_HEADER + "\n")
    for r in rows:
        out.write(f"{r.interval}\t{r.start:.6g}\t{r.end:.6g}\t{r.class_id}\t{r.count}\t"
                  f"{r.flow_vph:.6g}\t{r.mean_speed_kmh:.6g}\t{r.n_speed_tracks}\n")


def parse_intervals(source: IO[str] | Iterable[str], path=None) -> list[IntervalRow]:
    """Rows of an intervals file; mean_speed_kmh is nan exactly when n_speed_tracks is 0,
    and the rows of one interval agree on its boundaries within 1e-9 s."""
    rows = []
    seen = set()
    # interval -> (start, end, line) of its first row
    grid: dict[int, tuple[float, float, int]] = {}
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
        # a nan mean speed compares False, as it should
        if min(row.interval, row.class_id, row.count, row.n_speed_tracks, row.flow_vph) < 0 \
                or row.mean_speed_kmh < 0:
            raise ParseError("interval, class, count, flow_vph, mean_speed_kmh and "
                             "n_speed_tracks must be >= 0", line_no, path)
        if row.end <= row.start:
            raise ParseError(f"interval {row.interval} ends at {row.end:g} s, not after "
                             f"its start at {row.start:g} s", line_no, path)
        if row.interval >= MAX_INTERVALS:
            raise ParseError(f"interval {row.interval} is past the last of the "
                             f"{MAX_INTERVALS} intervals a grid may hold", line_no, path)
        if math.isnan(row.mean_speed_kmh) != (row.n_speed_tracks == 0):
            raise ParseError("mean_speed_kmh must be nan exactly when n_speed_tracks is 0",
                             line_no, path)
        if (row.interval, row.class_id) in seen:
            raise ParseError(f"duplicate row for interval {row.interval}, class {row.class_id}",
                             line_no, path)
        seen.add((row.interval, row.class_id))
        start, end, first = grid.setdefault(row.interval, (row.start, row.end, line_no))
        if abs(start - row.start) > 1e-9 or abs(end - row.end) > 1e-9:
            raise ParseError(f"interval {row.interval} spans {row.start:g} to {row.end:g} s, "
                             f"but {start:g} to {end:g} s on line {first}", line_no, path)
        rows.append(row)
    return rows
