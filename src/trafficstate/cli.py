"""Command-line pipeline: track, eval, stats, synth, print-config.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 numerical error.
Every subcommand is deterministic given its inputs (and seed). Each command
imports the layers it runs when it runs, so `eval` loads no tracking,
measurement or configuration code, and only `synth` loads `synth`.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import detstream
from .detstream import ClassCatalog, DetectionBatch
from .errors import NumericalError, ParseError, ValidationError

if TYPE_CHECKING:
    from .tracker import LiveTracks, Tracker
    from .traffic import IntervalRow

TRACKS_HEADER = "frame\tid\tclass\tu\tv\tw\th"


# a byte that is not UTF-8, as errors="surrogateescape" decodes it
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def _check_utf8(text: str, line_no: int, path: str) -> str:
    """text, read with errors="surrogateescape" from line line_no of path on;
    a byte that is not UTF-8 raises the ParseError naming the first one."""
    bad = None if text.isascii() else _NOT_UTF8.search(text)
    if bad is not None:
        raise ParseError(f"not UTF-8 text (byte 0x{ord(bad.group()) - 0xDC00:02x})",
                         line_no + text.count("\n", 0, bad.start()), path)
    return text


def _read_text(path: str) -> str:
    return _check_utf8(Path(path).read_text(encoding="utf-8", errors="surrogateescape"),
                       1, path)


def _open_detections(path: str):
    if path == "-":
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(errors="surrogateescape")
        return sys.stdin
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def _utf8_lines(lines, path: str):
    """lines, each checked by _check_utf8 as it is reached."""
    for line_no, line in enumerate(lines, start=1):
        yield line if line.isascii() else _check_utf8(line, line_no, path)


def _frames_to_step(batches, tracker: Tracker):
    """Every parsed batch, after the empty frames of its gap while a track is alive.

    Each empty frame ages the live tracks, so none is left after max_age + 1
    of them, and an empty step with no live track writes no row and adds no point.
    """
    last = 0
    for frame, batch in batches:
        while last + 1 < frame and tracker.tracks:
            last += 1
            yield last, DetectionBatch.stack(last, [])
        yield frame, batch
        last = frame


def _track_rows(live: LiveTracks) -> str:
    """The tracks.txt rows of one frame's confirmed tracks: frame, id,
    class, box centre and size, each float as %.6g.

    The frame's rows come from one %-format of the row template, with the
    frame number written in, repeated once per row; %.6g writes a float as
    the format spec .6g does.
    """
    c = live.confirmed
    boxes = live.boxes[c]
    k = len(boxes)
    fields = [None] * (6 * k)
    fields[0::6] = live.ids[c].tolist()
    fields[1::6] = live.class_ids[c].tolist()
    fields[2::6], fields[3::6] = (boxes[:, :2] + boxes[:, 2:] / 2.0).T.tolist()
    fields[4::6], fields[5::6] = boxes[:, 2:].T.tolist()
    return (f"{live.frame}\t%d\t%d\t%.6g\t%.6g\t%.6g\t%.6g\n" * k) % tuple(fields)


def cmd_track(detections_path: str, config_path: str | None, out_dir: str) -> int:
    from . import traffic
    from .config import parse_config
    from .tracker import Tracker

    cfg = parse_config(_read_text(config_path), config_path) if config_path else parse_config("")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tracker = Tracker(cfg.tracker)
    frames = []
    tracks_path = out / cfg.tracks_name
    src = _open_detections(detections_path)
    batches = detstream.parse_detections(
        _utf8_lines(src, detections_path), min_confidence=cfg.confidence_floor,
        path=detections_path,
    )
    try:
        tf = open(tracks_path, "w", encoding="utf-8")
        try:
            with tf:
                tf.write(TRACKS_HEADER + "\n")
                for frame, batch in _frames_to_step(batches, tracker):
                    live = tracker.step(frame, batch)
                    frames.append(live)
                    tf.write(_track_rows(live))
            last_frame = frames[-1].frame if frames else 0
            duration = cfg.duration_s if cfg.duration_s is not None else last_frame / cfg.fps
            trajectories = traffic.assemble_trajectories(frames, cfg.calibration)
            # a refused row raises here, before the intervals file is opened
            rows = traffic.measure_intervals(
                trajectories, cfg.loi, cfg.interval_s, cfg.fps, duration
            )
        except BaseException:
            # a failed run leaves no partial tracks file behind
            tracks_path.unlink()
            raise
    finally:
        # ends the detection reader process, if the stream did not end it
        batches.close()
        if src is not sys.stdin:
            src.close()
    with open(out / cfg.intervals_name, "w", encoding="utf-8") as f:
        traffic.write_intervals(f, rows)
    return 0


def _load_catalog(classes_path: str | None) -> ClassCatalog:
    """One class name per line, with no tab; blank lines and lines starting
    with # after leading spaces are skipped."""
    if classes_path is None:
        return ClassCatalog()
    first_line: dict[str, int] = {}
    for line_no, line in enumerate(_read_text(classes_path).splitlines(), start=1):
        name = line.strip()
        if not name or name.startswith("#"):
            continue
        if "\t" in name:
            raise ParseError(f"class name {name!r} contains a tab", line_no, classes_path)
        if name in first_line:
            raise ParseError(f"duplicate class name {name!r} (first on line {first_line[name]})",
                             line_no, classes_path)
        first_line[name] = line_no
    if not first_line:
        raise ParseError("class catalog must not be empty", path=classes_path)
    return ClassCatalog(names=tuple(first_line))


def cmd_eval(pred_path: str, gt_path: str, iou_threshold: float,
             classes_path: str | None, out_dir: str) -> int:
    from . import metrics

    catalog = _load_catalog(classes_path)
    preds = metrics.load_boxes(io.StringIO(_read_text(pred_path)), require_confidence=True,
                               path=pred_path, n_classes=catalog.count)
    gts = metrics.load_boxes(io.StringIO(_read_text(gt_path)), require_confidence=False,
                             path=gt_path, n_classes=catalog.count)
    report = metrics.evaluate_detections(preds, gts, catalog.count, iou_threshold)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "eval_report.txt", "w", encoding="utf-8") as f:
        metrics.write_eval_report(f, report, catalog.names)
    with open(out / "confusion_matrix.txt", "w", encoding="utf-8") as f:
        metrics.write_confusion(f, report, catalog.names)
    return 0


STATS_HEADER = "quantity\tclass\tn\trmse\tpearson\tt\tp"


def _interval_series(rows: list[IntervalRow]):
    """(class -> interval -> flow, class -> interval -> mean speed, grid)."""
    flows: dict[int, dict[int, float]] = {}
    speeds: dict[int, dict[int, float]] = {}
    grid: dict[int, tuple[float, float]] = {}
    for r in rows:
        grid[r.interval] = (r.start, r.end)
        flows.setdefault(r.class_id, {})[r.interval] = r.flow_vph
        if r.n_speed_tracks > 0:
            speeds.setdefault(r.class_id, {})[r.interval] = r.mean_speed_kmh
    return flows, speeds, grid


def _stats_rows(measured: list[IntervalRow], truth: list[IntervalRow],
                measured_path: str, truth_path: str) -> list[str]:
    m_flows, m_speeds, m_grid = _interval_series(measured)
    t_flows, t_speeds, t_grid = _interval_series(truth)
    for i in sorted(set(m_grid) & set(t_grid)):
        if abs(m_grid[i][0] - t_grid[i][0]) > 1e-9 \
                or abs(m_grid[i][1] - t_grid[i][1]) > 1e-9:
            raise ValidationError(
                f"interval {i} boundaries differ: {m_grid[i][0]:g} to {m_grid[i][1]:g} s "
                f"in {measured_path}, {t_grid[i][0]:g} to {t_grid[i][1]:g} s in {truth_path}"
            )
    # an interval without a row in either file counts as no crossing in both
    intervals = range(max(m_grid.keys() | t_grid.keys(), default=-1) + 1)
    if len(intervals) < 2:
        raise ValidationError("need at least 2 intervals to compute statistics")

    def flow_series(table, class_ids):
        return [sum(table.get(k, {}).get(i, 0.0) for k in class_ids)
                for i in intervals]

    lines = []
    classes = sorted(set(m_flows) | set(t_flows))
    for label, ids in [("all", classes)] + [(str(k), [k]) for k in classes]:
        a = flow_series(m_flows, ids)
        b = flow_series(t_flows, ids)
        lines.append(_stat_line("flow", label, a, b))
    for label, ids in [("all", sorted(set(m_speeds) | set(t_speeds)))] \
            + [(str(k), [k]) for k in sorted(set(m_speeds) | set(t_speeds))]:
        a, b = [], []
        for i in intervals:
            ma = [m_speeds.get(k, {}).get(i) for k in ids]
            mb = [t_speeds.get(k, {}).get(i) for k in ids]
            ma = [v for v in ma if v is not None]
            mb = [v for v in mb if v is not None]
            if ma and mb:
                a.append(sum(ma) / len(ma))
                b.append(sum(mb) / len(mb))
        if len(a) >= 2:
            lines.append(_stat_line("speed", label, a, b))
    return lines


def _stat_line(quantity: str, label: str, a, b) -> str:
    from . import metrics

    r = metrics.rmse(a, b)
    try:
        corr = f"{metrics.pearson(a, b):.6g}"
    except NumericalError:
        corr = "nan"
    t, p = metrics.paired_t_test(a, b)
    return "\t".join([quantity, label, str(len(a)),
                      f"{r:.6g}", corr, f"{t:.6g}", f"{p:.6g}"])


def cmd_stats(measured_path: str, truth_path: str, out_dir: str) -> int:
    from . import traffic

    measured = traffic.parse_intervals(io.StringIO(_read_text(measured_path)), path=measured_path)
    truth = traffic.parse_intervals(io.StringIO(_read_text(truth_path)), path=truth_path)
    lines = _stats_rows(measured, truth, measured_path, truth_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "stats.txt", "w", encoding="utf-8") as f:
        f.write(STATS_HEADER + "\n")
        for line in lines:
            f.write(line + "\n")
    return 0


def cmd_synth(spec_path: str, seed: int | None, out_dir: str) -> int:
    from . import synth, traffic

    spec, loi, interval_s = synth.parse_scenario(_read_text(spec_path), spec_path)
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    batches, truth = synth.generate(spec, loi, interval_s)
    rows = truth.to_measurements()   # a refused row raises here, before any file is opened
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "detections.txt", "w", encoding="utf-8") as f:
        detstream.write_detections(f, batches)
    with open(out / "ground_truth.txt", "w", encoding="utf-8") as f:
        traffic.write_intervals(f, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficstate",
        description="Track road users from detection streams and measure "
                    "classified flow and speed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("track", help="run tracking + interval measurement")
    p.add_argument("--detections", required=True,
                   help="detection file, or - for standard input")
    p.add_argument("--config", default=None, help="run config file")
    p.add_argument("--out-dir", default=".", help="output directory")

    p = sub.add_parser("eval", help="evaluate detections against ground truth")
    p.add_argument("--pred", required=True, help="predicted detections file")
    p.add_argument("--gt", required=True, help="ground-truth boxes file")
    p.add_argument("--iou", type=float, default=0.5, help="matching IoU threshold")
    p.add_argument("--classes", default=None, help="file with one class name per line")
    p.add_argument("--out-dir", default=".", help="output directory")

    p = sub.add_parser("stats", help="compare measured intervals against truth")
    p.add_argument("--measured", required=True, help="measured intervals file")
    p.add_argument("--truth", required=True, help="ground-truth intervals file")
    p.add_argument("--out-dir", default=".", help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    p.add_argument("--spec", required=True, help="scenario description file")
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p.add_argument("--out-dir", default=".", help="output directory")

    sub.add_parser("print-config", help="print the default run config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "track":
            return cmd_track(args.detections, args.config, args.out_dir)
        if args.command == "eval":
            return cmd_eval(args.pred, args.gt, args.iou, args.classes, args.out_dir)
        if args.command == "stats":
            return cmd_stats(args.measured, args.truth, args.out_dir)
        if args.command == "synth":
            return cmd_synth(args.spec, args.seed, args.out_dir)
        if args.command == "print-config":
            from .config import default_config_text

            sys.stdout.write(default_config_text())
            return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
