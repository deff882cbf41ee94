"""Run the trafficstate CLI with a span around every call into each layer.

usage: PYTHONPATH=src python bench/traced.py SPANS_JSON -- <cli arguments>

Each wrapped public function is replaced in the namespace its caller
looks it up in (a module attribute, or a class attribute for methods), so
the program's own code is untouched. A span records its name, start, end,
parent span and the frame it serves; spans stay in memory and are written
to SPANS_JSON, with the layer counts, after the CLI returns.

`format_track_row`, `assoc.iou` and `calib.to_world` run once per row and
get no span: timing each call would cost about as much as the call.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from trafficstate import assoc, cli, detstream, metrics, motion, tracker, traffic

clock = time.perf_counter


class Recorder:
    """Spans as [name, start, end, parent, frame] lists, plus layer counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.live_tracks: list[int] = []

    def open(self, name: str, frame=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        if frame is None and parent >= 0:
            frame = self.spans[parent][4]
        self.spans.append([name, 0.0, 0.0, parent, frame])
        self.stack.append(len(self.spans) - 1)
        self.spans[-1][1] = clock()
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = clock()
        self.stack.pop()

    def add(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)


def _wrap(rec: Recorder, owner, attr: str, name: str, count=None, frame_arg=None):
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(name, args[frame_arg] if frame_arg is not None else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if count is not None:
            count(args, result)
        return result

    setattr(owner, attr, traced)


def _wrap_parse(rec: Recorder) -> None:
    """Time each next() of the detection generator as one span."""
    parse = detstream.parse_detections

    @functools.wraps(parse)
    def traced(*args, **kwargs):
        batches = parse(*args, **kwargs)
        while True:
            i = rec.open("detstream.parse")
            try:
                frame, batch = next(batches)
            except StopIteration:
                return
            finally:
                rec.close(i)
            rec.spans[i][4] = frame
            rec.add("detstream.rows", len(batch))
            rec.add("detstream.frames", 1)
            yield frame, batch

    detstream.parse_detections = traced


def install(rec: Recorder) -> None:
    """Patch every layer boundary the CLI crosses."""
    _wrap_parse(rec)

    def live(args, _):
        rec.live_tracks.append(len(args[0].tracks))

    _wrap(rec, tracker.Tracker, "step", "tracker.step", live, frame_arg=1)

    def rows(args, _):
        rec.add("motion.rows", len(args[1]))

    kf = motion.KalmanFilter
    _wrap(rec, kf, "predict_many", "motion.predict", rows)
    _wrap(rec, kf, "project_many", "motion.project", rows)
    _wrap(rec, kf, "update_many", "motion.update", rows)
    _wrap(rec, kf, "initiate", "motion.initiate",
          lambda args, _: rec.add("tracker.births", 1))

    def cost(_, result):
        n, m = result.values.shape
        rec.add("assoc.cost_calls", 1)
        rec.add("assoc.cost_cells", n * m)
        rec.add("assoc.admissible_cells", result.admissible.sum())

    def solve(args, result):
        rec.add("assoc.rows_offered", args[0].values.shape[0])
        rec.add("assoc.rows_matched", len(result.matches))

    _wrap(rec, assoc, "build_cost_matrix", "assoc.cost", cost)
    _wrap(rec, assoc, "build_iou_cost_matrix", "assoc.iou",
          lambda _, r: rec.add("assoc.iou_cells", r.values.size))
    _wrap(rec, assoc, "solve_assignment", "assoc.solve", solve)

    _wrap(rec, traffic, "assemble_trajectories", "traffic.assemble",
          lambda _, r: rec.add("traffic.points", sum(len(t.points) for t in r)))
    _wrap(rec, traffic, "measure_intervals", "traffic.measure",
          lambda _, r: rec.add("traffic.intervals", len(r)))
    _wrap(rec, traffic, "write_intervals", "traffic.write")

    _wrap(rec, metrics, "load_boxes", "metrics.load")
    _wrap(rec, metrics, "evaluate_detections", "metrics.evaluate")
    _wrap(rec, metrics, "match_to_ground_truth", "metrics.match",
          lambda args, _: rec.add("metrics.pairs", len(args[0]) * len(args[1])))
    _wrap(rec, metrics, "confusion_matrix", "metrics.confusion")
    _wrap(rec, metrics, "write_eval_report", "metrics.write")
    _wrap(rec, metrics, "write_confusion", "metrics.write")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS_JSON -- <cli arguments>", file=sys.stderr)
        return 2
    rec = Recorder()
    install(rec)
    start = clock()
    code = cli.main(argv[2:])
    main_s = clock() - start
    with open(argv[0], "w", encoding="utf-8") as f:
        json.dump({"main_start": start, "main_s": main_s, "spans": rec.spans,
                   "counts": rec.counts, "live_tracks": rec.live_tracks}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
