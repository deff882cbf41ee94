"""Parsing and validation of per-frame detection streams.

One detection per line, comma-delimited:

    frame,x,y,w,h,conf,class[,e0,e1,...,e{D-1}]

Lines starting with '#' are comments. Optional trailing columns form an
appearance descriptor; every line that carries one must carry the same
number of embedding columns. Rows must arrive in non-decreasing frame
order so the stream can be consumed online.

`read_rows` is the one reader of this row format, for detection streams
and evaluation files alike. numpy converts a block of lines with one
`np.loadtxt` call; only a block holding text that numpy refuses is
converted one row at a time (`_parse_rows`). One pass of the row rules
(`HEAD_RULES`, `DESCRIPTOR_RULES`, `STREAM_RULES`) over the converted
columns accepts the block, or raises the error of its first bad row, the
one a row-at-a-time parse raises. `metrics.load_boxes` feeds it a whole
evaluation file, with each 6-column ground-truth row already given its
confidence column.

`parse_detections` runs in two stages. The chunk stage (`_chunks`) feeds
`read_rows` CHUNK_ROWS lines at a time and carries the stream's width and
frame order across chunks. When the stream goes on past its first chunk
and its rows carry descriptors, the rest is read in a reader process
forked then (`_read_ahead`), which sends each chunk's columns back as one
pickle over a pipe and parses the next chunk while the caller works on
this one; a stream without descriptors parses cheaply enough to stay in
the caller's process. The frame stage, in the caller's process, applies
the confidence floor and yields one `DetectionBatch` of arrays per frame.
`Detection` is the one-row form that `synth` writes;
`DetectionBatch.stack` turns a frame's list of them into a batch.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import warnings
from collections import namedtuple
from dataclasses import dataclass
from itertools import islice
from typing import IO, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ContractError, ParseError, ValidationError

# Largest |x|, |y|, w or h accepted, in pixels. Squares of box values stay
# far from float overflow in the filter, and the tallest boxes still
# project to a covariance within motion.MAX_CONDITION.
MAX_BOX_PX = 1e5

# Registered road-user classes of the default catalog; override per run.
DEFAULT_CLASS_NAMES = (
    "Ambulance",
    "Auto Rickshaw",
    "Bicycle",
    "Bus",
    "Human Hauler",
    "Microbus",
    "Minibus",
    "Motor Cycle",
    "Pedestrian",
    "Pickup",
    "Private Passenger Car",
    "Rickshaw",
    "Special Purpose Vehicle",
    "Truck",
)

# Largest class id accepted: ids travel as int64 arrays.
MAX_CLASS_ID = np.iinfo(np.int64).max

UNIT_NORM_TOL = 1e-9

# Lines that parse_detections reads per np.loadtxt call: enough to spread the
# call's cost, few enough that a chunk of 64-d rows stays under a megabyte.
CHUNK_ROWS = 1024


@dataclass
class Detection:
    """One detector output for one frame.

    bbox is (x_topleft, y_topleft, width, height) in pixels. The appearance
    descriptor, when present, is unit-norm.
    """

    frame: int
    class_id: int
    bbox: tuple[float, float, float, float]
    confidence: float
    appearance: Optional[np.ndarray] = None


@dataclass(frozen=True, slots=True)
class DetectionBatch:
    """One frame's detections as arrays, one row per detection, in input order.

    boxes rows are (x_topleft, y_topleft, width, height) in pixels.
    appearance holds unit-norm descriptors, (m, D), with D = 0 when the
    detections carry none.
    """

    frame: int
    boxes: np.ndarray       # (m, 4) float64
    confidence: np.ndarray  # (m,) float64
    class_ids: np.ndarray   # (m,) int64
    appearance: np.ndarray  # (m, D) float64

    def __len__(self) -> int:
        return len(self.boxes)

    @classmethod
    def stack(cls, frame: int, detections: Sequence[Detection]) -> DetectionBatch:
        """The batch of one frame's Detection rows.

        Every detection must belong to frame, and either every one carries
        a descriptor of one dimension or none does.
        """
        for det in detections:
            if det.frame != frame:
                raise ContractError(f"detection for frame {det.frame} in batch for frame {frame}")
        shapes = {None if d.appearance is None else np.shape(d.appearance) for d in detections}
        if len(shapes) > 1:
            raise ValidationError("the detections of a frame must all carry descriptors "
                                  "of one dimension, or none")
        if None in shapes or not detections:
            appearance = np.empty((len(detections), 0))
        else:
            appearance = np.array([d.appearance for d in detections], dtype=np.float64)
        return cls(frame=frame,
                   boxes=np.array([d.bbox for d in detections], dtype=np.float64).reshape(-1, 4),
                   confidence=np.array([d.confidence for d in detections], dtype=np.float64),
                   class_ids=np.array([d.class_id for d in detections], dtype=np.int64),
                   appearance=appearance)


@dataclass(frozen=True)
class ClassCatalog:
    """Ordered, unique class names; ids index into this list."""

    names: tuple[str, ...] = DEFAULT_CLASS_NAMES

    def __post_init__(self):
        if len(self.names) == 0:
            raise ValidationError("class catalog must not be empty")
        if len(set(self.names)) != len(self.names):
            raise ValidationError("class names must be unique")

    @property
    def count(self) -> int:
        return len(self.names)


def normalize_appearance(v: np.ndarray) -> np.ndarray:
    """Scale a descriptor to unit Euclidean norm.

    Vectors already unit-norm within 1e-9 pass through unchanged, so
    serialization round-trips bit for bit. The raw values are looked at
    only when the norm is 0 or not finite: a descriptor that breaks one of
    DESCRIPTOR_RULES is rejected, and a finite descriptor whose squared
    sum overflows or underflows is first divided by its largest |value|.
    """
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm == 0.0 or not np.isfinite(norm):
        row = _Rows(descriptors=v[None])
        for test, message in DESCRIPTOR_RULES:
            if not test(row)[0]:
                raise ValidationError(message(row))
        v = v / np.abs(v).max()
        norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) <= UNIT_NORM_TOL:
        return v
    return v / norm


# The input contract's row rules, in the order a row is held to them, each
# as (test, message). test(rows) is which of rows keep the rule, written so
# that NaN breaks it; rows is a _Rows: the columns of n rows as read_rows
# returns them, with a stream's embedding width and the frame of the row
# before the first. message(row) is the error of a one-row _Rows that breaks
# it. Rows without descriptors skip DESCRIPTOR_RULES, and the rows of an
# evaluation file skip STREAM_RULES.
_Rows = namedtuple("_Rows", "frames boxes confidence class_ids descriptors width last",
                   defaults=(None,) * 7)
HEAD_RULES = (
    (lambda r: (np.abs(r.boxes) <= MAX_BOX_PX).all(axis=1),
     lambda r: f"bounding box values must be finite and within ±{MAX_BOX_PX:g} px, "
               f"got {tuple(r.boxes[0].tolist())}"),
    (lambda r: r.frames >= 1,
     lambda r: f"frame index must be >= 1, got {int(r.frames[0])}"),
    (lambda r: (r.class_ids >= 0) & (r.class_ids <= MAX_CLASS_ID),
     lambda r: f"class id must be in [0, {MAX_CLASS_ID}], got {int(r.class_ids[0])}"),
    (lambda r: (r.boxes[:, 2:] > 0).all(axis=1),
     lambda r: "bounding box width/height must be positive, got ({}, {})".format(
         *r.boxes[0, 2:].tolist())),
    (lambda r: (r.confidence >= 0.0) & (r.confidence <= 1.0),
     lambda r: f"confidence must be in [0,1], got {float(r.confidence[0])}"),
)
DESCRIPTOR_RULES = (
    (lambda r: np.isfinite(r.descriptors).all(axis=1), lambda r: "non-finite embedding value"),
    (lambda r: r.descriptors.any(axis=1), lambda r: "appearance descriptor has zero norm"),
)
STREAM_RULES = (
    (lambda r: r.descriptors.shape[1] == r.width,
     lambda r: f"embedding dimension {r.descriptors.shape[1]} does not match expected {r.width}"),
    # each frame against the one before it, the first against last
    (lambda r: np.concatenate((r.frames[:1] >= (r.frames[:1] if r.last is None else r.last),
                               r.frames[1:] >= r.frames[:-1])),
     lambda r: f"frame {int(r.frames[0])} after frame {int(r.last)}; "
               "stream must be ordered by frame"),
)


def numbered_rows(lines: Sequence[str], line_no: int) -> list[tuple[int, str]]:
    """(line number, stripped text) of each of lines that holds a row, the
    first of lines being line line_no: blank and '#' lines hold none."""
    return [(n, s) for n, s in enumerate(map(str.strip, lines), line_no) if s and s[0] != "#"]


def read_rows(lines: Sequence[str], line_no: int, path,
              stream: Optional[tuple] = None) -> tuple[np.ndarray, ...]:
    """(frames, boxes, confidence, class_ids, descriptors) of the rows among
    lines, the first of which is line line_no of path; blank and '#' lines
    are skipped. Every row must carry at least 7 columns.

    stream is None for the rows of an evaluation file: descriptor widths
    may differ from row to row, and descriptors are checked, then dropped.
    Otherwise the rows go on from a detection stream's, and stream is
    (embedding width, last frame) of those rows, each None before the
    first: every row must carry that many embedding columns and keep frame
    order, and descriptors come at unit norm.

    numpy converts the rows (_read_block); only text it refuses is converted
    one row at a time (_parse_rows). One pass of the row rules over the
    columns then accepts them, or raises the error that a row-at-a-time
    parse raises first. The rules build one mask; a row's are looked at
    one by one only once a row breaks one.
    """
    # loadtxt skips empty lines itself; comment lines are dropped here, only
    # when there is a '#' at all, since stripping every line adds a tenth
    rows = lines
    if "#" in "".join(lines):
        rows = [s for _, s in numbered_rows(lines, line_no)]
    columns, error = _read_block(rows), None
    if columns is None:
        columns, error = _parse_rows(lines, line_no, path, stream)
    width, last = stream or (None, None)
    dim = columns[4].shape[1]
    checked = _Rows(*columns, dim if width is None else width, last)
    rules = HEAD_RULES + (DESCRIPTOR_RULES if dim else ())
    rules += () if stream is None else STREAM_RULES
    ok = np.ones(len(checked.frames), dtype=bool)
    for test, _ in rules:
        ok &= test(checked)
    if not ok.all():
        i = int(ok.argmin())
        row = _Rows(*(c[i:i + 1] for c in columns), checked.width,
                    checked.frames[i - 1] if i else last)
        message = next(text(row) for test, text in rules if not np.all(test(row)))
        raise ParseError(message, numbered_rows(lines, line_no)[i][0], path)
    if error is not None:
        raise error
    frames, boxes, confidence, class_ids, descriptors = columns
    if stream is None:
        descriptors = np.empty((len(frames), 0))
    elif dim:
        # a batched norm within half the tolerance keeps a descriptor as
        # normalize_appearance would; it scales every other one
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(descriptors, axis=1)
        for i in np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL / 2):
            descriptors[i] = normalize_appearance(descriptors[i])
    return tuple(c.copy() for c in (frames, boxes, confidence, class_ids, descriptors))


def _read_block(rows: Sequence[str]) -> Optional[tuple[np.ndarray, ...]]:
    """The columns of rows from one np.loadtxt call, as wide as the first
    row: frame and class as int64, the rest as float64. None when numpy
    refuses some of their text. numpy's int and float parsers accept a
    subset of what int() and float() accept, with the same values, and
    loadtxt rejects a row of another width and an embedded newline. So a
    read that raises or warns of nothing gives _parse_rows' columns.
    """
    n_cols = next((s for s in rows if s.strip()), "").count(",") + 1
    fields = [("frame", "i8"), ("box", "f8", (4,)), ("conf", "f8"), ("class", "i8"),
              ("descriptor", "f8", (max(n_cols - 7, 0),))]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = np.loadtxt(rows, dtype=np.dtype(fields), delimiter=",", comments=None,
                               ndmin=1)
    except (ValueError, Warning):
        return None
    return block["frame"], block["box"], block["conf"], block["class"], block["descriptor"]


def _parse_rows(lines: Sequence[str], line_no: int, path,
                stream: Optional[tuple]) -> tuple[tuple, Optional[ParseError]]:
    """(columns, error): read_rows' columns converted by int() and float()
    one row at a time, as wide as the first row, up to the first row that
    cannot be converted, and that row's error, or None.

    A row cannot be converted when it has too few columns, a field that
    int() or float() refuses, or, in a stream, an embedding width other
    than the first row's. Its error is that of the first rule it breaks
    before that, else its own: read_rows reads its head alone before its
    embedding values, and the whole row, against the first row's width,
    before its width, which the width rule rejects. An evaluation row's
    descriptor is checked, then dropped, so only its largest |value| is
    kept (1.0 when there is none): finite and non-zero exactly when the
    descriptor is.
    """
    width, heads, descriptors, stop = None, [], [], None
    for line_no, line in numbered_rows(lines, line_no):
        parts = line.split(",")
        if stream is None and len(parts) == 6:
            stop = "prediction rows need a confidence column", None, None
            break
        if len(parts) < 7:
            stop = (f"expected at least {6 if stream is None else 7} comma-separated "
                    f"columns, got {len(parts)}", None, None)
            break
        try:
            head = (int(parts[0]), *map(float, parts[1:5]), float(parts[5]), int(parts[6]))
        except ValueError as exc:
            stop = f"unparseable field ({exc})", None, None
            break
        try:
            descriptor = [float(p) for p in parts[7:]]
        except ValueError as exc:
            stop = f"unparseable embedding ({exc})", ",".join(parts[:7]), None
            break
        if stream is None:
            descriptor = [np.abs(descriptor).max() if descriptor else 1.0]
        elif width is None:
            width = len(descriptor)
        elif len(descriptor) != width:
            stop = None, line, (width, None)
            break
        heads.append(head)
        descriptors.append(descriptor)
    n = len(heads)
    # frames have no upper bound, and a class id past int64 must reach its rule
    frames, class_ids = (
        np.array(v, dtype=object if any(abs(x) >= 2**63 for x in v) else np.int64)
        for v in ([head[k] for head in heads] for k in (0, 6)))
    fields = np.array([head[1:6] for head in heads], dtype=np.float64).reshape(n, 5)
    descriptors = np.array(descriptors, dtype=np.float64).reshape(n, -1 if n else 0)
    columns = frames, fields[:, :4], fields[:, 4], class_ids, descriptors
    if stop is None:
        return columns, None
    message, row, row_stream = stop
    try:
        if row is not None:
            read_rows([row], line_no, path, row_stream)
    except ParseError as exc:
        return columns, exc
    return columns, ParseError(message, line_no, path)


def _chunks(lines: Iterator[str], path) -> Iterator[tuple[tuple[np.ndarray, ...], bool]]:
    """The chunk stage: for each CHUNK_ROWS lines that hold a row, read_rows'
    columns and whether the stream may go on (the chunk was full), the
    stream's width and frame order carried from chunk to chunk.

    A bad chunk raises the error of its first bad row; an error that lines
    raises comes after the errors of the lines read before it.
    """
    line_no, stream, full = 1, (None, None), True
    while full:
        chunk, error = [], None
        try:
            for line in islice(lines, CHUNK_ROWS):
                chunk.append(line)
        except ParseError as exc:
            error = exc
        columns = read_rows(chunk, line_no, path, stream)
        if error is not None:
            raise error
        line_no += len(chunk)
        full = len(chunk) == CHUNK_ROWS
        if len(columns[0]):
            stream = (columns[4].shape[1], int(columns[0][-1]))
            yield columns, full


def _read_ahead(chunks: Iterator[tuple]) -> Iterator[tuple[np.ndarray, ...]]:
    """The columns of chunks. The first chunk is read here; when the stream
    may go on past it and its rows carry descriptors, a reader process
    forked then reads the rest while the caller works on the chunk before.

    A stream within one chunk leaves nothing to overlap, and a fork costs
    milliseconds, so it is read here whole. So is a stream without
    descriptors: its 7-column rows parse in a small share of the caller's
    time, and the reader would spend more CPU on that parse, its pickles
    and the copy-on-write faults it causes than the caller saves. It is
    also read here where os.fork does not exist. The reader sends one
    pickle per chunk over a pipe, (columns, None), then (None, error)
    with what iterating chunks raised, or None at its end; that error is
    raised here, after the chunks before it. The pipe holds less than a
    chunk of 64-d rows, so the reader runs about one chunk ahead. It ends
    only through os._exit, so it flushes no buffer it inherited (a
    half-written output file) and runs no exit handler. When this
    generator ends, fails or is closed, the reader is killed if it still
    runs, and reaped.
    """
    columns, more = next(chunks, (None, False))
    if not more or not columns[4].shape[1] or not hasattr(os, "fork"):
        if columns is not None:
            yield columns
        yield from (columns for columns, _ in chunks)
        return
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            # the inherited objects are never collected here, so none of
            # their finalizers runs and their pages stay shared
            gc.freeze()
            with open(write_end, "wb") as out:
                error = None
                try:
                    for columns, _ in chunks:
                        out.write(pickle.dumps((columns, None), pickle.HIGHEST_PROTOCOL))
                        out.flush()
                except BaseException as exc:
                    error = exc
                out.write(pickle.dumps((None, error), pickle.HIGHEST_PROTOCOL))
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        with open(read_end, "rb") as messages:
            while columns is not None:
                yield columns
                try:
                    columns, error = pickle.load(messages)
                except (EOFError, pickle.UnpicklingError):
                    raise OSError("the detection reader process ended before "
                                  "the stream did") from None
        if error is not None:
            raise error
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def parse_detections(
    source: IO[str] | Iterable[str],
    min_confidence: float = 0.0,
    path=None,
) -> Iterator[tuple[int, DetectionBatch]]:
    """Stream (frame, batch) pairs from delimited text.

    Batches come out in strictly increasing frame order; frames absent from
    the input yield no batch. Detections below min_confidence are dropped
    at ingest, after they are checked. Every row must carry as many
    embedding columns as the first. Lines are read CHUNK_ROWS at a time,
    and a frame is yielded once a later frame starts or the stream ends. A
    bad stream raises the ParseError a row-at-a-time parse would raise
    first: the same message, at the same line. An error that source raises
    comes after the errors of the lines read before it.

    The chunk stage (_chunks) reads source; after the first chunk, when
    the stream goes on and carries descriptors, it runs in a forked reader
    process (_read_ahead), one chunk ahead of this frame stage, which
    applies the confidence floor and splits the rows into frames.
    """
    chunks = _read_ahead(_chunks(iter(source), path))
    held: Optional[DetectionBatch] = None   # the last frame read so far
    try:
        for frames, *columns in chunks:
            keep = columns[1] >= min_confidence
            if not keep.all():
                columns = [c[keep] for c in columns]
            # each frame's run of rows, and the part of the kept rows it spans
            bounds = np.concatenate(([0], np.flatnonzero(frames[1:] != frames[:-1]) + 1,
                                     [len(frames)]))
            cuts = np.concatenate(([0], np.cumsum(keep)))[bounds].tolist()
            for s, a, b in zip(bounds[:-1].tolist(), cuts[:-1], cuts[1:]):
                frame, rows = int(frames[s]), [c[a:b] for c in columns]
                if held is not None and held.frame == frame:   # the frame goes on
                    rows = [np.concatenate(pair) for pair in zip(
                        (held.boxes, held.confidence, held.class_ids, held.appearance), rows)]
                elif held is not None:
                    yield held.frame, held
                held = DetectionBatch(frame, *rows)
    finally:
        chunks.close()
    if held is not None:
        yield held.frame, held


def format_detection(det: Detection) -> str:
    fields = [str(det.frame)]
    fields += [repr(float(v)) for v in det.bbox]
    fields.append(repr(float(det.confidence)))
    fields.append(str(det.class_id))
    if det.appearance is not None:
        fields += [repr(float(v)) for v in det.appearance]
    return ",".join(fields)


def write_detections(out: IO[str], batches: Iterable[tuple[int, list[Detection]]]) -> None:
    """Serialize batches back to the line format; parse round-trips exactly."""
    for _, batch in batches:
        for det in batch:
            out.write(format_detection(det))
            out.write("\n")
