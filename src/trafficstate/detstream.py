"""Parsing and validation of per-frame detection streams.

One detection per line, comma-delimited:

    frame,x,y,w,h,conf,class[,e0,e1,...,e{D-1}]

Lines starting with '#' are comments. Optional trailing columns form an
appearance descriptor; every line that carries one must carry the same
number of embedding columns. Rows must arrive in non-decreasing frame
order so the stream can be consumed online.

`read_rows` is the one reader of this row format, for detection streams
and evaluation files alike. It reads a block of lines with one
`np.loadtxt` call and checks every row at once with `_valid_rows`; a
block that read cannot vouch for goes through `_parse_rows`, one row at a
time, so values and error messages are exactly those of a row-at-a-time
parse. `metrics.load_boxes` feeds it a whole evaluation file, with each
6-column ground-truth row already given its confidence column.

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
    only when the norm is 0 or not finite: non-finite values are rejected,
    as is the zero vector, and a finite descriptor whose squared sum
    overflows or underflows is first divided by its largest |value|.
    """
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm == 0.0 or not np.isfinite(norm):
        if not np.isfinite(v).all():
            raise ValidationError("non-finite embedding value")
        if not v.any():
            raise ValidationError("appearance descriptor has zero norm")
        v = v / np.abs(v).max()
        norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) <= UNIT_NORM_TOL:
        return v
    return v / norm


def _parse_head(parts: Sequence[str], line_no: int, path):
    """(frame, x, y, w, h, conf, class_id) from a row's first 7 fields, checked."""
    try:
        frame = int(parts[0])
        x, y, w, h = map(float, parts[1:5])
        conf = float(parts[5])
        class_id = int(parts[6])
    except ValueError as exc:
        raise ParseError(f"unparseable field ({exc})", line_no, path) from None

    # written as not (in range) so that NaN is rejected too
    if not (abs(x) <= MAX_BOX_PX and abs(y) <= MAX_BOX_PX
            and abs(w) <= MAX_BOX_PX and abs(h) <= MAX_BOX_PX):
        raise ParseError(f"bounding box values must be finite and within "
                         f"±{MAX_BOX_PX:g} px, got {(x, y, w, h)}", line_no, path)
    if frame < 1:
        raise ParseError(f"frame index must be >= 1, got {frame}", line_no, path)
    if not 0 <= class_id <= MAX_CLASS_ID:
        raise ParseError(f"class id must be in [0, {MAX_CLASS_ID}], got {class_id}",
                         line_no, path)
    if not (w > 0 and h > 0):
        raise ParseError(f"bounding box width/height must be positive, got ({w}, {h})",
                         line_no, path)
    if not 0.0 <= conf <= 1.0:
        raise ParseError(f"confidence must be in [0,1], got {conf}", line_no, path)
    return frame, x, y, w, h, conf, class_id


def _valid_rows(frames: np.ndarray, boxes: np.ndarray, confidence: np.ndarray,
                class_ids: np.ndarray, descriptors: np.ndarray) -> np.ndarray:
    """(n,) bool: which rows pass _parse_head's checks and _parse_embedding's.

    frames and class_ids are (n,) int64, boxes (n, 4), confidence (n,) and
    descriptors (n, D) float64, D >= 0. The tests are _parse_head's, written
    so that NaN fails each; normalize_appearance accepts exactly the finite
    descriptors that are not all zero.
    """
    ok = (np.abs(boxes) <= MAX_BOX_PX).all(axis=1) & (boxes[:, 2:] > 0).all(axis=1)
    ok &= (frames >= 1) & (class_ids >= 0) & (confidence >= 0.0) & (confidence <= 1.0)
    if descriptors.shape[1]:
        ok &= np.isfinite(descriptors).all(axis=1) & descriptors.any(axis=1)
    return ok


def _parse_embedding(fields: Sequence[str], line_no: int, path) -> np.ndarray:
    """One row's descriptor, checked and scaled to unit norm."""
    try:
        raw = np.array([float(p) for p in fields], dtype=np.float64)
    except ValueError as exc:
        raise ParseError(f"unparseable embedding ({exc})", line_no, path) from None
    try:
        return normalize_appearance(raw)
    except ValidationError as exc:
        raise ParseError(str(exc), line_no, path) from None


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
    order, and descriptors come at unit norm. The rows are read as one
    array when _read_block can vouch for them, else by _parse_rows, which
    raises the first bad row's error.
    """
    # loadtxt skips empty lines itself; comment lines are dropped here, only
    # when there is a '#' at all, since stripping every line adds a tenth
    rows = lines
    if "#" in "".join(lines):
        rows = [s for s in map(str.strip, lines) if s and not s.startswith("#")]
    columns = _read_block(rows, stream)
    if columns is None:
        columns = _parse_rows(lines, line_no, path, stream)
    return columns


def _read_block(rows: Sequence[str], stream: Optional[tuple]) -> Optional[tuple[np.ndarray, ...]]:
    """read_rows' columns from one np.loadtxt call, or None when that read
    cannot vouch for every row.

    The columns are those of the first row: frame and class as int64, the
    rest as float64. numpy's int and float parsers accept a subset of what
    int() and float() accept, with the same values, and loadtxt rejects a
    row of another width and an embedded newline. So a read that raises or
    warns of nothing, whose rows all pass _valid_rows and keep the stream's
    width and order, is what _parse_rows would return. A descriptor whose
    batched norm is within half the unit tolerance of 1 is kept as it is,
    as normalize_appearance would keep it; every other one goes through
    normalize_appearance.
    """
    width, last = stream or (None, None)
    n_cols = next((s for s in rows if s.strip()), "").count(",") + 1
    if n_cols < 7 or (width is not None and n_cols != 7 + width):
        return None
    fields = [("frame", "i8"), ("box", "f8", (4,)), ("conf", "f8"), ("class", "i8")]
    fields += [("descriptor", "f8", (n_cols - 7,))] if n_cols > 7 else []
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = np.loadtxt(rows, dtype=np.dtype(fields), delimiter=",", comments=None,
                               ndmin=1)
    except (ValueError, Warning):
        return None
    n = len(block)
    frames = block["frame"]
    descriptors = block["descriptor"] if n_cols > 7 else np.empty((n, 0))
    if not _valid_rows(frames, block["box"], block["conf"], block["class"], descriptors).all():
        return None
    if stream is None:
        descriptors = np.empty((n, 0))
    elif (frames[1:] < frames[:-1]).any() or (last is not None and frames[0] < last):
        return None
    elif n_cols > 7:
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(descriptors, axis=1)
        for i in np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL / 2):
            descriptors[i] = normalize_appearance(descriptors[i])
    return tuple(c.copy() for c in (frames, block["box"], block["conf"], block["class"],
                                    descriptors))


def _parse_rows(lines: Sequence[str], line_no: int, path,
                stream: Optional[tuple]) -> tuple[np.ndarray, ...]:
    """read_rows' columns one row at a time: a row's columns, head and
    descriptor, then a stream row's width and frame order, are checked
    before the next row is read."""
    width, last = stream or (None, None)
    heads, descriptors = [], []
    for line_no, line in enumerate(lines, start=line_no):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if stream is None and len(parts) == 6:
            raise ParseError("prediction rows need a confidence column", line_no, path)
        if len(parts) < 7:
            raise ParseError(f"expected at least {6 if stream is None else 7} "
                             f"comma-separated columns, got {len(parts)}", line_no, path)
        head = _parse_head(parts, line_no, path)
        heads.append(head)
        descriptor = _parse_embedding(parts[7:], line_no, path) if len(parts) > 7 else None
        if stream is None:
            continue
        width = len(parts) - 7 if width is None else width
        if len(parts) - 7 != width:
            raise ParseError(f"embedding dimension {len(parts) - 7} does not match "
                             f"expected {width}", line_no, path)
        if last is not None and head[0] < last:
            raise ParseError(f"frame {head[0]} after frame {last}; stream must be "
                             "ordered by frame", line_no, path)
        last = head[0]
        if width:
            descriptors.append(descriptor)
    n = len(heads)
    frames = [head[0] for head in heads]
    # frames have no upper bound: int64 unless one does not fit
    frames = np.array(frames, dtype=np.int64 if max(frames, default=1) < 2**63 else object)
    fields = np.array([head[1:6] for head in heads], dtype=np.float64).reshape(n, 5)
    class_ids = np.array([head[6] for head in heads], dtype=np.int64)
    appearance = np.array(descriptors, dtype=np.float64).reshape(n, width or 0)
    return frames, fields[:, :4], fields[:, 4], class_ids, appearance


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
