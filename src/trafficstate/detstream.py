"""Parsing and validation of per-frame detection streams.

One detection per line, comma-delimited:

    frame,x,y,w,h,conf,class[,e0,e1,...,e{D-1}]

Lines starting with '#' are comments. Optional trailing columns form an
appearance descriptor; every line that carries one must carry the same
number of embedding columns. Rows must arrive in non-decreasing frame
order so the stream can be consumed online.

`parse_detections` yields one `DetectionBatch` of arrays per frame. Each
row's seven head fields are converted and checked as the row is read; the
embedding columns of a frame's rows are read together by one `np.loadtxt`
call when the frame ends, and their norms checked in one pass. Whenever
that pass cannot vouch for a row, the frame's embeddings are parsed again
row by row, so values and error messages are exactly those of a
row-at-a-time parse. `metrics.load_boxes` reads evaluation files with the
same row checks. `Detection` is the one-row form that `synth` writes;
`DetectionBatch.stack` turns a frame's list of them into a batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
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


def _check_row(parts: Sequence[str], line_no: int, embed_dim: Optional[int],
               last_frame: Optional[int], path) -> tuple[tuple, int]:
    """(head fields, embedding dim) of one row split at its first 7 commas.

    Checks everything but the embedding values, which are read with the
    rest of the frame; a row that breaks the dimension or frame order has
    its own embedding checked first, as a row-at-a-time parse would.
    """
    if len(parts) < 7:
        raise ParseError(f"expected at least 7 comma-separated columns, got {len(parts)}",
                         line_no, path)
    head = _parse_head(parts, line_no, path)
    dim = parts[7].count(",") + 1 if len(parts) > 7 else 0
    mismatch = embed_dim is not None and dim != embed_dim
    disordered = last_frame is not None and head[0] < last_frame
    if mismatch or disordered:
        if dim:
            _parse_embedding(parts[7].split(","), line_no, path)
        if mismatch:
            raise ParseError(f"embedding dimension {dim} does not match expected {embed_dim}",
                             line_no, path)
        raise ParseError(f"frame {head[0]} after frame {last_frame}; stream must be "
                         "ordered by frame", line_no, path)
    return head, dim


def _embedding_block(tails: list[str], dim: int) -> Optional[np.ndarray]:
    """(m, dim) unit descriptors from the embedding text of m rows, or None
    when the batched read cannot vouch for every row.

    One loadtxt call reads the whole block. It is trusted only when it reads
    m rows of dim finite values and warns of nothing: loadtxt skips blank
    lines and rejects embedded newlines, so no row can shift into another's
    place. A row whose batched norm is within half the unit tolerance of 1
    is kept as it is, which normalize_appearance would do too; every other
    row goes through normalize_appearance, so every row has its per-row bits.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = np.loadtxt(tails, delimiter=",", comments=None, ndmin=2)
    except (ValueError, UserWarning):
        return None
    if block.shape != (len(tails), dim) or not np.isfinite(block).all():
        return None
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(block, axis=1)
    for i in np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL / 2):
        try:
            block[i] = normalize_appearance(block[i])
        except ValidationError:
            return None
    return block


def _frame_batch(frame: int, line_nos: list[int], heads: list[tuple], tails: list[str],
                 dim: int, min_confidence: float, path) -> DetectionBatch:
    """The batch of one frame's rows, given their checked head fields and
    embedding text; raises the ParseError of the first bad embedding."""
    appearance = _embedding_block(tails, dim) if dim else np.empty((len(heads), 0))
    if appearance is None:
        appearance = np.array([_parse_embedding(tail.split(","), line_no, path)
                               for line_no, tail in zip(line_nos, tails)])
    fields = np.array([head[1:6] for head in heads], dtype=np.float64)
    class_ids = np.array([head[6] for head in heads], dtype=np.int64)
    keep = fields[:, 4] >= min_confidence
    if not keep.all():
        fields, class_ids, appearance = fields[keep], class_ids[keep], appearance[keep]
    return DetectionBatch(frame=frame, boxes=fields[:, :4], confidence=fields[:, 4],
                          class_ids=class_ids, appearance=appearance)


def parse_detections(
    source: IO[str] | Iterable[str],
    min_confidence: float = 0.0,
    path=None,
) -> Iterator[tuple[int, DetectionBatch]]:
    """Stream (frame, batch) pairs from delimited text.

    Batches come out in strictly increasing frame order; frames absent from
    the input yield no batch. Detections below min_confidence are dropped
    at ingest, after they are checked. Every row must carry as many
    embedding columns as the first. A bad stream raises the ParseError a
    row-at-a-time parse would raise first: the same message, at the same
    line. A bad embedding is found when its frame ends, so the frame's rows
    are read before it is raised.
    """
    embed_dim: Optional[int] = None
    current: Optional[int] = None
    line_nos: list[int] = []
    heads: list[tuple] = []
    tails: list[str] = []

    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",", 7)
        try:
            head, dim = _check_row(parts, line_no, embed_dim, current, path)
        except ParseError:
            # an embedding error on an earlier row of the frame comes first
            if current is not None:
                _frame_batch(current, line_nos, heads, tails, embed_dim, min_confidence, path)
            raise
        if head[0] != current:
            if current is not None:
                yield current, _frame_batch(current, line_nos, heads, tails, embed_dim,
                                            min_confidence, path)
            # after the first row, dim can only equal embed_dim
            embed_dim, current, line_nos, heads, tails = dim, head[0], [], [], []
        line_nos.append(line_no)
        heads.append(head)
        if dim:
            tails.append(parts[7])

    if current is not None:
        yield current, _frame_batch(current, line_nos, heads, tails, embed_dim,
                                    min_confidence, path)


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
