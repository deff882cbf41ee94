"""Parsing and validation of per-frame detection streams.

One detection per line, comma-delimited:

    frame,x,y,w,h,conf,class[,e0,e1,...,e{D-1}]

Lines starting with '#' are comments. Optional trailing columns form an
appearance descriptor; every line that carries one must carry the same
number of embedding columns. Rows must arrive in non-decreasing frame
order so the stream can be consumed online.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ParseError, ValidationError

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


def parse_row(parts: Sequence[str], line_no: int, path) -> tuple[int, Detection, int]:
    """Returns (frame, detection, embedding_dim); dim 0 means no descriptor."""
    try:
        frame = int(parts[0])
        x, y, w, h = (float(p) for p in parts[1:5])
        conf = float(parts[5])
        class_id = int(parts[6])
    except ValueError as exc:
        raise ParseError(f"unparseable field ({exc})", line_no, path) from None

    if not all(abs(v) <= MAX_BOX_PX for v in (x, y, w, h)):
        raise ParseError(f"bounding box values must be finite and within "
                         f"±{MAX_BOX_PX:g} px, got {(x, y, w, h)}", line_no, path)
    if frame < 1:
        raise ParseError(f"frame index must be >= 1, got {frame}", line_no, path)
    if class_id < 0:
        raise ParseError(f"class id must be >= 0, got {class_id}", line_no, path)
    if not (w > 0 and h > 0):
        raise ParseError(f"bounding box width/height must be positive, got ({w}, {h})",
                         line_no, path)
    if not 0.0 <= conf <= 1.0:
        raise ParseError(f"confidence must be in [0,1], got {conf}", line_no, path)

    appearance = None
    dim = len(parts) - 7
    if dim > 0:
        try:
            raw = np.array([float(p) for p in parts[7:]], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"unparseable embedding ({exc})", line_no, path) from None
        try:
            appearance = normalize_appearance(raw)
        except ValidationError as exc:
            raise ParseError(str(exc), line_no, path) from None

    det = Detection(frame=frame, class_id=class_id, bbox=(x, y, w, h),
                    confidence=conf, appearance=appearance)
    return frame, det, dim


def parse_detections(
    source: IO[str] | Iterable[str],
    min_confidence: float = 0.0,
    path=None,
) -> Iterator[tuple[int, list[Detection]]]:
    """Stream (frame, detections) batches from delimited text.

    Batches come out in strictly increasing frame order; frames absent from
    the input yield no batch (see iter_frames for gap filling). Detections
    below min_confidence are dropped at ingest. Every row must carry as
    many embedding columns as the first.
    """
    embed_dim: Optional[int] = None
    current_frame: Optional[int] = None
    batch: list[Detection] = []

    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 7:
            raise ParseError(
                f"expected at least 7 comma-separated columns, got {len(parts)}",
                line_no, path,
            )
        frame, det, dim = parse_row(parts, line_no, path)

        if embed_dim is None:
            embed_dim = dim
        elif dim != embed_dim:
            raise ParseError(
                f"embedding dimension {dim} does not match expected {embed_dim}",
                line_no, path,
            )

        if current_frame is None:
            current_frame = frame
        elif frame < current_frame:
            raise ParseError(
                f"frame {frame} after frame {current_frame}; stream must be "
                "ordered by frame", line_no, path,
            )
        elif frame > current_frame:
            yield current_frame, batch
            current_frame, batch = frame, []

        if det.confidence >= min_confidence:
            batch.append(det)

    if current_frame is not None:
        yield current_frame, batch


def iter_frames(
    batches: Iterable[tuple[int, list[Detection]]],
) -> Iterator[tuple[int, list[Detection]]]:
    """Fill frame gaps with empty batches so every frame index from 1 gets stepped.

    Track lifecycles count frames, not batches, so frames with no
    detections still matter downstream.
    """
    next_frame = 1
    for frame, batch in batches:
        while next_frame < frame:
            yield next_frame, []
            next_frame += 1
        yield frame, batch
        next_frame = frame + 1


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
