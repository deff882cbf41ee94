"""Per-frame tracking: predict, two-stage matching, update, lifecycle.

The tracker keeps every live track in arrays whose last axis runs over
the tracks, in birth order, which is also id order: Kalman means (8, n)
and covariance blocks (3, 4, n), held component-major so that each state
component of all tracks is one contiguous row (see `motion`), hit and
miss counters, class-vote counts (classes, n), and the number of
appearance descriptors pushed into each track's ring-buffer gallery
(capacity, D). Nothing that these imply is stored: hits never decrease,
so a track is confirmed once its hits reach n_init, and a gallery's fill
and next slot follow from its push count. The batched kernels of
`motion` and `assoc` read these arrays directly. Each frame starts its
births with one `KalmanFilter.initiate` call, appends them to every
array once, by concatenation along the last axis, and drops its deleted
tracks with one `take` along it. The galleries themselves sit in one
shared store whose rows are reused after their tracks end. A frame's
detections enter `step` as arrays too, one `detstream.DetectionBatch`
whose boxes, class ids and descriptors are read as they are, and the
live tracks leave it the same way, as one `LiveTracks` record of arrays
per frame.

Every live track is projected into measurement space, and its predicted
box computed, once per frame; the projection serves both matching stages
and the Kalman update, the box stage 2 and the output of a track left
unmatched. Stage 1 builds one gated motion/appearance cost matrix per
frame, with a row per track that can match, a confirmed one whose
projection is usable, and solves it once, as a cascade that prefers
recently updated tracks. A pair alone in its row and its column
of the whole matrix would win its miss age's slice too, so all such
forced pairs are taken in one pass; rows with no admissible cell go
straight to stage 2; only rows with contested cells are solved age by
age, freshest first, each age over the columns the younger ages left.
On a frame where nothing is contested, stage 1 is one pass with no loop.
Stage 2 mops up with plain IoU matching. Each solve returns index arrays
into its matrix, which map back to track rows and detection indices by
indexing, so no match becomes a Python pair. New tracks start tentative
and must associate in each of their first n_init frames; confirmed
tracks survive up to max_age missed frames.

With tens of live tracks, a step's time goes to the fixed cost of its
NumPy calls rather than to their arithmetic. So tracks are gathered with
`take`, several times cheaper than fancy indexing on arrays this small,
boolean masks are tested with `np.count_nonzero`, cheaper than `any` or
`all`, and the ids are replaced rather than written in place, so that a
`LiveTracks` record can hold them without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import assoc, motion
from .detstream import MAX_BOX_PX, UNIT_NORM_TOL, DetectionBatch
from .errors import ContractError, ValidationError, positive, require

DEFAULT_MAX_AGE = 3
DEFAULT_N_INIT = 3
DEFAULT_LAMBDA = 0.0
# each birth allocates a (gallery_capacity, D) float64 gallery, so the
# capacity is bounded: 100 times assoc.GALLERY_CAPACITY
MAX_GALLERY_CAPACITY = 10**4

# Lower bounds of a detection box (x, y, w, h): the parser's, with w, h > 0
# written as at least the smallest positive float.
_BOX_LOW = np.array([-MAX_BOX_PX, -MAX_BOX_PX] + 2 * [np.nextafter(0.0, 1.0)])

# Per-track arrays, all indexed by their last axis; births append to them
# and deletions drop their tracks, together.
_TRACK_ARRAYS = ("_ids", "_mean", "_cov", "_hits", "_misses", "_votes", "_store", "_pushed")


@dataclass(frozen=True, slots=True)
class LiveTracks:
    """The tracks alive after one frame, one row per track, in id order.

    boxes (n, 4) holds each track's (x, y, w, h) pixel box: the box of the
    detection it matched this frame, or its predicted box when it had none.
    class_ids holds each track's most-voted class, ties toward the lower id.
    """

    frame: int
    ids: np.ndarray        # (n,) int64
    confirmed: np.ndarray  # (n,) bool
    class_ids: np.ndarray  # (n,) int64
    boxes: np.ndarray      # (n, 4) float64


@dataclass
class TrackerConfig:
    cost_lambda: float = DEFAULT_LAMBDA
    motion_gate: float = assoc.CHI2_95_4DOF
    appearance_gate: float = assoc.DEFAULT_APPEARANCE_GATE
    iou_gate: float = assoc.DEFAULT_IOU_GATE
    max_age: int = DEFAULT_MAX_AGE
    n_init: int = DEFAULT_N_INIT
    gallery_capacity: int = assoc.GALLERY_CAPACITY

    def __post_init__(self):
        require(self, "cost_lambda iou_gate", lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
        require(self, "motion_gate", positive, "finite and > 0")
        require(self, "appearance_gate", lambda v: v > 0, "> 0")
        require(self, "max_age n_init", lambda v: v >= 1, ">= 1")
        require(self, "gallery_capacity", lambda v: 1 <= v <= MAX_GALLERY_CAPACITY,
                f"in [1, {MAX_GALLERY_CAPACITY}]")


class Tracker:
    """Sequential multi-object tracker; one instance per detection stream."""

    def __init__(self, config: Optional[TrackerConfig] = None,
                 kf: Optional[motion.KalmanFilter] = None):
        self.config = config or TrackerConfig()
        self.kf = kf or motion.KalmanFilter()
        self._ids = np.empty(0, dtype=np.int64)
        self._mean = np.empty((8, 0))
        self._cov = np.empty((3, 4, 0))
        self._hits = np.empty(0, dtype=np.int64)
        self._misses = np.empty(0, dtype=np.int64)  # frames since the last update
        # votes[k] counts detections of class classes[k]; classes stays sorted,
        # so argmax breaks ties toward the lower class id
        self._classes = np.empty(0, dtype=np.int64)
        self._votes = np.empty((0, 0), dtype=np.int64)
        # ring buffer per track in gallery[store]: after `pushed` writes its
        # members fill slots [0, min(pushed, capacity)), and the next write
        # goes to slot pushed % capacity; D stays 0 until the first descriptor
        # arrives. Buffers outlive their tracks and are reused from the free
        # list: reallocating the large gallery array on every birth or
        # deletion raised peak RSS through memory the allocator kept.
        self._gallery = np.empty((0, self.config.gallery_capacity, 0))
        self._store = np.empty(0, dtype=np.int64)
        self._free: list[int] = []
        self._pushed = np.empty(0, dtype=np.int64)
        self._next_id = 1
        self._last_frame = 0

    @property
    def tracks(self) -> list[int]:
        """Ids of the live tracks, in birth order."""
        return self._ids.tolist()

    # -- public API ----------------------------------------------------------

    def step(self, frame: int, batch: DetectionBatch) -> LiveTracks:
        """Advance one frame with its detections and return the tracks alive after it."""
        if frame <= self._last_frame:
            raise ContractError(f"frame {frame} not after previous frame {self._last_frame}")
        if batch.frame != frame:
            raise ContractError(f"batch for frame {batch.frame} stepped as frame {frame}")
        boxes = batch.boxes
        # the parser's bounds: NaN fails them, and no square of a value overflows
        if np.count_nonzero((boxes >= _BOX_LOW) & (boxes <= MAX_BOX_PX)) < boxes.size:
            raise ValidationError(f"detection boxes must lie within ±{MAX_BOX_PX:g} px, "
                                  "with positive width and height")
        descriptors = self._descriptors(batch.appearance)
        self._last_frame = frame

        class_cols = self._class_columns(batch.class_ids)
        self._mean, self._cov = self.kf.predict_many(self._mean, self._cov)
        # one projection and one predicted box of every live track serve both
        # stages, the update and the boxes of the tracks left unmatched
        y, s, ok = self.kf.project_many(self._mean, self._cov)
        out_boxes = motion.bbox_from_state(self._mean)
        measurements = assoc.measurements_of(boxes)
        rows, cols, births = self._match(boxes, measurements, descriptors, y, s, ok, out_boxes)

        if len(rows):
            self._mean[:, rows], self._cov[..., rows] = self.kf.update_many(
                self._mean.take(rows, 1), self._cov.take(rows, 2), measurements.take(cols, 1),
                y.take(rows, 1), s.take(rows, 1), ok.take(rows))
        # every live track misses this frame unless it is matched; births join
        # the matched rows as tracks associated with a detection this frame
        self._misses += 1
        if len(births):
            n = len(self._ids)
            self._start_tracks(measurements.take(births, 1))
            rows = np.concatenate([rows, np.arange(n, n + len(births))])
            cols = np.concatenate([cols, births])
            out_boxes = np.concatenate([out_boxes, boxes.take(births, 0)])
        cfg = self.config
        if descriptors.shape[1]:   # each matched track's ring buffer takes its descriptor
            pushed = self._pushed.take(rows)
            self._gallery[self._store.take(rows), pushed % cfg.gallery_capacity] = \
                descriptors.take(cols, 0)
            self._pushed[rows] = pushed + 1
        np.add.at(self._votes, (class_cols[cols], rows), 1)
        self._hits[rows] += 1
        self._misses[rows] = 0
        out_boxes[rows] = boxes.take(cols, 0)

        # an unmatched track dies if it is tentative or past max_age; a track
        # gets a hit only on a frame it is matched, so an unmatched one is as
        # tentative as it was before this frame. No track misses 2**62 frames
        confirmed = self._hits >= cfg.n_init
        dead = self._misses > confirmed * min(cfg.max_age, 2**62)
        if np.count_nonzero(dead):
            self._free += self._store[dead].tolist()
            alive = (~dead).nonzero()[0]
            for name in _TRACK_ARRAYS:
                setattr(self, name, getattr(self, name).take(alive, -1))
            out_boxes, confirmed = out_boxes.take(alive, 0), confirmed.take(alive)
        # with no live track there may be no class column to take an argmax over
        top = self._votes.argmax(axis=0) if len(self._ids) else np.empty(0, np.int64)
        return LiveTracks(frame=frame, ids=self._ids, confirmed=confirmed,
                          class_ids=self._classes[top], boxes=out_boxes)

    # -- internals -------------------------------------------------------------

    def _descriptors(self, appearance: np.ndarray) -> np.ndarray:
        """The batch's (m, D) descriptors, with D = 0 when it carries none: a
        batch's detections all have descriptors, or none of them has.

        Every descriptor ends up in a gallery, so each must be unit-norm, of
        the dimension fixed by the first descriptors the tracker sees.
        """
        m, dim = appearance.shape
        known = self._gallery.shape[2]
        if m == 0 or dim == 0:
            return appearance[:, :0]
        if known and dim != known:
            raise ValidationError(
                f"descriptor dimension {dim} does not match gallery dimension {known}")
        # written as not (within tolerance) so that NaN is rejected too
        if not (np.abs(np.linalg.norm(appearance, axis=1) - 1.0) <= UNIT_NORM_TOL).all():
            raise ValidationError("gallery descriptors must be unit-norm")
        if not known:
            self._gallery = np.zeros((len(self._gallery), self.config.gallery_capacity, dim))
        return appearance

    def _class_columns(self, class_ids: np.ndarray) -> np.ndarray:
        """Vote columns of the given class ids, adding columns for new classes."""
        known = self._classes.tolist()
        new = set(class_ids.tolist()).difference(known)
        if new:
            # sorted from the set: np.union1d would load numpy.ma on first use
            classes = np.array(sorted(new.union(known)), dtype=np.int64)
            votes = np.zeros((len(classes), len(self._ids)), dtype=np.int64)
            votes[classes.searchsorted(self._classes)] = self._votes
            self._classes, self._votes = classes, votes
        return self._classes.searchsorted(class_ids)

    def _match(self, boxes: np.ndarray, measurements: np.ndarray, descriptors: np.ndarray,
               y: np.ndarray, s: np.ndarray, ok: np.ndarray, predicted: np.ndarray):
        """Two-stage matching of the live tracks, projected as (y, s, ok),
        with predicted boxes (n, 4).

        Stage 1 takes its candidates once, the confirmed tracks whose
        projection is usable, as track rows, and builds one gated cost
        matrix per frame over them and all detections. It solves it once,
        as a cascade over the candidates' miss ages: the forced pairs of
        the whole matrix are taken in one pass, rows with no admissible
        cell go on to stage 2, and only rows with contested cells are
        solved age by age, freshest first (see `assoc.solve_assignment`).
        Its matched rows map back to track rows through the candidates.

        Returns (matched rows, their detection indices, unmatched detection
        indices), all as index arrays.
        """
        cfg = self.config
        cand = (ok & (self._hits >= cfg.n_init)).nonzero()[0]
        cost = assoc.build_cost_matrix(
            y.take(cand, 1), s.take(cand, 1), measurements, self._gallery,
            self._store.take(cand), np.minimum(self._pushed.take(cand), cfg.gallery_capacity),
            descriptors, lam=cfg.cost_lambda, t1=cfg.motion_gate, t2=cfg.appearance_gate,
        )
        result = assoc.solve_assignment(cost, self._misses.take(cand))
        rows, cols = cand.take(result.matches[:, 0]), result.matches[:, 1]
        remaining = result.unmatched_detections

        # stage 2: IoU matching over everything still unmatched, in id order;
        # tracks whose projection is ill-conditioned stay unmatched, as they
        # do in stage 1, so update_many never sees one, and so do tracks whose
        # predicted box has shrunk to no width or height, which have no IoU
        if not len(remaining):
            return rows, cols, remaining
        usable = ok & (predicted[:, 2:] > 0).all(axis=1)
        usable[rows] = False
        usable = usable.nonzero()[0]
        if len(usable):
            cost = assoc.build_iou_cost_matrix(predicted.take(usable, 0),
                                               boxes.take(remaining, 0),
                                               max_distance=cfg.iou_gate)
            result = assoc.solve_assignment(cost)
            rows = np.concatenate([rows, usable[result.matches[:, 0]]])
            cols = np.concatenate([cols, remaining[result.matches[:, 1]]])
            remaining = remaining[result.unmatched_detections]
        return rows, cols, remaining

    def _start_tracks(self, measurements: np.ndarray) -> None:
        """Append one tentative track per given measurement column (4, k), ids
        in column order, with empty counters and gallery."""
        k = measurements.shape[1]
        mean, cov = self.kf.initiate(measurements)
        grow = k - len(self._free)
        if grow > 0:
            grow = max(grow, len(self._gallery))  # double, so growth stays rare
            self._free += range(len(self._gallery), len(self._gallery) + grow)
            gallery = np.empty((len(self._gallery) + grow,) + self._gallery.shape[1:])
            gallery[:len(self._gallery)] = self._gallery
            self._gallery = gallery
        store, self._free = self._free[:k], self._free[k:]
        zeros = np.zeros(k, dtype=np.int64)
        new = dict(_ids=np.arange(self._next_id, self._next_id + k), _mean=mean, _cov=cov,
                   _hits=zeros, _misses=zeros, _votes=np.zeros((len(self._classes), k), np.int64),
                   _store=np.array(store, dtype=np.int64), _pushed=zeros)
        self._next_id += k
        for name in _TRACK_ARRAYS:
            setattr(self, name, np.concatenate([getattr(self, name), new[name]], axis=-1))

