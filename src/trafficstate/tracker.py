"""Per-frame tracking: predict, two-stage matching, update, lifecycle.

The tracker keeps every live track in arrays with one row per track, in
birth order, which is also id order: Kalman mean (n, 8) and covariance
(n, 8, 8), confirmed flags, hit and miss counters, class-vote counts, and
the fill count and next slot of a ring-buffer gallery (capacity, D) of
appearance descriptors. The batched kernels of `motion` and `assoc` read
these arrays directly; each frame appends its births once and drops its
deleted tracks with one mask. The galleries themselves sit in one shared
store whose rows are reused after their tracks end. A frame's detections
enter `step` as arrays too, one `detstream.DetectionBatch` whose boxes,
class ids and descriptors are read as they are, and the live tracks leave
it the same way, as one `LiveTracks` record of arrays per frame.

Every live track is projected into measurement space once per frame; the
projection serves both matching stages and the Kalman update. Stage 1
builds one gated motion/appearance cost matrix per frame, over all
confirmed tracks and detections, and solves it in a cascade that prefers
recently updated tracks: each miss age takes the slice of its own rows and
the detections still unmatched. Stage 2 mops up with plain IoU matching.
Each solve returns index arrays into its slice, which map back to track
rows and detection indices by indexing, so no match becomes a Python pair.
New tracks start tentative and must associate in each of their first
n_init frames; confirmed tracks survive up to max_age missed frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import assoc, motion
from .detstream import MAX_BOX_PX, UNIT_NORM_TOL, DetectionBatch
from .errors import ContractError, ValidationError

DEFAULT_MAX_AGE = 3
DEFAULT_N_INIT = 3
DEFAULT_LAMBDA = 0.0

# Per-track arrays, all indexed by row; births append and deletions mask them together.
_TRACK_ARRAYS = ("_ids", "_mean", "_cov", "_confirmed", "_hits", "_misses",
                 "_votes", "_store", "_fill", "_slot")


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
        # written as not (in range) so that NaN is rejected too
        if not (0.0 <= self.cost_lambda <= 1.0):
            raise ValidationError(f"cost_lambda must be in [0, 1], got {self.cost_lambda}")
        if not (self.motion_gate > 0 and self.appearance_gate > 0):
            raise ValidationError("motion_gate and appearance_gate must be > 0")
        if not (0.0 <= self.iou_gate <= 1.0):
            raise ValidationError(f"iou_gate must be in [0, 1], got {self.iou_gate}")
        if self.max_age < 1 or self.n_init < 1 or self.gallery_capacity < 1:
            raise ValidationError("max_age, n_init and gallery_capacity must be >= 1")


class Tracker:
    """Sequential multi-object tracker; one instance per detection stream."""

    def __init__(self, config: Optional[TrackerConfig] = None,
                 kf: Optional[motion.KalmanFilter] = None):
        self.config = config or TrackerConfig()
        self.kf = kf or motion.KalmanFilter()
        self._ids = np.empty(0, dtype=np.int64)
        self._mean = np.empty((0, 8))
        self._cov = np.empty((0, 8, 8))
        self._confirmed = np.empty(0, dtype=bool)
        self._hits = np.empty(0, dtype=np.int64)
        self._misses = np.empty(0, dtype=np.int64)  # frames since the last update
        # votes[:, k] counts detections of class classes[k]; classes stays sorted,
        # so argmax breaks ties toward the lower class id
        self._classes = np.empty(0, dtype=np.int64)
        self._votes = np.empty((0, 0), dtype=np.int64)
        # ring buffer per track in gallery[store]: fill members live in slots
        # [0, fill), slot is the next write; D stays 0 until the first
        # descriptor arrives. Buffers outlive their tracks and are reused from
        # the free list: reallocating the large gallery array on every birth or
        # deletion raised peak RSS through memory the allocator kept.
        self._gallery = np.empty((0, self.config.gallery_capacity, 0))
        self._store = np.empty(0, dtype=np.int64)
        self._free: list[int] = []
        self._fill = np.empty(0, dtype=np.int64)
        self._slot = np.empty(0, dtype=np.int64)
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
            raise ContractError(
                f"frame {frame} not after previous frame {self._last_frame}"
            )
        if batch.frame != frame:
            raise ContractError(f"batch for frame {batch.frame} stepped as frame {frame}")
        boxes = batch.boxes
        # the parser's bound: NaN fails it, and no square of a value overflows
        if not ((np.abs(boxes) <= MAX_BOX_PX).all() and (boxes[:, 2:] > 0).all()):
            raise ValidationError(f"detection boxes must lie within ±{MAX_BOX_PX:g} px, "
                                  "with positive width and height")
        descriptors, has_desc = self._descriptors(batch.appearance)
        self._last_frame = frame

        class_cols = self._class_columns(batch.class_ids)
        self._mean, self._cov = self.kf.predict_many(self._mean, self._cov)
        # one projection of every live track serves both stages and the update
        y, s, ok = self.kf.project_many(self._mean, self._cov)
        measurements = assoc.measurements_of(boxes)
        rows, cols, unmatched, births = self._match(boxes, measurements,
                                                    descriptors, has_desc, y, s, ok)

        if len(rows):
            self._mean[rows], self._cov[rows] = self.kf.update_many(
                self._mean[rows], self._cov[rows], measurements[cols],
                y[rows], s[rows], ok[rows])
        self._misses[unmatched] += 1
        n = len(self._ids)
        dead = np.zeros(n + len(births), dtype=bool)
        dead[unmatched] = ~self._confirmed[unmatched] \
            | (self._misses[unmatched] > self.config.max_age)

        # births join the matched rows as tracks associated with a detection this frame
        self._start_tracks(measurements[births])
        rows = np.concatenate([rows, np.arange(n, n + len(births))])
        cols = np.concatenate([cols, births])
        pushed = has_desc[cols]
        self._push(rows[pushed], descriptors[cols[pushed]])
        self._votes[rows, class_cols[cols]] += 1
        self._hits[rows] += 1
        self._misses[rows] = 0
        self._confirmed |= self._hits >= self.config.n_init
        det_of = np.full(len(dead), -1)
        det_of[rows] = cols

        if dead.any():
            self._free += self._store[dead].tolist()
            for name in _TRACK_ARRAYS:
                setattr(self, name, getattr(self, name)[~dead])
            det_of = det_of[~dead]
        out_boxes = motion.bbox_from_state(self._mean)
        matched = det_of >= 0
        out_boxes[matched] = boxes[det_of[matched]]
        # with no live track there may be no class column to take an argmax over
        top = self._votes.argmax(axis=1) if len(self._ids) else np.empty(0, np.int64)
        return LiveTracks(frame=frame, ids=self._ids.copy(), confirmed=self._confirmed.copy(),
                          class_ids=self._classes[top],
                          boxes=out_boxes)

    # -- internals -------------------------------------------------------------

    def _descriptors(self, appearance: np.ndarray):
        """(m, D) descriptors and the (m,) mask of those present, which is
        all of them, or none when the batch carries no descriptors.

        Every descriptor ends up in a gallery, so each must be unit-norm, of
        the dimension fixed by the first descriptors the tracker sees.
        """
        m, dim = appearance.shape
        known = self._gallery.shape[2]
        if m == 0 or dim == 0:
            return np.zeros((m, known)), np.zeros(m, dtype=bool)
        if known and dim != known:
            raise ValidationError(
                f"descriptor dimension {dim} does not match gallery dimension {known}")
        # written as not (within tolerance) so that NaN is rejected too
        if not (np.abs(np.linalg.norm(appearance, axis=1) - 1.0) <= UNIT_NORM_TOL).all():
            raise ValidationError("gallery descriptors must be unit-norm")
        if not known:
            self._gallery = np.zeros((len(self._gallery), self.config.gallery_capacity, dim))
        return appearance, np.ones(m, dtype=bool)

    def _class_columns(self, class_ids: np.ndarray) -> np.ndarray:
        """Vote columns of the given class ids, adding columns for new classes."""
        new = set(class_ids.tolist()).difference(self._classes.tolist())
        if new:
            classes = np.union1d(self._classes, list(new))
            votes = np.zeros((len(self._ids), len(classes)), dtype=np.int64)
            votes[:, np.searchsorted(classes, self._classes)] = self._votes
            self._classes, self._votes = classes, votes
        return np.searchsorted(self._classes, class_ids)

    def _match(self, boxes: np.ndarray, measurements: np.ndarray,
               descriptors: np.ndarray, has_desc: np.ndarray,
               y: np.ndarray, s: np.ndarray, ok: np.ndarray):
        """Two-stage matching of the live tracks, projected as (y, s, ok).

        Stage 1 builds one gated cost matrix per frame, over all confirmed
        tracks and all detections; each cascade age, freshest first, solves
        the slice of its own rows and the detections still unmatched.

        Returns (matched rows, their detection indices, unmatched rows,
        unmatched detection indices), all as index arrays.
        """
        cfg = self.config
        remaining = np.arange(len(boxes))
        rows = [np.empty(0, dtype=np.int64)]
        cols = [np.empty(0, dtype=np.int64)]

        # stage 1: gated cost matrix over confirmed tracks, freshest first
        confirmed = np.flatnonzero(self._confirmed)
        leftover = [np.flatnonzero(~self._confirmed)]
        if len(confirmed):
            cost = assoc.build_cost_matrix(
                y[confirmed], s[confirmed], ok[confirmed], measurements,
                self._gallery, self._store[confirmed], self._fill[confirmed],
                descriptors, has_desc,
                lam=cfg.cost_lambda, t1=cfg.motion_gate, t2=cfg.appearance_gate,
            )
            misses = self._misses[confirmed]
            for age in sorted(set(misses.tolist())):
                group = np.flatnonzero(misses == age)
                cells = np.ix_(group, remaining)
                result = assoc.solve_assignment(assoc.CostMatrix(
                    values=cost.values[cells], admissible=cost.admissible[cells]))
                rows.append(confirmed[group[result.matches[:, 0]]])
                cols.append(remaining[result.matches[:, 1]])
                leftover.append(confirmed[group[result.unmatched_tracks]])
                remaining = remaining[result.unmatched_detections]

        # stage 2: IoU matching over everything still unmatched, in id order;
        # tracks whose projection is ill-conditioned stay unmatched, as they
        # do in stage 1, so update_many never sees one
        stage2 = np.sort(np.concatenate(leftover))
        unmatched = stage2
        if len(stage2) and len(remaining):
            usable = stage2[ok[stage2]]
            cost = assoc.build_iou_cost_matrix(
                motion.bbox_from_state(self._mean[usable]), boxes[remaining],
                max_distance=cfg.iou_gate,
            )
            result = assoc.solve_assignment(cost)
            rows.append(usable[result.matches[:, 0]])
            cols.append(remaining[result.matches[:, 1]])
            unmatched = np.concatenate([stage2[~ok[stage2]],
                                        usable[result.unmatched_tracks]])
            remaining = remaining[result.unmatched_detections]

        return np.concatenate(rows), np.concatenate(cols), unmatched, remaining

    def _push(self, rows: np.ndarray, descriptors: np.ndarray) -> None:
        """Write one descriptor into each given track's ring buffer, evicting the oldest."""
        cap = self.config.gallery_capacity
        self._gallery[self._store[rows], self._slot[rows]] = descriptors
        self._slot[rows] = (self._slot[rows] + 1) % cap
        self._fill[rows] = np.minimum(self._fill[rows] + 1, cap)

    def _start_tracks(self, measurements: np.ndarray) -> None:
        """Append one tentative track per given measurement row, ids in row
        order, with empty counters and gallery."""
        k = len(measurements)
        if k == 0:
            return
        mean = np.empty((k, 8))
        cov = np.empty((k, 8, 8))
        for i, z in enumerate(measurements):
            mean[i], cov[i] = self.kf.initiate(z)
        grow = k - len(self._free)
        if grow > 0:
            grow = max(grow, len(self._gallery))  # double, so growth stays rare
            self._free += range(len(self._gallery), len(self._gallery) + grow)
            gallery = np.empty((len(self._gallery) + grow,) + self._gallery.shape[1:])
            gallery[:len(self._gallery)] = self._gallery
            self._gallery = gallery
        store, self._free = self._free[:k], self._free[k:]
        zeros = np.zeros(k, dtype=np.int64)
        new = dict(
            _ids=np.arange(self._next_id, self._next_id + k), _mean=mean, _cov=cov,
            _confirmed=np.zeros(k, dtype=bool), _hits=zeros, _misses=zeros,
            _votes=np.zeros((k, len(self._classes)), dtype=np.int64),
            _store=np.array(store, dtype=np.int64), _fill=zeros, _slot=zeros,
        )
        self._next_id += k
        for name in _TRACK_ARRAYS:
            setattr(self, name, np.concatenate([getattr(self, name), new[name]]))

