"""Per-frame tracking: predict, two-stage matching, update, lifecycle.

The tracker keeps every live track in arrays with one row per track, in
birth order, which is also id order: Kalman mean (n, 8) and covariance
(n, 8, 8), confirmed flags, hit and miss counters, class-vote counts, and
the fill count and next slot of a ring-buffer gallery (capacity, D) of
appearance descriptors. The batched kernels of `motion` and `assoc` read
these arrays directly; each frame appends its births once and drops its
deleted tracks with one mask. The galleries themselves sit in one shared
store whose rows are reused after their tracks end.

Every live track is projected into measurement space once per frame; the
projection serves both matching stages and the Kalman update. Stage 1
builds one gated motion/appearance cost matrix per frame, over all
confirmed tracks and detections, and solves it in a cascade that prefers
recently updated tracks: each miss age takes the slice of its own rows and
the detections still unmatched. Stage 2 mops up with plain IoU matching.
New tracks start tentative and must associate in each of their first
n_init frames; confirmed tracks survive up to max_age missed frames.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import assoc, motion
from .detstream import UNIT_NORM_TOL, Detection
from .errors import ContractError, ValidationError

DEFAULT_MAX_AGE = 3
DEFAULT_N_INIT = 3
DEFAULT_LAMBDA = 0.0

# Per-track arrays, all indexed by row; births append and deletions mask them together.
_TRACK_ARRAYS = ("_ids", "_mean", "_cov", "_confirmed", "_hits", "_misses",
                 "_votes", "_store", "_fill", "_slot")


class TrackStatus(enum.Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"


@dataclass
class TrackSnapshot:
    """Per-frame public view of one live track."""

    frame: int
    track_id: int
    status: TrackStatus
    class_id: int
    bbox: tuple[float, float, float, float]
    centroid: tuple[float, float]


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
        self._classes: list[int] = []
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

    def step(self, frame: int, detections: Sequence[Detection]) -> list[TrackSnapshot]:
        """Advance one frame and return snapshots of all live tracks."""
        if frame <= self._last_frame:
            raise ContractError(
                f"frame {frame} not after previous frame {self._last_frame}"
            )
        for det in detections:
            if det.frame != frame:
                raise ContractError(
                    f"detection for frame {det.frame} in batch for frame {frame}"
                )
        descriptors, has_desc = self._descriptors(detections)
        self._last_frame = frame

        class_cols = self._class_columns([d.class_id for d in detections])
        boxes = np.array([d.bbox for d in detections], dtype=np.float64).reshape(-1, 4)
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
        self._start_tracks(detections, births)
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

        live = np.flatnonzero(~dead)
        snapshots = []
        if len(live):
            predicted = motion.bbox_from_state(self._mean[live]).tolist()
            class_ids = [self._classes[k]
                         for k in np.argmax(self._votes[live], axis=1).tolist()]
            for i, (row, track_id, confirmed) in enumerate(zip(
                    live.tolist(), self._ids[live].tolist(),
                    self._confirmed[live].tolist())):
                j = det_of[row]
                bbox = detections[j].bbox if j >= 0 else tuple(predicted[i])
                x, y, w, h = bbox
                snapshots.append(TrackSnapshot(
                    frame=frame, track_id=track_id,
                    status=TrackStatus.CONFIRMED if confirmed else TrackStatus.TENTATIVE,
                    class_id=class_ids[i], bbox=bbox,
                    centroid=(x + w / 2.0, y + h / 2.0),
                ))
        if dead.any():
            self._free += self._store[dead].tolist()
            for name in _TRACK_ARRAYS:
                setattr(self, name, getattr(self, name)[~dead])
        return snapshots

    # -- internals -------------------------------------------------------------

    def _descriptors(self, detections: Sequence[Detection]):
        """(m, D) descriptors, zero where absent, and the (m,) presence mask.

        Every descriptor ends up in a gallery, so each must be unit-norm and
        share one dimension, fixed by the first descriptor the tracker sees.
        """
        present = [np.asarray(d.appearance, dtype=np.float64)
                   for d in detections if d.appearance is not None]
        dim = self._gallery.shape[2]
        for desc in present:
            if dim == 0:
                dim = desc.shape[0]
            elif desc.shape[0] != dim:
                raise ValidationError(
                    f"descriptor dimension {desc.shape[0]} does not match "
                    f"gallery dimension {dim}"
                )
        has_desc = np.array([d.appearance is not None for d in detections], dtype=bool)
        descriptors = np.zeros((len(detections), dim))
        if present:
            descriptors[has_desc] = present
            if (np.abs(np.linalg.norm(descriptors[has_desc], axis=1) - 1.0)
                    > UNIT_NORM_TOL).any():
                raise ValidationError("gallery descriptors must be unit-norm")
        if dim != self._gallery.shape[2]:
            self._gallery = np.zeros((len(self._gallery), self.config.gallery_capacity, dim))
        return descriptors, has_desc

    def _class_columns(self, class_ids: list[int]) -> np.ndarray:
        """Vote columns of the given class ids, adding columns for new classes."""
        new = set(class_ids).difference(self._classes)
        if new:
            classes = sorted(new.union(self._classes))
            votes = np.zeros((len(self._ids), len(classes)), dtype=np.int64)
            votes[:, [classes.index(c) for c in self._classes]] = self._votes
            self._classes, self._votes = classes, votes
        column = {c: k for k, c in enumerate(self._classes)}
        return np.array([column[c] for c in class_ids], dtype=np.int64)

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
        rows: list[int] = []
        cols: list[int] = []

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
                rows += [confirmed[group[gi]] for gi, _ in result.matches]
                cols += [remaining[rj] for _, rj in result.matches]
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
            matched = usable[np.array([ti for ti, _ in result.matches], dtype=np.int64)]
            rows += matched.tolist()
            cols += [remaining[rj] for _, rj in result.matches]
            unmatched = np.setdiff1d(stage2, matched)
            remaining = remaining[result.unmatched_detections]

        return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                unmatched, remaining)

    def _push(self, rows: np.ndarray, descriptors: np.ndarray) -> None:
        """Write one descriptor into each given track's ring buffer, evicting the oldest."""
        cap = self.config.gallery_capacity
        self._gallery[self._store[rows], self._slot[rows]] = descriptors
        self._slot[rows] = (self._slot[rows] + 1) % cap
        self._fill[rows] = np.minimum(self._fill[rows] + 1, cap)

    def _start_tracks(self, detections: Sequence[Detection], births: np.ndarray) -> None:
        """Append one tentative track per unmatched detection, ids in detection
        order, with empty counters and gallery."""
        k = len(births)
        if k == 0:
            return
        mean = np.empty((k, 8))
        cov = np.empty((k, 8, 8))
        for i, j in enumerate(births.tolist()):
            mean[i], cov[i] = self.kf.initiate(detections[j].bbox)
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


def format_track_row(snap: TrackSnapshot) -> str:
    """One line of the tracks output file: frame, id, class, u, v, w, h."""
    x, y, w, h = snap.bbox
    u, v = snap.centroid
    cols = [str(snap.frame), str(snap.track_id), str(snap.class_id)]
    cols += [f"{val:.6g}" for val in (u, v, w, h)]
    return "\t".join(cols)
