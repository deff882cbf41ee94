import tracemalloc

import numpy as np
import pytest

from trafficstate import assoc
from trafficstate.assoc import (
    CHI2_95_4DOF,
    CostMatrix,
    appearance_distances,
    build_cost_matrix,
    build_iou_cost_matrix,
    iou_matrix,
    measurements_of,
    motion_distances,
    solve_assignment,
)
from trafficstate.detstream import Detection, DetectionBatch
from trafficstate.errors import ContractError, NumericalError, ValidationError
from trafficstate.tracker import Tracker, TrackerConfig

from oracles import (
    appearance_by_pairs,
    brute_force_gated_assignment,
    cosine_gallery_distance,
    gate,
    iou,
    mahalanobis_sq,
)

stack = DetectionBatch.stack


def det(bbox, appearance=None, frame=1, class_id=0, conf=1.0):
    app = None if appearance is None else np.asarray(appearance, float)
    return Detection(frame=frame, class_id=class_id, bbox=bbox,
                     confidence=conf, appearance=app)


def mahalanobis(y, s, d):
    """Engine distance of one measurement from one projection, whose
    covariance is given by its diagonal s (4,); the engine takes each as a
    column (4, 1)."""
    return motion_distances(np.asarray(y, float)[:, None], np.asarray(s, float)[:, None],
                            np.array([True]), np.asarray(d, float)[:, None])[0, 0]


def store(galleries, dim):
    """(gallery, rows, fill) from lists of member rows, laid out as the
    tracker holds them: track i's members lead gallery[rows[i]], whose
    slots past fill[i] are NaN, so any of them that reached a distance
    would show."""
    fill = np.array([len(g) for g in galleries], dtype=np.int64)
    n = len(galleries)
    rows = np.arange(n)[::-1].copy()
    out = np.full((n, fill.max(initial=0) + 1, dim), np.nan)
    for i, g in enumerate(galleries):
        out[rows[i], :fill[i]] = np.asarray(g, float).reshape(fill[i], dim)
    return out, rows, fill


def members_of(tracker, row):
    """The gallery members a tracker holds for the track in the given row:
    the first min(pushed, capacity) slots of its buffer."""
    gallery = tracker._gallery
    return gallery[tracker._store[row], :min(tracker._pushed[row], gallery.shape[1])]


def cosine(members, r):
    """Engine distance of one query from one gallery."""
    r = np.asarray(r, float)
    zero = np.zeros(1, np.int64)
    d2 = appearance_distances(*store([members], len(r)), r[None], zero, zero)
    assert d2.shape == (1,)
    return d2[0]


def cost_matrix(projections, galleries, dets, lam, **gates):
    """build_cost_matrix over (y, s) projections (None: unusable), s the
    (4,) covariance diagonal, gallery member lists and Detection objects;
    the engine takes the projections as columns, y and s (4, n)."""
    ok = np.array([p is not None for p in projections])
    y = np.array([p[0] if p is not None else np.zeros(4) for p in projections], float).T
    s = np.array([p[1] if p is not None else np.ones(4) for p in projections], float).T
    # as in a DetectionBatch, every detection carries a descriptor or none does
    present = [d.appearance for d in dets if d.appearance is not None]
    assert len(present) in (0, len(dets))
    descs = np.array(present, float).reshape(len(dets), -1) if present \
        else np.empty((len(dets), 0))
    boxes = np.array([d.bbox for d in dets], float).reshape(-1, 4)
    return build_cost_matrix(y, s, ok, measurements_of(boxes),
                             *store(galleries, descs.shape[1]), descs, lam=lam, **gates)


def galleries(descriptors, capacity=100):
    """Yield, frame by frame, the gallery members a tracker holds for one
    stationary object that carries the given descriptors in turn."""
    tr = Tracker(TrackerConfig(gallery_capacity=capacity))
    for frame, d in enumerate(descriptors, start=1):
        tr.step(frame, stack(frame, [det((0, 0, 10, 20), appearance=d, frame=frame)]))
        assert tr.tracks == [1]
        yield members_of(tr, 0)


# -- mahalanobis ------------------------------------------------------------

def test_mahalanobis_zero_residual():
    assert mahalanobis([1, 2, 3, 4], [2.0, 3, 4, 5], [1.0, 2, 3, 4]) == 0.0


def test_mahalanobis_identity_is_squared_euclidean():
    assert mahalanobis([0, 0, 0, 0], np.ones(4), [3.0, 4, 0, 0]) == pytest.approx(25.0)


def test_mahalanobis_diagonal():
    assert mahalanobis([0, 0, 0, 0], [4.0, 1, 1, 1], [2.0, 0, 0, 0]) \
        == pytest.approx(1.0)


def test_mahalanobis_scaled_identity_property():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        sigma2 = rng.uniform(0.1, 50.0)
        y = rng.normal(size=4)
        d = rng.normal(size=4)
        got = mahalanobis(y, sigma2 * np.ones(4), d)
        want = float((d - y) @ (d - y)) / sigma2
        assert got == pytest.approx(want, abs=1e-9, rel=1e-9)
        assert got == pytest.approx(mahalanobis_sq(y, sigma2 * np.eye(4), d),
                                    abs=1e-9, rel=1e-9)


def test_mahalanobis_rejects_non_pd():
    with pytest.raises(NumericalError):
        mahalanobis([0, 0, 0, 0], -np.ones(4), np.zeros(4))


@pytest.mark.parametrize("n,m", [(1, 1), (1, 4), (4, 1), (2, 3)])
def test_motion_distances_rejects_a_row_per_track(n, m):
    # tracks and detections come as columns; one row each would broadcast
    # into a wrong answer for n and m of 1 or 4, and fail elsewhere
    y, s, z = np.zeros((n, 4)), np.ones((n, 4)), np.ones((m, 4))
    with pytest.raises(ContractError):
        motion_distances(y, s, np.ones(n, bool), z)
    assert motion_distances(y.T, s.T, np.ones(n, bool), z.T).shape == (n, m)


# -- gallery + cosine distance ------------------------------------------------

def unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


def test_cosine_self_query_zero():
    assert cosine([[0.6, 0.8]], [0.6, 0.8]) == 0.0


def test_cosine_orthogonal_is_one():
    assert cosine([[1.0, 0.0]], [0.0, 1.0]) == pytest.approx(1.0)


def test_cosine_takes_min_over_members():
    assert cosine([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0]) == 0.0


def test_cosine_empty_gallery_is_undefined():
    # a track with no member has no appearance distance, so the kernel
    # refuses the pair; the cost matrix never asks for one
    with pytest.raises(ContractError):
        cosine(np.empty((0, 2)), [1.0, 0.0])


def test_cosine_defined_only_on_requested_pairs():
    # requests of different counts within one fill, and a track of another fill
    rng = np.random.default_rng(3)
    members = [unit_rows(rng, (2, 4)), unit_rows(rng, (2, 4)), unit_rows(rng, (1, 4))]
    descs = unit_rows(rng, (3, 4))
    pairs = np.array([[False, True, False], [True, True, True], [True, False, False]])
    tracks, cols = np.nonzero(pairs)
    d2 = appearance_distances(*store(members, 4), descs, tracks, cols)
    assert d2.shape == (len(tracks),)
    for d, i, j in zip(d2, tracks, cols):
        assert d == pytest.approx(cosine_gallery_distance(members[i], descs[j]), abs=1e-12)


def test_cosine_range_bounds():
    rng = np.random.default_rng(2)
    members = [unit(rng.normal(size=8)) for _ in range(30)]
    for _ in range(200):
        q = unit(rng.normal(size=8))
        d = cosine(members, q)
        assert 0.0 <= d <= 2.0
        assert d == pytest.approx(cosine_gallery_distance(members, q), abs=1e-12)


def test_gallery_capacity_and_fifo_eviction():
    vecs = [unit([1, i]) for i in range(5)]
    *_, members = galleries(vecs, capacity=3)
    assert len(members) == 3
    for kept in vecs[2:]:
        assert any(np.allclose(kept, row) for row in members)
    for evicted in vecs[:2]:
        assert not any(np.allclose(evicted, row) for row in members)


def test_gallery_ring_buffer_counts_pushes_not_hits(monkeypatch):
    # one stationary track at capacity 3, matched on every frame, but given
    # a descriptor only on some: push k must land in slot k % 3, the buffer
    # must hold exactly the last three pushes, through two wraps, and stage
    # 1 must read as many members as were pushed, up to 3, not as many hits
    with_desc = [False, False, True, False, True, True, False, True, True, False, True,
                 True, True, False]
    fills = []
    build = assoc.build_cost_matrix

    def spy(*args, **kwargs):
        fills.append(args[6].copy())
        return build(*args, **kwargs)

    monkeypatch.setattr(assoc, "build_cost_matrix", spy)
    tr = Tracker(TrackerConfig(gallery_capacity=3))
    pushed = []
    for frame, carries in enumerate(with_desc, start=1):
        d = unit([np.cos(0.05 * len(pushed)), np.sin(0.05 * len(pushed))]) if carries else None
        batch = stack(frame, [det((0, 0, 10, 20), appearance=d, frame=frame)])
        assert batch.appearance.shape == (1, 2 if carries else 0)
        assert tr.step(frame, batch).ids.tolist() == [1]
        assert fills[-1].tolist() == ([min(len(pushed), 3)] if frame > 1 else [])
        if carries:
            pushed.append(d)
        assert len(members_of(tr, 0)) == min(len(pushed), 3)
        buffer = tr._gallery[tr._store[0]]
        for k in range(max(0, len(pushed) - 3), len(pushed)):
            assert np.array_equal(buffer[k % 3], pushed[k])
    assert len(pushed) == 8 and tr._hits[0] == len(with_desc)


def test_gallery_min_distance_monotone_under_insertion():
    rng = np.random.default_rng(3)
    query = unit(rng.normal(size=6))
    vecs = [unit(rng.normal(size=6)) for _ in range(51)]
    distances = [cosine(members, query) for members in galleries(vecs)]
    assert all(cur <= prev + 1e-12 for prev, cur in zip(distances, distances[1:]))


def test_gallery_rejects_non_unit():
    with pytest.raises(ValidationError):
        Tracker().step(1, stack(1, [det((0, 0, 10, 20), appearance=[1.0, 1.0])]))


def test_gallery_rejects_dimension_change():
    tr = Tracker()
    tr.step(1, stack(1, [det((0, 0, 10, 20), appearance=[1.0, 0.0])]))
    with pytest.raises(ValidationError):
        tr.step(2, stack(2, [det((0, 0, 10, 20), appearance=[1.0, 0.0, 0.0], frame=2)]))


def test_gallery_starts_with_first_descriptor_mid_stream():
    tr = Tracker()
    for frame in range(1, 7):
        app = None if frame <= 3 else [1.0, 0.0]
        dets = [det((0, 0, 10, 20), appearance=app, frame=frame)]
        assert tr.step(frame, stack(frame, dets)).ids.tolist() == [1]
    assert members_of(tr, 0).shape == (3, 2)


def test_gallery_of_a_new_track_holds_only_its_own_descriptors():
    # track 2 leaves after frame 3 and is deleted at frame 7; track 3, born
    # at frame 9, may take over its buffer
    e = np.eye(3)
    tr = Tracker()
    for frame in range(1, 10):
        dets = [det((100, 0, 10, 20), appearance=e[1], frame=frame)]
        if frame <= 3:
            dets.append(det((0, 0, 10, 20), appearance=e[0], frame=frame))
        if frame == 9:
            dets.append(det((300, 0, 10, 20), appearance=e[2], frame=frame))
        tr.step(frame, stack(frame, dets))
    assert tr.tracks == [1, 3]
    assert np.array_equal(members_of(tr, 0), np.array([e[1]] * 9))
    assert np.array_equal(members_of(tr, 1), np.array([e[2]]))


# -- gate ---------------------------------------------------------------------

def gate_inputs(d1, d2):
    """One track and one detection whose motion and appearance distances
    are d1 and d2: (projection, gallery member, detection)."""
    query = unit([1.0, 2.0])
    side = np.array([query[1], -query[0]])
    member = (1.0 - d2) * query + np.sqrt(1.0 - (1.0 - d2) ** 2) * side
    z = np.array([np.sqrt(d1), 0.0, 1.0, 10.0])     # unit covariance: d1 = z0^2
    return ([0, 0, 1, 10], np.ones(4)), member, det((z[0] - 5, -5, 10, 10), appearance=query)


def gate_pair(d1, d2, t1, t2):
    """Admissibility of one pair whose motion and appearance distances are d1, d2."""
    projection, member, d = gate_inputs(d1, d2)
    cm = cost_matrix([projection], [[member]], [d], lam=0.5, t1=t1, t2=t2)
    return bool(cm.admissible[0, 0])


def test_gate_examples():
    for d1, d2, want in [(5.0, 0.1, True), (10.0, 0.1, False), (4.0, 0.19, True),
                         (4.0, 0.21, False)]:
        assert gate_pair(d1, d2, CHI2_95_4DOF, 0.2) is want
        assert gate(d1, d2, CHI2_95_4DOF, 0.2) is want
    assert gate(CHI2_95_4DOF, 0.2, CHI2_95_4DOF, 0.2) is True


def test_gate_is_inclusive_at_both_thresholds():
    (y, s), member, d = gate_inputs(4.0, 0.15)
    d1 = mahalanobis(y, s, measurements_of(np.array([d.bbox], float))[:, 0])
    d2 = cosine([member], d.appearance)
    for t1, t2, want in [(d1, d2, True), (np.nextafter(d1, 0.0), d2, False),
                         (d1, np.nextafter(d2, 0.0), False)]:
        cm = cost_matrix([(y, s)], [[member]], [d], lam=0.5, t1=t1, t2=t2)
        assert bool(cm.admissible[0, 0]) is want
        assert bool(gate(d1, d2, t1, t2)) is want


def test_gate_rejects_bad_thresholds():
    with pytest.raises(ValidationError):
        gate_pair(1.0, 0.1, 0.0, 1.0)
    with pytest.raises(ValidationError):
        gate_pair(1.0, 0.1, 1.0, -1.0)
    # an infinite motion gate would admit the rows whose projection is
    # unusable, whose motion distances are +inf
    with pytest.raises(ValidationError):
        gate_pair(1.0, 0.1, np.inf, 1.0)
    with pytest.raises(ValidationError, match="motion_gate"):
        TrackerConfig(motion_gate=np.inf)


# -- iou ------------------------------------------------------------------------

def test_iou_examples():
    got = iou_matrix([(0, 0, 10, 10)], [(0, 0, 10, 10), (100, 100, 5, 5), (5, 0, 10, 10)])
    assert got[0, 0] == 1.0
    assert got[0, 1] == 0.0
    assert got[0, 2] == pytest.approx(1 / 3)


def test_iou_matrix_bitwise_equals_pairwise():
    rng = np.random.default_rng(6)
    a = np.column_stack([rng.uniform(-50, 50, (40, 2)), rng.uniform(0.1, 40, (40, 2))])
    b = np.column_stack([rng.uniform(-50, 50, (30, 2)), rng.uniform(0.1, 40, (30, 2))])
    b[:5] = a[:5]                                   # identical boxes
    b[5:10, :2] = a[5:10, :2] + a[5:10, 2:]         # boxes touching at a corner
    got = iou_matrix(a, b)
    for i in range(len(a)):
        for j in range(len(b)):
            assert got[i, j] == iou(tuple(a[i]), tuple(b[j]))
    assert iou_matrix(a, np.empty((0, 4))).shape == (40, 0)


def test_iou_rejects_degenerate_boxes():
    with pytest.raises(ValidationError):
        iou_matrix([(0, 0, 0, 10)], [(0, 0, 10, 10)])


# -- cost matrix -----------------------------------------------------------------

def two_track_setup():
    projections = [([0, 0, 1, 10], np.ones(4)), ([50, 0, 1, 10], np.ones(4))]
    galleries = [[[1.0, 0.0]], [[0.0, 1.0]]]
    d1 = det((-5, -5, 10, 10), appearance=[1.0, 0.0])    # center (0,0) near track 1
    d2 = det((45, -5, 10, 10), appearance=[0.0, 1.0])    # center (50,0) near track 2
    return projections, galleries, [d1, d2]


def test_cost_matrix_lambda_one_is_motion_only():
    projections, galleries, dets = two_track_setup()
    cm = cost_matrix(projections, galleries, dets, lam=1.0, t1=100.0, t2=0.5)
    for i, (y, s) in enumerate(projections):
        for j, d in enumerate(dets):
            if cm.admissible[i, j]:
                x, yy, w, h = d.bbox
                z = np.array([x + w / 2, yy + h / 2, w / h, h])
                assert cm.values[i, j] == pytest.approx(mahalanobis_sq(np.array(y, float), np.diag(s), z))


def test_cost_matrix_lambda_zero_is_appearance_only():
    projections, galleries, dets = two_track_setup()
    cm = cost_matrix(projections, galleries, dets, lam=0.0, t1=1e6, t2=2.0)
    for i, g in enumerate(galleries):
        for j, d in enumerate(dets):
            assert cm.admissible[i, j]
            assert cm.values[i, j] == pytest.approx(
                cosine_gallery_distance(np.array(g), d.appearance), abs=1e-12
            )


def test_cost_matrix_convex_combination():
    # d_motion = 4, d_appearance = 0.2 at lambda 0.5 -> 2.1
    projections = [([0, 0, 1, 10], np.ones(4))]
    z = np.array([2.0, 0.0, 1.0, 10.0])
    bbox = (z[0] - 5, z[1] - 5, 10, 10)
    query = unit([1.0, 3.0])
    # choose gallery member so that 1 - dot(query, member) = 0.2
    member = unit(0.8 * query + np.sqrt(1 - 0.64) * np.array([query[1], -query[0]]))
    d = det(bbox, appearance=query)
    assert mahalanobis_sq(np.zeros(4) + [0, 0, 1, 10], np.eye(4), z) == pytest.approx(4.0)
    assert cosine_gallery_distance([member], query) == pytest.approx(0.2)
    cm = cost_matrix(projections, [[member]], [d], lam=0.5, t1=10.0, t2=0.5)
    assert cm.values[0, 0] == pytest.approx(2.1)


def test_cost_matrix_missing_appearance_falls_back_to_motion():
    projections = [([0, 0, 1, 10], np.ones(4))]
    d = det((-5, -5, 10, 10))  # no descriptor
    cm = cost_matrix(projections, [[]], [d], lam=0.0)
    assert cm.admissible[0, 0]
    z = np.array([0.0, 0.0, 1.0, 10.0])
    assert cm.values[0, 0] == pytest.approx(mahalanobis_sq(np.array([0.0, 0, 1, 10]),
                                                           np.eye(4), z))


def test_cost_matrix_gating_sets_sentinel():
    projections = [([0, 0, 1, 10], np.ones(4))]
    far = det((995, -5, 10, 10))
    cm = cost_matrix(projections, [[]], [far], lam=1.0)
    assert not cm.admissible[0, 0]
    assert cm.values[0, 0] == np.inf


def test_cost_matrix_unusable_projection_row():
    cm = cost_matrix([None], [[]], [det((0, 0, 10, 10))], lam=1.0)
    assert not cm.admissible.any()


def test_cost_matrix_asks_appearance_only_inside_the_motion_gate(monkeypatch):
    # each track's own detection is the only one inside its motion gate, and
    # the third track's projection is unusable, so it is inside none
    projections, galleries, dets = two_track_setup()
    asked = []
    kernel = assoc.appearance_distances

    def spy(*args):
        asked.append(args[-2:])
        return kernel(*args)

    monkeypatch.setattr(assoc, "appearance_distances", spy)
    cm = cost_matrix(projections + [None], galleries + [[[1.0, 0.0]]], dets, lam=0.0)
    inside = np.array([[True, False], [False, True], [False, False]])
    assert len(asked) == 1
    assert [a.tolist() for a in asked[0]] == [a.tolist() for a in np.nonzero(inside)]
    assert np.array_equal(cm.admissible, inside)


def cost_by_appearance_path(y, s, ok, z, gallery, rows, fill, descs, lam, t1, t2):
    """build_cost_matrix's result with appearance_distances always asked,
    even when no pair can have an appearance distance."""
    d1 = motion_distances(y, s, ok, z)
    motion_ok = ok[:, None] & (d1 <= t1)
    defined = (fill > 0)[:, None] & (descs.shape[1] > 0)
    d2 = np.full(d1.shape, np.nan)
    asked = motion_ok & defined
    d2[asked] = appearance_distances(gallery, rows, fill, descs, *np.nonzero(asked))
    admissible = motion_ok & np.where(defined, d2 <= t2, True)
    values = np.full(d1.shape, np.inf)
    values[admissible] = np.where(defined, lam * d1 + (1.0 - lam) * d2, d1)[admissible]
    return values, admissible


@pytest.mark.parametrize("case", ["no descriptors", "empty galleries"])
def test_cost_matrix_skips_appearance_when_no_pair_has_one(monkeypatch, case):
    # three tracks, one with an unusable projection, against three
    # detections; a column per track and per detection
    y = np.array([[0.0, 0, 1, 10], [50, 0, 1, 10], [0, 0, 1, 10]]).T
    s, ok = np.ones((4, 3)), np.array([True, True, False])
    z = np.array([[0.5, 0, 1, 10], [50, 1, 1, 10], [500, 0, 1, 10]]).T
    gallery = np.tile(np.array([1.0, 0.0]), (4, 5, 1))
    rows = np.array([3, 0, 2])
    fill = np.array([2, 5, 1]) if case == "no descriptors" else np.zeros(3, np.int64)
    descs = np.empty((3, 0)) if case == "no descriptors" else np.tile([0.6, 0.8], (3, 1))
    args = (y, s, ok, z, gallery, rows, fill, descs)
    want_values, want_admissible = cost_by_appearance_path(*args, lam=0.3, t1=9.0, t2=0.2)
    asked = []
    monkeypatch.setattr(assoc, "appearance_distances", lambda *a: asked.append(a))
    cm = build_cost_matrix(*args, lam=0.3, t1=9.0, t2=0.2)
    assert asked == []
    assert want_admissible.tolist() == [[True, False, False], [False, True, False],
                                        [False, False, False]]
    assert np.array_equal(cm.admissible, want_admissible)
    assert cm.values.tobytes() == want_values.tobytes()


def unit_rows(rng, shape):
    v = rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def stacked_stage1(y, s, ok, z, gallery, rows, fill, descriptors, t1, t2):
    """Stage-1 costs at lam 0 in the all-pairs layout the gated path must not
    outgrow: the cost matrix allocated up front, the motion distances of
    every pair, then every track's members stacked, times every
    descriptor, reduced per track."""
    values = np.full((y.shape[1], z.shape[1]), np.inf)
    d1 = motion_distances(y, s, ok, z)
    track, slot = np.nonzero(np.arange(gallery.shape[1]) < fill[:, None])
    stacked = gallery[rows[track], slot]                                  # (sum fill, D)
    best = np.maximum.reduceat(stacked @ descriptors.T, np.cumsum(fill) - fill, axis=0)
    d2 = np.clip(1.0 - best, 0.0, 2.0)
    admissible = ok[:, None] & (d1 <= t1) & (d2 <= t2)
    values[admissible] = d2[admissible]
    return values


def traced_peak(fn):
    """(fn(), peak bytes NumPy and Python allocated during the call)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fills", [[1] * 40, [3] * 40, [100] + [1] * 39, [100] * 40],
                         ids=["fill-1", "fill-3", "one-full", "all-full"])
def test_all_pairs_in_gate_stays_within_the_stacked_footprint(fills):
    # coincident boxes put every pair inside the motion gate, so stage 1 is
    # asked for all n * m appearance distances; a full gallery beside fresh
    # ones must not make theirs cost as much, and full galleries must cost
    # no more than their stacked members
    rng = np.random.default_rng(8)
    fill = np.array(fills)
    n, m, dim, cap = len(fill), 50, 64, 100
    rows = rng.permutation(2 * n)[:n]
    gallery = unit_rows(rng, (2 * n, cap, dim))
    y = np.tile([[5.0], [5.0], [1.0], [10.0]], (1, n))
    s = np.ones((4, n))
    ok = np.ones(n, bool)
    args = (y, s, ok, np.tile(y[:, :1], (1, m)), gallery, rows, fill, unit_rows(rng, (m, dim)))
    cm, peak = traced_peak(lambda: build_cost_matrix(*args, lam=0.0, t2=2.0))
    want, stacked_peak = traced_peak(lambda: stacked_stage1(*args, CHI2_95_4DOF, 2.0))
    assert cm.admissible.all()
    np.testing.assert_allclose(cm.values, want, rtol=0, atol=1e-12)
    assert peak <= stacked_peak


# 480 x 480 coincident pairs against full 100-slot galleries: all of their
# products at once would take 184 MB. Measured at 2.9 MB: the (k,) result,
# 1.8 MB, and one block of PRODUCT_BLOCK products, 0.5 MB.
ALL_PAIRS_PEAK_BOUND = 4 * 10**6


def test_appearance_distances_on_all_pairs_stays_within_its_bound():
    rng = np.random.default_rng(11)
    n, cap, dim = 480, 100, 64
    gallery = unit_rows(rng, (n, cap, dim))
    rows, fill = rng.permutation(n), np.full(n, cap)
    descs = unit_rows(rng, (n, dim))
    tracks, cols = np.nonzero(np.ones((n, n), bool))
    assert len(tracks) * cap > 100 * assoc.PRODUCT_BLOCK
    d2, peak = traced_peak(lambda: appearance_distances(gallery, rows, fill, descs,
                                                        tracks, cols))
    assert peak < ALL_PAIRS_PEAK_BOUND
    some = rng.choice(len(tracks), 200, replace=False)
    assert d2[some].tobytes() \
        == appearance_by_pairs(gallery, rows, fill, descs, tracks[some], cols[some]).tobytes()


# -- assignment --------------------------------------------------------------------

def matrix(vals, admissible=None):
    vals = np.asarray(vals, float)
    if admissible is None:
        admissible = np.isfinite(vals)
    return CostMatrix(values=vals, admissible=np.asarray(admissible, bool))


def test_assignment_prefers_global_minimum():
    # row minima would pick (0,0)+(1,0) conflict; optimum is (0,1)+(1,0)
    result = solve_assignment(matrix([[1.0, 2.0], [2.0, 4.0]]))
    assert result.matches.tolist() == [[0, 1], [1, 0]]
    assert result.unmatched_tracks.size == 0 and result.unmatched_detections.size == 0


def test_assignment_single_cell():
    result = solve_assignment(matrix([[0.3]]))
    assert result.matches.tolist() == [[0, 0]]


def test_assignment_empty():
    result = solve_assignment(matrix(np.empty((0, 3))))
    assert result.matches.shape == (0, 2) and result.matches.dtype == np.int64
    assert result.unmatched_tracks.tolist() == []
    assert result.unmatched_detections.tolist() == [0, 1, 2]


def test_assignment_never_matches_sentinel():
    vals = np.full((2, 2), np.inf)
    vals[0, 0] = 1.0
    result = solve_assignment(matrix(vals))
    assert result.matches.tolist() == [[0, 0]]
    assert result.unmatched_tracks.tolist() == [1]
    assert result.unmatched_detections.tolist() == [1]


def test_assignment_keeps_every_admissible_match_near_the_sentinel():
    # admissible costs near and at 1e5: a solver that filled inadmissible
    # cells with a fixed 1e5 sentinel would trade both admissible matches
    # for the one at 0
    result = solve_assignment(matrix([[0.0, 6e4], [6e4, 1e5]],
                                     admissible=[[True, True], [True, False]]))
    assert result.matches.tolist() == [[0, 1], [1, 0]]


def random_gated_matrix(rng, n, m):
    vals = rng.uniform(0.0, 10.0, size=(n, m))
    admissible = rng.random(size=(n, m)) < 0.75
    vals[~admissible] = np.inf
    return CostMatrix(values=vals, admissible=admissible)


def test_assignment_matches_brute_force_200_random():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        cm = random_gated_matrix(rng, n, m)
        rows, cols = solve_assignment(cm).matches.T
        count, cost = brute_force_gated_assignment(cm.values, cm.admissible)
        assert len(rows) == count
        assert cm.values[rows, cols].sum() == pytest.approx(cost, abs=1e-9)


def test_assignment_invariant_to_constant_shift():
    rng = np.random.default_rng(5)
    for _ in range(50):
        cm = random_gated_matrix(rng, 5, 5)
        shift = float(rng.uniform(0.5, 20.0))
        shifted_vals = cm.values.copy()
        shifted_vals[cm.admissible] += shift
        shifted = CostMatrix(values=shifted_vals, admissible=cm.admissible)
        assert np.array_equal(solve_assignment(cm).matches, solve_assignment(shifted).matches)


def test_iou_cost_matrix_gate():
    tracks = [(0.0, 0.0, 10.0, 10.0)]
    near = (2, 0, 10, 10)
    far = (9.5, 0, 10, 10)
    cm = build_iou_cost_matrix(tracks, [near, far], max_distance=0.7)
    assert cm.admissible[0, 0]
    assert not cm.admissible[0, 1]
    assert cm.values[0, 0] == pytest.approx(1 - iou(tracks[0], near))
    assert cm.values[0, 1] == pytest.approx(1 - iou(tracks[0], far))
