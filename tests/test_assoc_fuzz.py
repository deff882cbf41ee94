"""Gated stage-1 costs, the assignment solver and its cascade against oracles.

Needs hypothesis (the `test` extra in pyproject.toml); skipped without it.
"""
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trafficstate import assoc  # noqa: E402
from trafficstate.assoc import (  # noqa: E402
    CostMatrix,
    appearance_distances,
    build_cost_matrix,
    motion_distances,
    solve_assignment,
)

from oracles import (  # noqa: E402
    appearance_by_pairs,
    brute_force_gated_assignment,
    cascade_by_age,
    cosine_gallery_distance,
    gate,
    mahalanobis_sq,
)


def unit_rows(rng, shape):
    v = rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 6), dim=st.integers(1, 6),
       cap=st.integers(1, 6), lam=st.sampled_from([0.0, 0.3, 1.0]),
       coincident=st.booleans(), data=st.data())
def test_cost_matrix_matches_pairwise_oracle(n, m, dim, cap, lam, coincident, data):
    fill = np.array(data.draw(st.lists(st.integers(0, cap), min_size=n, max_size=n)))
    ok = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    # a batch's detections all carry descriptors, or none of them does
    carries_desc = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    y = np.column_stack([rng.uniform(0, 8, (n, 2)), np.ones(n), np.full(n, 10.0)])
    s = rng.uniform(0.1, 10.0, size=(n, 4))   # covariance diagonals, as projected
    z = np.column_stack([rng.uniform(0, 8, (m, 2)), rng.uniform(0.8, 1.2, m),
                         rng.uniform(8, 12, m)])
    if coincident:   # every box on one spot: every usable pair is inside the motion gate
        y[:] = y[0]
        z[:] = y[0]
    members = unit_rows(rng, (n, cap, dim))
    descs = unit_rows(rng, (m, dim))[:, :dim if carries_desc else 0]   # (m, 0) when none
    t1, t2 = rng.uniform(1.0, 20.0), rng.uniform(0.05, 1.5)
    # the tracker's layout: buffers in a shared store, in no particular row
    # order, NaN past each fill so that any slot read past it would show
    rows = rng.permutation(n + 2)[:n]
    gallery = np.full((n + 2, cap, dim), np.nan)
    gallery[rows] = np.where(np.arange(cap)[:, None] < fill[:, None, None], members, np.nan)
    # the engine takes tracks and detections as columns, (4, n) and (4, m),
    # and, as the tracker passes them, only the tracks that can match
    u = ok.nonzero()[0]
    cm = build_cost_matrix(y[u].T.copy(), s[u].T.copy(), z.T.copy(), gallery, rows[u], fill[u],
                           descs, lam=lam, t1=t1, t2=t2)

    want = np.zeros((n, m), bool)
    value = np.full((n, m), np.inf)
    near = np.zeros((n, m), bool)   # within rounding of a threshold: either side is right
    for i in range(n):
        for j in range(m):
            if not ok[i]:
                continue
            d1 = mahalanobis_sq(y[i], np.diag(s[i]), z[j])
            defined = fill[i] > 0 and carries_desc
            d2 = cosine_gallery_distance(members[i, :fill[i]], descs[j]) if defined else 0.0
            near[i, j] = abs(d1 - t1) <= 1e-9 * t1 or (defined and abs(d2 - t2) <= 1e-9)
            if gate(d1, d2, t1, t2):
                want[i, j] = True
                value[i, j] = lam * d1 + (1.0 - lam) * d2 if defined else d1
    if coincident:
        assert (motion_distances(y[u].T.copy(), s[u].T.copy(), z.T.copy()) == 0.0).all()
    # the oracle's rows of the tracks passed
    want, value, near = want[u], value[u], near[u]
    assert cm.shape == (len(u), m)
    assert np.array_equal(cm.admissible[~near], want[~near])
    both = cm.admissible & want
    np.testing.assert_allclose(cm.values[both], value[both], rtol=1e-9, atol=1e-12)
    assert (cm.values[~cm.admissible] == np.inf).all()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 6), dim=st.integers(1, 8),
       cap=st.integers(1, 8), data=st.data())
def test_a_pairs_distances_do_not_depend_on_the_rest_of_the_call(n, m, dim, cap, data):
    # each pair's distances alone, and each detection's column alone (m = 1),
    # carry the same bits as inside the call with all the usable of the n
    # tracks, taken as the tracker takes them, and m detections
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    y = rng.normal(0.0, 50.0, (4, n))
    s = rng.uniform(0.1, 50.0, (4, n))
    ok = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    z = rng.normal(0.0, 50.0, (4, m))
    fill = np.array(data.draw(st.lists(st.integers(0, cap), min_size=n, max_size=n)))
    rows = rng.permutation(n + 2)[:n]
    gallery = unit_rows(rng, (n + 2, cap, dim))
    descs = unit_rows(rng, (m, dim))
    # as the cost matrix asks: only tracks with a gallery member
    pairs = (rng.random((n, m)) < 0.7) & (fill > 0)[:, None]
    usable = ok.nonzero()[0]
    y_usable, s_usable = y.take(usable, 1), s.take(usable, 1)
    d1 = np.full((n, m), np.nan)
    d1[usable] = motion_distances(y_usable, s_usable, z)
    d2 = np.full((n, m), np.nan)
    d2[pairs] = appearance_distances(gallery, rows, fill, descs, *np.nonzero(pairs))
    zero = np.zeros(1, np.int64)
    for j in range(m):
        column = motion_distances(y_usable, s_usable, z[:, j:j + 1])
        assert column.tobytes() == d1[usable, j:j + 1].tobytes()
        for i in range(n):
            one = slice(i, i + 1)
            if ok[i]:
                alone = motion_distances(y[:, one], s[:, one], z[:, j:j + 1])
                assert alone.tobytes() == d1[i, j].tobytes()
            if pairs[i, j]:
                alone = appearance_distances(gallery, rows[one], fill[one], descs[j:j + 1],
                                             zero, zero)
                assert alone.tobytes() == d2[i, j].tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 6), cap=st.integers(1, 150),
       dim=st.one_of(st.just(1), st.integers(1, 128)),
       block=st.sampled_from([1, 2, 7, 150, assoc.PRODUCT_BLOCK]), data=st.data())
def test_appearance_pairs_equal_the_per_pair_oracle(n, m, cap, dim, block, data):
    # fills of 1 and of the capacity, tracks asked for several detections,
    # no pair at all, and pair lists that cross the block bound, which the
    # smaller blocks make a few pairs long
    fill = np.array(data.draw(st.lists(st.one_of(st.sampled_from([1, cap]),
                                                 st.integers(1, cap)),
                                       min_size=n, max_size=n)))
    pairs = np.array(data.draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m)))
    tracks, cols = np.nonzero(pairs.reshape(n, m))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # the tracker's layout, NaN past each fill so that any slot read past it would show
    rows = rng.permutation(n + 2)[:n]
    gallery = np.full((n + 2, cap, dim), np.nan)
    gallery[rows] = np.where(np.arange(cap)[:, None] < fill[:, None, None],
                             unit_rows(rng, (n, cap, dim)), np.nan)
    args = (gallery, rows, fill, unit_rows(rng, (m, dim)), tracks, cols)
    with mock.patch.object(assoc, "PRODUCT_BLOCK", block):
        got = appearance_distances(*args)
    assert got.dtype == np.float64 and got.shape == tracks.shape
    assert got.tobytes() == appearance_by_pairs(*args).tobytes()


def test_appearance_pairs_across_the_block_bound_equal_the_oracle():
    # 2,400 pairs against full 100-slot galleries cross PRODUCT_BLOCK
    # several times, with track 0 asked for every detection
    rng = np.random.default_rng(5)
    n, m, cap, dim = 40, 60, 100, 64
    gallery, rows, fill = unit_rows(rng, (n, cap, dim)), rng.permutation(n), np.full(n, cap)
    tracks, cols = np.nonzero(np.ones((n, m), bool))
    assert len(tracks) * cap > 3 * assoc.PRODUCT_BLOCK
    args = (gallery, rows, fill, unit_rows(rng, (m, dim)), tracks, cols)
    assert appearance_distances(*args).tobytes() == appearance_by_pairs(*args).tobytes()


# exact ties, values on both sides of 1e5 (a fixed sentinel's size), and
# everything between
COST = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 6e4, 1e5, 1e6]),
                 st.floats(0.0, 2e5))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 5), data=st.data())
def test_assignment_matches_gated_brute_force(n, m, data):
    values = np.array(data.draw(st.lists(COST, min_size=n * m, max_size=n * m))).reshape(n, m)
    admissible = np.array(data.draw(st.lists(st.booleans(), min_size=n * m,
                                             max_size=n * m))).reshape(n, m)
    result = solve_assignment(CostMatrix(values=values, admissible=admissible))
    count, cost = brute_force_gated_assignment(values, admissible)
    assert result.matches.dtype == np.int64 and result.matches.shape == (count, 2)
    rows, cols = result.matches.T
    assert admissible[rows, cols].all()
    # every index arrives exactly once, each array ascending
    for matched, unmatched, size in ((rows, result.unmatched_tracks, n),
                                     (cols, result.unmatched_detections, m)):
        assert (np.diff(unmatched) > 0).all()
        assert np.array_equal(np.sort(np.concatenate([matched, unmatched])), np.arange(size))
    assert (np.diff(rows) > 0).all()
    assert values[rows, cols].sum() == pytest.approx(cost, rel=1e-12)


@st.composite
def structured_admissibility(draw):
    """(admissible, forced pairs) from blocks on a diagonal, rows and columns permuted.

    The blocks are forced singletons, empty rows, empty columns and one or
    two contested components: r x c blocks with r + c >= 3, connected by a
    star through their first cell plus random extra cells.
    """
    contested = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2))
                              .filter(lambda rc: sum(rc) >= 3), min_size=1, max_size=2))
    singletons = draw(st.integers(0, 2))
    n = singletons + draw(st.integers(0, 1)) + sum(r for r, _ in contested)
    m = singletons + draw(st.integers(0, 1)) + sum(c for _, c in contested)
    admissible = np.zeros((n, m), dtype=bool)
    admissible[range(singletons), range(singletons)] = True
    i = j = singletons
    for r, c in contested:
        block = admissible[i:i + r, j:j + c]
        block[:] = np.array(draw(st.lists(st.booleans(), min_size=r * c,
                                          max_size=r * c))).reshape(r, c)
        block[:, 0] = block[0, :] = True
        i, j = i + r, j + c
    row_order = np.array(draw(st.permutations(range(n))))
    col_order = np.array(draw(st.permutations(range(m))))
    # admissible[row_order[a], col_order[b]] becomes the new cell (a, b)
    new_row, new_col = np.argsort(row_order), np.argsort(col_order)
    forced = [(new_row[k], new_col[k]) for k in range(singletons)]
    return admissible[np.ix_(row_order, col_order)], forced


@settings(derandomize=True, max_examples=300, deadline=None)
@given(structure=structured_admissibility(), data=st.data())
def test_assignment_with_forced_and_contested_blocks_matches_brute_force(structure, data):
    admissible, forced = structure
    n, m = admissible.shape
    # inadmissible cells hold NaN: the solver must never read them
    drawn = np.array(data.draw(st.lists(COST, min_size=n * m, max_size=n * m)))
    values = np.where(admissible, drawn.reshape(n, m), np.nan)
    result = solve_assignment(CostMatrix(values=values, admissible=admissible))
    count, cost = brute_force_gated_assignment(values, admissible)
    assert result.matches.dtype == np.int64 and result.matches.shape == (count, 2)
    rows, cols = result.matches.T
    assert admissible[rows, cols].all()
    assert (np.diff(rows) > 0).all()
    for matched, unmatched, size in ((rows, result.unmatched_tracks, n),
                                     (cols, result.unmatched_detections, m)):
        assert (np.diff(unmatched) > 0).all()
        assert np.array_equal(np.sort(np.concatenate([matched, unmatched])), np.arange(size))
    assert values[rows, cols].sum() == pytest.approx(cost, rel=1e-12)
    # a pair alone in its row and column is in every optimum
    assert set(forced) <= set(zip(rows.tolist(), cols.tolist()))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(n=st.integers(0, 8), m=st.integers(0, 8), data=st.data())
def test_all_singleton_assignment_equals_scipy_on_the_filled_matrix(n, m, data):
    from scipy.optimize import linear_sum_assignment

    k = data.draw(st.integers(0, min(n, m)))
    rows = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)[:k]
    cols = np.array(data.draw(st.permutations(range(m))), dtype=np.int64)[:k]
    admissible = np.zeros((n, m), dtype=bool)
    admissible[rows, cols] = True
    values = np.array(data.draw(st.lists(COST, min_size=n * m,
                                         max_size=n * m))).reshape(n, m)
    result = solve_assignment(CostMatrix(values=values, admissible=admissible))

    # the whole-matrix solve, with the solver's fill rule
    allowed = values[admissible]
    lo, hi = (allowed.min(), allowed.max()) if k else (0.0, 0.0)
    fill = hi + min(n, m) * (hi - lo) + abs(hi) + 1.0
    want_rows, want_cols = linear_sum_assignment(np.where(admissible, values, fill))
    keep = admissible[want_rows, want_cols]
    assert np.array_equal(result.matches, np.stack([want_rows[keep], want_cols[keep]], axis=1))
    assert np.array_equal(result.unmatched_tracks, np.setdiff1d(np.arange(n), want_rows[keep]))
    assert np.array_equal(result.unmatched_detections,
                          np.setdiff1d(np.arange(m), want_cols[keep]))


@st.composite
def random_admissibility(draw):
    """An admissible mask up to 6 x 6 at a drawn density, with two rows
    sharing an admissible column whenever there are two rows, so that at
    least one cell is contested; empty rows and columns come with sparse
    draws."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    density = draw(st.sampled_from([0.15, 0.35, 0.7]))
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=n * m, max_size=n * m))
    admissible = (np.array(cells) < density).reshape(n, m)
    if n > 1:
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        j = draw(st.integers(0, m - 1))
        admissible[[a, b], j] = True
    return admissible


@settings(derandomize=True, max_examples=400, deadline=None)
@given(admissible=st.one_of(structured_admissibility().map(lambda s: s[0]),
                            random_admissibility()),
       data=st.data())
def test_cascade_in_one_pass_equals_age_by_age(admissible, data):
    n, m = admissible.shape
    drawn = np.array(data.draw(st.lists(COST, min_size=n * m, max_size=n * m)))
    values = np.where(admissible, drawn.reshape(n, m), np.nan)
    misses = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    result = solve_assignment(CostMatrix(values=values, admissible=admissible), misses)
    matches, leftover, remaining = cascade_by_age(values, admissible, misses)
    assert result.matches.dtype == np.int64
    assert np.array_equal(result.matches, matches)
    assert np.array_equal(result.unmatched_tracks, leftover)
    assert np.array_equal(result.unmatched_detections, remaining)
