"""Gated stage-1 costs and the assignment solver against brute-force oracles.

Needs hypothesis (the `test` extra in pyproject.toml); skipped without it.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trafficstate.assoc import (  # noqa: E402
    CostMatrix,
    build_cost_matrix,
    motion_distances,
    solve_assignment,
)

from oracles import (  # noqa: E402
    brute_force_gated_assignment,
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
    has_desc = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    y = np.column_stack([rng.uniform(0, 8, (n, 2)), np.ones(n), np.full(n, 10.0)])
    a = rng.normal(size=(n, 4, 4))
    s = a @ np.transpose(a, (0, 2, 1)) + np.eye(4)
    z = np.column_stack([rng.uniform(0, 8, (m, 2)), rng.uniform(0.8, 1.2, m),
                         rng.uniform(8, 12, m)])
    if coincident:   # every box on one spot: every usable pair is inside the motion gate
        y[:] = y[0]
        z[:] = y[0]
    members = unit_rows(rng, (n, cap, dim))
    descs = np.where(has_desc[:, None], unit_rows(rng, (m, dim)), 0.0)
    t1, t2 = rng.uniform(1.0, 20.0), rng.uniform(0.05, 1.5)
    # the tracker's layout: buffers in a shared store, in no particular row
    # order, NaN past each fill so that any slot read past it would show
    rows = rng.permutation(n + 2)[:n]
    gallery = np.full((n + 2, cap, dim), np.nan)
    gallery[rows] = np.where(np.arange(cap)[:, None] < fill[:, None, None], members, np.nan)
    cm = build_cost_matrix(y, s, ok, z, gallery, rows, fill, descs, has_desc,
                           lam=lam, t1=t1, t2=t2)

    want = np.zeros((n, m), bool)
    value = np.full((n, m), np.inf)
    near = np.zeros((n, m), bool)   # within rounding of a threshold: either side is right
    for i in range(n):
        for j in range(m):
            if not ok[i]:
                continue
            d1 = mahalanobis_sq(y[i], s[i], z[j])
            defined = fill[i] > 0 and has_desc[j]
            d2 = cosine_gallery_distance(members[i, :fill[i]], descs[j]) if defined else 0.0
            near[i, j] = abs(d1 - t1) <= 1e-9 * t1 or (defined and abs(d2 - t2) <= 1e-9)
            if gate(d1, d2, t1, t2):
                want[i, j] = True
                value[i, j] = lam * d1 + (1.0 - lam) * d2 if defined else d1
    if coincident:
        assert (motion_distances(y, s, ok, z)[ok] == 0.0).all()
    assert np.array_equal(cm.admissible[~near], want[~near])
    both = cm.admissible & want
    np.testing.assert_allclose(cm.values[both], value[both], rtol=1e-9, atol=1e-12)
    assert (cm.values[~cm.admissible] == np.inf).all()


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
