"""Randomised equivalence of the grid search's fast paths and the naive oracle.

Over random tau-adic grids (integer and fractional translation lattices,
boundary atoms included) and random 2-D grids, `grid_scores` must agree
atom by atom with per-atom `score`, and `full_search` must pick the same
atom and score as `conftest.naive_search` and as the argmax of
`grid_scores`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import geopursuit as gp
from conftest import naive_search

SCORE_RTOL = 1e-9  # relative to the residual energy, which bounds every score

seeds = st.integers(0, 2 ** 32 - 1)


def check_search(dictionary, grid, seed):
    u = gp.SignalBuffer(np.random.default_rng(seed).standard_normal(dictionary.shape))
    tol = SCORE_RTOL * u.energy()
    points = list(grid.points())
    fast = gp.grid_scores(dictionary, u, grid)
    slow = np.array([gp.score(dictionary, u, lam) for lam in points])
    assert fast.shape == slow.shape == (len(points),)
    assert np.abs(fast - slow).max() <= tol

    p_fast, s_fast = gp.full_search(dictionary, u, grid)
    k = int(np.argmax(fast))
    assert s_fast == fast[k]
    assert np.array_equal(p_fast.coords, points[k].coords)

    p_ref, s_ref = naive_search(dictionary, u, grid)
    assert abs(s_fast - s_ref) <= tol
    runner_up = np.sort(slow)[-2] if slow.size > 1 else -np.inf
    if s_ref - runner_up > 2 * tol:  # a clear winner must be the same atom
        assert np.array_equal(p_fast.coords, p_ref.coords)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(24, 96),
       b0=st.sampled_from([0.75, 1.0, 1.5, 2.0, 3.0]),
       log2_tau=st.sampled_from([0.25, 0.5, 1.0]),
       a0=st.floats(0.8, 2.0),
       seed=seeds)
def test_tau_adic_search_matches_oracle(n, b0, log2_tau, a0, seed):
    grid = gp.tau_grid_for_signal(n, b0=b0, log2_tau=log2_tau, a0=a0)
    check_search(gp.Affine1DDictionary(n), grid, seed)


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(4, 12), ny=st.integers(4, 12),
       j_scales=st.integers(1, 2), k_orients=st.integers(1, 3), seed=seeds)
def test_2d_search_matches_oracle(nx, ny, j_scales, k_orients, seed):
    grid = gp.Grid2DSpec(nx=nx, ny=ny, j_scales=j_scales, k_orients=k_orients)
    check_search(gp.Aniso2DDictionary((nx, ny)), grid, seed)
