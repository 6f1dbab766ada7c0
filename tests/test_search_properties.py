"""Randomised equivalence of the grid search's fast paths and the naive oracle.

Over random tau-adic grids (integer and fractional translation lattices,
boundary atoms included, both 1-D mothers) and random 2-D grids
(non-square, up to J = 3 and K = 4 as on the benchmark grid, templates
clipped at n - 1), `grid_scores` must agree atom by atom with per-atom
`score`, and `full_search`, which prunes direct translations by an upper
bound, must pick the same atom and score as `conftest.naive_search` and as
the argmax of `grid_scores`. The bound itself must be at least every
translation's score. The 2-D search's pruned inverse FFT must equal the
full `irfftn` at the positions it keeps, bit for bit, from a spectrum
equal to the transform of the zero-padded residual. Every 1-D lattice
level must score each position by one dot product of its template with
the position's window of the zero-padded residual, over the in-buffer
squared norm. The kernel rows a direct level keeps across searches, and
their squared norms, must be the ones it would build afresh.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import geopursuit as gp
from conftest import naive_search
from geopursuit import pursuit

SCORE_RTOL = 1e-9  # relative to the residual energy, which bounds every score

seeds = st.integers(0, 2 ** 32 - 1)
mothers = st.sampled_from(["mexican_hat", "gaussian"])


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
       mother=mothers,
       seed=seeds)
# a Gaussian atom far left of the buffer (b = -24, a = 6), whose in-buffer
# energy is a tail ~1e-8 of the template's
@example(n=24, b0=0.75, log2_tau=0.25, a0=1.5, mother="gaussian", seed=149)
def test_tau_adic_search_matches_oracle(n, b0, log2_tau, a0, mother, seed):
    grid = gp.tau_grid_for_signal(n, b0=b0, log2_tau=log2_tau, a0=a0)
    check_search(gp.Affine1DDictionary(n, mother=mother), grid, seed)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(12, 96),
       b0=st.sampled_from([0.5, 0.75, 1.5, 2.0]),
       log2_tau=st.sampled_from([0.25, 0.5, 1.0]),
       a0=st.floats(0.5, 2.0),
       mother=mothers,
       spikes=st.integers(0, 3),
       seed=seeds)
def test_direct_bounds_cover_every_score(n, b0, log2_tau, a0, mother, spikes, seed):
    # the search skips a direct translation when its bound, the residual
    # energy in the row's window, is below the best by the pruning margin,
    # so every bound must reach the exact score to within that margin; a
    # residual of a few spikes puts all its energy on single samples, at a
    # window's edge or inside it, and dense noise (spikes = 0) spreads it
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(n)
    if spikes:
        data[rng.permutation(n)[spikes:]] = 0.0
    u = gp.SignalBuffer(data)
    d = gp.Affine1DDictionary(n, mother=mother)
    grid = gp.tau_grid_for_signal(n, b0=b0, log2_tau=log2_tau, a0=a0)
    plan = pursuit._search_plan(d, u, grid)
    exact = np.array([gp.score(d, u, lam) for lam in grid.points()])
    tol = pursuit._BOUND_MARGIN * u.energy()
    bounds = plan.bounds(plan.transform(u.data))
    # every block, lattice levels included, bounds every one of its atoms
    assert len(bounds) == len(plan.blocks)
    assert sum(bound.size for bound in bounds) == exact.size
    for start, bound in zip(plan.offsets, bounds):
        assert np.all(exact[start:start + bound.size] <= bound + tol)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(12, 48).map(lambda k: 2 * k + 1),
       b0=st.sampled_from([0.5, 0.75, 1.5]),
       log2_tau=st.sampled_from([0.25, 0.5, 1.0]),
       a0=st.floats(0.5, 2.0),
       mother=mothers,
       searches=st.lists(st.tuples(st.booleans(), seeds), min_size=2, max_size=5))
def test_cached_kernel_rows_are_fresh_rows(n, b0, log2_tau, a0, mother, searches):
    # full searches and full scorings on different residuals, in a random
    # order, ask the direct levels for different, overlapping rows; every
    # row a level keeps, and its squared norm, is the row `_direct_kernel`
    # builds and that row's squared norm, bit for bit, and built once; a
    # warm plan scores and searches as a fresh dictionary's plan does
    d = gp.Affine1DDictionary(n, mother=mother)
    grid = gp.tau_grid_for_signal(n, b0=b0, log2_tau=log2_tau, a0=a0)
    residuals = [gp.SignalBuffer(np.random.default_rng(seed).standard_normal(n))
                 for _, seed in searches]
    for (full, _), u in zip(searches, residuals):
        (gp.full_search if full else gp.grid_scores)(d, u, grid)
    plan = pursuit._search_plan(d, residuals[0], grid)
    direct = [b for b in plan.blocks if isinstance(b, pursuit._DirectBlock)]
    assume(direct)
    for block in direct:
        assert block.kernel_rows.keys() <= set(range(block.bs.size))
        for r, (row, norm2) in block.kernel_rows.items():
            (want,) = pursuit._direct_kernel(n, block.mother, block.a, block.bs[[r]])
            assert row.tobytes() == want.tobytes()
            assert norm2 == np.dot(want, want)
    built = [dict(block.kernel_rows) for block in direct]

    points = list(grid.points())
    tol = SCORE_RTOL * max(u.energy() for u in residuals)
    for u in residuals:
        fresh = gp.Affine1DDictionary(n, mother=mother)
        lam, s = gp.full_search(d, u, grid)
        want_lam, want_s = gp.full_search(fresh, u, grid)
        assert np.array_equal(lam.coords, want_lam.coords) and s == want_s
        scores = gp.grid_scores(d, u, grid)
        assert np.array_equal(scores, gp.grid_scores(fresh, u, grid))
        slow = np.array([gp.score(d, u, p) for p in points])
        assert np.abs(scores - slow).max() <= tol
    for block, rows in zip(direct, built):
        assert all(block.kernel_rows[r] is entry for r, entry in rows.items())


@settings(max_examples=25, deadline=None)
@given(n=st.integers(12, 48).map(lambda k: 2 * k + 1),
       b0=st.sampled_from([1.0, 2.0, 3.0]),
       log2_tau=st.sampled_from([0.5, 1.0]),
       a0=st.floats(0.8, 2.0),
       mother=mothers,
       seed=seeds)
def test_1d_lattice_scores_are_window_sums(n, b0, log2_tau, a0, mother, seed):
    # a search's padded residual is u with `pad` zeros at each end; a
    # lattice level scores each position b as the dot product of its
    # template with the window [b - m, b + m] of that padded residual,
    # squared, over the dot product of the template's squares with the
    # window's in-buffer mask: the same floats however many rows are scored
    # together
    d = gp.Affine1DDictionary(n, mother=mother)
    grid = gp.tau_grid_for_signal(n, b0=b0, log2_tau=log2_tau, a0=a0)
    u = np.random.default_rng(seed).standard_normal(n)
    plan = pursuit._search_plan(d, gp.SignalBuffer(u), grid)
    lattice = [b for b in plan.blocks if isinstance(b, pursuit._LatticeBlock)]
    assume(lattice)
    u_pad = plan.transform(u)
    zeros = np.zeros(plan.pad)
    assert np.array_equal(u_pad, np.concatenate([zeros, u, zeros]))
    for block in lattice:
        scores = block.scores(u_pad)
        for k, start in enumerate(block.starts.tolist()):
            assert 0 <= start and start + block.length <= u_pad.size
            samples = start - plan.pad + np.arange(block.length)
            norm2 = np.dot((samples >= 0) & (samples < n), block.w * block.w)
            assert block.norm2[k] == norm2 > 0
            corr = np.dot(u_pad[start:start + block.length], block.w)
            assert scores[k] == corr * corr / norm2 == block.scores(u_pad, [k])[0]


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(4, 16), ny=st.integers(4, 16),
       j_scales=st.integers(1, 3), k_orients=st.integers(1, 4), seed=seeds)
def test_2d_search_matches_oracle(nx, ny, j_scales, k_orients, seed):
    grid = gp.Grid2DSpec(nx=nx, ny=ny, j_scales=j_scales, k_orients=k_orients)
    check_search(gp.Aniso2DDictionary((nx, ny)), grid, seed)


def _is_power_of_two(k):
    return k & (k - 1) == 0


@settings(max_examples=30, deadline=None)
@given(nx=st.integers(2, 24), ny=st.integers(2, 24),
       j_scales=st.integers(1, 3), k_orients=st.integers(1, 4), seed=seeds)
@example(nx=7, ny=5, j_scales=2, k_orients=3, seed=0)    # 15 x 9: both lengths odd
@example(nx=13, ny=4, j_scales=2, k_orients=2, seed=1)   # 25 x 8
@example(nx=4, ny=16, j_scales=3, k_orients=2, seed=2)   # 8 x 32: powers of two
def test_pruned_2d_inverse_is_irfftn(nx, ny, j_scales, k_orients, seed):
    # each slab's correlation, an inverse FFT of only the rows the grid
    # keeps, equals the full irfftn at those positions bit for bit: the
    # complex pass along axis 0 and the real pass along axis 1 unscaled,
    # then one scaling by 1/(F0*F1); with both lengths powers of two, the
    # per-pass scaling of numpy's default irfftn gives the same floats
    assume(nx != ny)
    d = gp.Aniso2DDictionary((nx, ny))
    grid = gp.Grid2DSpec(nx=nx, ny=ny, j_scales=j_scales, k_orients=k_orients)
    u = np.random.default_rng(seed).standard_normal((nx, ny))
    plan = pursuit._search_plan(d, gp.SignalBuffer(u), grid)
    shape = plan.fft_shape
    padded = np.zeros(shape)
    padded[:nx, :ny] = u
    transform = plan.transform(u)
    u_hat = transform[0]
    assert np.array_equal(u_hat, np.fft.rfftn(padded))
    for block in plan.blocks:
        want = np.fft.irfftn(u_hat * block.conj, shape, axes=(0, 1), norm="forward")
        want = want[:nx, :ny] * (1.0 / (shape[0] * shape[1]))
        got = block.correlate(transform)
        assert got.shape == (nx, ny) and np.array_equal(got, want)
        if all(_is_power_of_two(k) for k in shape):
            full = np.fft.irfftn(u_hat * block.conj, shape, axes=(0, 1))
            assert np.array_equal(got, full[:nx, :ny])
