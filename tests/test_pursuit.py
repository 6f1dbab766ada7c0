import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geopursuit as gp
from geopursuit import pursuit
from geopursuit.affine1d import affine_jet
from geopursuit.pursuit import full_search, gradient_ascent
from conftest import TranslationDictionary, naive_search


def unit(v):
    return gp.SignalBuffer(v / np.linalg.norm(v))


def test_score_of_own_atom_is_one():
    d = gp.Affine1DDictionary(256)
    lam = d.point(130.0, 6.0)
    g = d.synthesize(lam)
    assert gp.score(d, g, lam) == pytest.approx(1.0, abs=1e-10)


def test_score_orthogonal_residual(rng):
    d = gp.Affine1DDictionary(256)
    lam = d.point(130.0, 6.0)
    g = d.synthesize(lam)
    x = rng.standard_normal(256)
    x -= np.dot(x, g.data) * g.data  # Gram-Schmidt against the atom
    assert gp.score(d, gp.SignalBuffer(x), lam) < 1e-12


@settings(max_examples=40, deadline=None)
@given(two_d=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       fx=st.floats(0.0, 1.0), fy=st.floats(0.0, 1.0),
       theta=st.floats(0.0, math.pi, exclude_max=True),
       f1=st.floats(0.0, 1.0), f2=st.floats(0.0, 1.0))
def test_score_is_the_squared_inner_product_of_the_atom(two_d, seed, fx, fy, theta, f1, f2):
    # score dots the jet's atom with the residual without building a buffer
    # around it; the float is inner_product's on the synthesized atom, on a
    # cold dictionary and on a warm one alike
    def make():
        return gp.Aniso2DDictionary((14, 11)) if two_d else gp.Affine1DDictionary(96)

    d = make()
    lo, hi = (x * f for x, f in zip(d.scale_range, (1.01, 0.99)))
    a1, a2 = (lo * (hi / lo) ** f for f in (f1, f2))
    if two_d:
        lam = d.point(fx * 13, fy * 10, theta, a1, a2)
    else:
        lam = d.point(fx * 95, a1)
    r = gp.SignalBuffer(np.random.default_rng(seed).standard_normal(d.shape))
    want = gp.inner_product(make().synthesize(lam), r) ** 2
    assert gp.score(d, r, lam) == want
    assert gp.score(d, r, lam) == want == gp.inner_product(d.synthesize(lam), r) ** 2
    with pytest.raises(ValueError, match="shape mismatch"):
        gp.score(d, gp.SignalBuffer(r.data.ravel()[:-1]), lam)


def test_score_known_component(rng):
    d = gp.Affine1DDictionary(256)
    lam = d.point(130.0, 6.0)
    g = d.synthesize(lam)
    x = rng.standard_normal(256)
    x -= np.dot(x, g.data) * g.data
    x = x / np.linalg.norm(x) * 0.8
    residual = gp.SignalBuffer(0.6 * g.data + x)
    assert gp.score(d, residual, lam) == pytest.approx(0.36, abs=1e-8)


def test_full_search_recovers_on_grid_atom():
    d = gp.Affine1DDictionary(256)
    grid = gp.TauAdicGrid(b0=4, a0=2, tau=2.0, j_min=0, j_max=4, n=256)
    k = d.point(128.0, 4.0)
    f = d.synthesize(k)
    best, s = full_search(d, f, grid)
    assert np.allclose(best.coords, k.coords)
    assert s == pytest.approx(1.0, abs=1e-10)


def test_full_search_matches_naive_oracle(rng):
    d = gp.Affine1DDictionary(256)
    grids = [
        gp.TauAdicGrid(b0=4, a0=2, tau=2.0, j_min=0, j_max=5, n=256),       # fft path
        gp.tau_grid_for_signal(256, b0=1.5, log2_tau=0.25, a0=1.3),         # direct path
    ]
    for grid in grids:
        for _ in range(5):
            u = gp.SignalBuffer(rng.standard_normal(256))
            p_fast, s_fast = full_search(d, u, grid)
            p_ref, s_ref = naive_search(d, u, grid)
            assert np.array_equal(p_fast.coords, p_ref.coords)
            assert abs(s_fast - s_ref) < 1e-8


def test_every_atom_score_matches_naive(rng):
    # slab-by-slab audit: the fast paths agree with per-atom synthesis for
    # every grid atom, not just the argmax
    d = gp.Affine1DDictionary(256)
    for grid in (gp.TauAdicGrid(b0=4, a0=2, tau=2.0, j_min=0, j_max=5, n=256),
                 gp.tau_grid_for_signal(256, b0=1.5, log2_tau=0.25, a0=1.3)):
        u = gp.SignalBuffer(rng.standard_normal(256))
        fast = gp.grid_scores(d, u, grid)
        slow = np.array([gp.score(d, u, lam) for lam in grid.points()])
        assert fast.shape == slow.shape
        assert np.abs(fast - slow).max() < 1e-8

    d2 = gp.Aniso2DDictionary((10, 10))
    grid2 = gp.Grid2DSpec(nx=10, ny=10, j_scales=2, k_orients=2)
    u = gp.SignalBuffer(rng.standard_normal((10, 10)))
    fast = gp.grid_scores(d2, u, grid2)
    slow = np.array([gp.score(d2, u, lam) for lam in grid2.points()])
    assert np.abs(fast - slow).max() < 1e-8


def test_full_search_2d_matches_naive_oracle(rng):
    d = gp.Aniso2DDictionary((12, 12))
    grid = gp.Grid2DSpec(nx=12, ny=12, j_scales=2, k_orients=3)
    for _ in range(3):
        u = gp.SignalBuffer(rng.standard_normal((12, 12)))
        p_fast, s_fast = full_search(d, u, grid)
        p_ref, s_ref = naive_search(d, u, grid)
        assert np.array_equal(p_fast.coords, p_ref.coords)
        assert abs(s_fast - s_ref) < 1e-8


def test_full_search_zero_residual_tie_break():
    # every atom ties at 0, on all-lattice levels and on all-direct levels
    # (every bound and the pruning threshold 0, so every row passes)
    d = gp.Affine1DDictionary(64)
    z = gp.SignalBuffer.zeros((64,))
    for grid, kind in ((gp.TauAdicGrid(b0=4, a0=2, tau=2.0, j_min=0, j_max=2, n=64),
                        pursuit._LatticeBlock),
                       (gp.TauAdicGrid(b0=0.75, a0=1, tau=2.0, j_min=0, j_max=1, n=64),
                        pursuit._DirectBlock)):
        best, s = full_search(d, z, grid)
        assert s == 0.0
        first = next(grid.points())
        assert np.array_equal(best.coords, first.coords)
        assert {type(b) for b in pursuit._search_plan(d, z, grid).blocks} == {kind}


def test_unplanned_grids_are_refused(rng):
    # the search plans a tau-adic grid over an affine dictionary and a 2-D
    # grid over an anisotropic one; every other pair is refused by name,
    # also by a run that would stop before its first search
    td = TranslationDictionary(128, scale=4.0, mother="gaussian")
    d1 = gp.Affine1DDictionary(128)
    d2 = gp.Aniso2DDictionary((8, 16))
    tau = gp.TauAdicGrid(b0=4, a0=2, tau=2.0, j_min=0, j_max=2, n=128)
    grid2 = gp.Grid2DSpec(8, 16, 2, 2)
    u1 = gp.SignalBuffer(rng.standard_normal(128))
    u2 = gp.SignalBuffer(rng.standard_normal((8, 16)))
    cases = [(td, u1, [td.point(float(b)) for b in range(10, 120, 7)]), (td, u1, tau),
             (d1, u1, list(tau.points())), (d1, u1, grid2), (d2, u2, tau),
             (d2, u2, list(grid2.points()))]
    calls = (gp.full_search, gp.grid_scores,
             lambda d, u, g: gp.run(u, d, g),
             lambda d, u, g: gp.run(u, d, g, gp.PursuitConfig(max_iterations=0)))
    for d, u, grid in cases:
        for call in calls:
            with pytest.raises(TypeError, match=f"{type(grid).__name__} grid with a "
                                                f"{type(d).__name__}"):
                call(d, u, grid)


def test_full_search_grid_scale_domain_check():
    # a grid whose scale span leaves the dictionary's scale range is refused
    # when its plan is built, on either grid type; `run` refuses it before
    # its first step, so also on a zero signal, where it would take none
    cases = [(gp.Affine1DDictionary(256, scale_range=(1.0, 16.0)),
              gp.TauAdicGrid(b0=4, a0=2, tau=2.0, j_min=0, j_max=5, n=256)),  # tops at 64
             (gp.Aniso2DDictionary((8, 8), scale_range=(1.0, 8.0)),
              gp.Grid2DSpec(8, 8, 2, 2)),  # starts at 0.7
             (gp.Aniso2DDictionary((8, 8), scale_range=(1.0, 8.0)),
              gp.Grid2DSpec(8, 8, 2, 2, min_scale=1.0, max_scale=9.0))]
    for d, grid in cases:
        zero = gp.SignalBuffer.zeros(d.shape)
        for call in (lambda: full_search(d, zero, grid),
                     lambda: gp.run(zero, d, grid),
                     lambda: gp.run(zero, d, grid, gp.PursuitConfig(max_iterations=0))):
            with pytest.raises(gp.DomainError, match="of the grid outside"):
                call()
    # a 2-D grid within the range plans and searches
    d = cases[1][0]
    image = gp.SignalBuffer(np.random.default_rng(5).standard_normal((8, 8)))
    lam, s = full_search(d, image, gp.Grid2DSpec(8, 8, 2, 2, min_scale=1.0))
    assert s > 0 and lam.coords[3] >= 1.0


def test_search_plans_do_not_cross_talk(rng):
    # one grid under two mothers, and one dictionary over two grids: every
    # cached plan scores as a fresh dictionary's plan does
    grids = (gp.tau_grid_for_signal(256, b0=1.5, log2_tau=0.5),     # fft and direct levels
             gp.TauAdicGrid(b0=4, a0=2, tau=2.0, j_min=0, j_max=5, n=256))
    mothers = ("mexican_hat", "gaussian")
    dicts = {m: gp.Affine1DDictionary(256, mother=m) for m in mothers}
    u = gp.SignalBuffer(rng.standard_normal(256))
    cases = [(m, g) for m in mothers for g in grids]
    first = {(m, g): gp.grid_scores(dicts[m], u, g) for m, g in cases}
    for m, g in cases:
        want = gp.grid_scores(gp.Affine1DDictionary(256, mother=m), u, g)
        assert np.array_equal(first[m, g], want)
        assert np.array_equal(gp.grid_scores(dicts[m], u, g), want)
        slow = np.array([gp.score(dicts[m], u, lam) for lam in g.points()])
        assert np.abs(want - slow).max() < 1e-8
    assert not np.allclose(first["mexican_hat", grids[0]], first["gaussian", grids[0]])
    # atoms live on the dictionary's own sample grid: a residual, grid or
    # target shape of another size is refused, not padded or truncated
    u128 = gp.SignalBuffer(rng.standard_normal(128))
    lam = dicts["gaussian"].point(100.0, 8.0)
    for call in (lambda: gp.grid_scores(dicts["gaussian"], u128, grids[0]),
                 lambda: gp.full_search(dicts["gaussian"], u128, grids[1]),
                 lambda: gp.grid_scores(gp.Affine1DDictionary(128), u128, grids[0]),
                 lambda: gp.run(u, gp.Affine1DDictionary(128), grids[0]),
                 lambda: gp.run(u128, dicts["gaussian"], grids[0]),
                 # runs that stop before their first search still check
                 lambda: gp.run(gp.SignalBuffer.zeros((128,)), gp.Affine1DDictionary(256),
                                grids[0]),
                 lambda: gp.run(u128, dicts["gaussian"], grids[0],
                                gp.PursuitConfig(max_iterations=0)),
                 lambda: dicts["gaussian"].synthesize(lam, (128,)),
                 lambda: gp.reconstruct(gp.Decomposition(), dicts["gaussian"], (128,))):
        with pytest.raises(ValueError, match="does not match"):
            call()
    for call in (gp.score, gp.gradient):
        with pytest.raises(ValueError, match="shape mismatch"):
            call(dicts["gaussian"], u128, lam)

    d2 = gp.Aniso2DDictionary((10, 12))
    grids2 = (gp.Grid2DSpec(10, 12, 2, 3), gp.Grid2DSpec(10, 12, 3, 2))
    u2 = gp.SignalBuffer(rng.standard_normal((10, 12)))
    first2 = [gp.grid_scores(d2, u2, g) for g in grids2]
    for g, got in zip(grids2, first2):
        assert np.array_equal(got, gp.grid_scores(gp.Aniso2DDictionary((10, 12)), u2, g))
        slow = np.array([gp.score(d2, u2, lam) for lam in g.points()])
        assert np.abs(got - slow).max() < 1e-8
    u2t = gp.SignalBuffer(rng.standard_normal((12, 10)))
    for d in (d2, gp.Aniso2DDictionary((12, 10))):  # residual, then grid, mismatched
        with pytest.raises(ValueError, match="does not match"):
            gp.grid_scores(d, u2t, grids2[0])


def test_plan_build_builds_no_kernel_row_and_no_fft(monkeypatch):
    # the direct levels' rows are built when a search first asks for them,
    # and a 1-D plan has no FFT: building the plan of the n=8192 benchmark
    # grid builds no row, and it holds one template per lattice level,
    # whose windows all lie in the padded residual
    built = []
    kernel = pursuit._direct_kernel

    def counted_kernel(*args):
        built.append(args)
        return kernel(*args)

    monkeypatch.setattr(pursuit, "_direct_kernel", counted_kernel)
    n = 8192
    d = gp.Affine1DDictionary(n)
    grid = gp.experiment_grid(n, b0=2, log2_tau=0.5)
    plan = pursuit._search_plan(d, gp.SignalBuffer.zeros((n,)), grid)
    assert built == []
    assert plan.fft_shape is None
    lattice = [b for b in plan.blocks if isinstance(b, pursuit._LatticeBlock)]
    direct = [b for b in plan.blocks if isinstance(b, pursuit._DirectBlock)]
    assert len(lattice) == len(direct) == 10 and len(plan.blocks) == 20
    for (_, a, *_), block in zip(grid.levels(), plan.blocks):
        if isinstance(block, pursuit._LatticeBlock):
            m = math.ceil(pursuit.KERNEL_RADIUS * a)
            assert block.w.tobytes() == pursuit._template(d, (a,), (m,)).tobytes()
            assert block.length == block.w.size == 2 * m + 1
        assert block.starts.min() >= 0 and block.starts.max() + block.length <= n + 2 * plan.pad


def test_row_scores_do_not_depend_on_their_batch(rng):
    # a row's score is the same float whichever rows are scored with it, so
    # the pruned search returns the exhaustive scoring's float: on the
    # n=8192 benchmark grid, `full_search` on a fresh plan (which scores a
    # single threshold row first) returns the `grid_scores` entry at its
    # index, and a random subset of every 1-D block's rows, and each single
    # row of the widest lattice level (10,243 taps, past the 8,192 where a
    # one-row einsum changes its summation), score bit for bit as the whole
    # block does
    n = 8192
    d = gp.Affine1DDictionary(n)
    grid = gp.experiment_grid(n, b0=2, log2_tau=0.5)
    u = gp.SignalBuffer(rng.standard_normal(n))
    _, s = full_search(d, u, grid)
    plan = pursuit._search_plan(d, u, grid)
    best, index = plan.argmax(u.data)
    scores = gp.grid_scores(d, u, grid)
    assert s == best == scores[index] == scores.max() and index == int(np.argmax(scores))
    u_pad = plan.transform(u.data)
    lattice = [b for b in plan.blocks if isinstance(b, pursuit._LatticeBlock)]
    widest = max(lattice, key=lambda b: b.length)
    assert widest.length == 10_243
    for block in plan.blocks:
        whole = block.scores(u_pad)
        rows = np.sort(rng.choice(whole.size, size=max(1, whole.size // 3), replace=False))
        assert block.scores(u_pad, rows).tobytes() == whole[rows].tobytes()
        for k in range(whole.size) if block is widest else rows[:1]:
            assert block.scores(u_pad, [k]).tobytes() == whole[[k]].tobytes()


def _held_arrays(obj, path=()):
    """(path, array) for every array reachable from `obj` through
    containers and object attributes."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _held_arrays(value, path + (key,))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _held_arrays(value, path + (i,))
    elif hasattr(obj, "__dict__") and not callable(obj):
        for name, value in vars(obj).items():
            yield from _held_arrays(value, path + (name,))


@pytest.mark.parametrize("case", ["1d-benchmark", "2d-benchmark"])
def test_searches_leave_their_plan_unchanged(rng, case):
    # a plan holds only what does not depend on the residual: after a
    # search of one residual, a full scoring and a search of another each
    # leave every array the plan held bit for bit as it was; a direct
    # level's cache of kernel rows may only gain rows
    if case == "1d-benchmark":
        d = gp.Affine1DDictionary(8192)
        grid = gp.experiment_grid(8192, b0=2, log2_tau=0.5)
    else:
        d = gp.Aniso2DDictionary((64, 64))
        grid = gp.Grid2DSpec(64, 64, 3, 4)
    u, v = (gp.SignalBuffer(rng.standard_normal(d.shape)) for _ in range(2))
    full_search(d, u, grid)
    plan = pursuit._search_plan(d, u, grid)
    for search in (gp.grid_scores, full_search):
        before = {path: a.copy() for path, a in _held_arrays(plan)}
        search(d, v, grid)
        after = dict(_held_arrays(plan))
        assert before
        for path, a in before.items():
            assert after[path].dtype == a.dtype and after[path].tobytes() == a.tobytes(), path
        assert all("kernel_rows" in path for path in after.keys() - before.keys())


def test_next_fast_len_is_the_next_5_smooth_length():
    # the FFT lengths: the smallest 5-smooth integer >= n, by brute force
    # for every n up to 20,000
    limit = 20_000
    smooth = sorted(2 ** i * 3 ** j * 5 ** k for i in range(16) for j in range(11)
                    for k in range(8) if 2 ** i * 3 ** j * 5 ** k < 2 * limit)
    want = np.array(smooth)[np.searchsorted(smooth, np.arange(1, limit + 1))]
    assert np.array_equal([pursuit._next_fast_len(n) for n in range(1, limit + 1)], want)


def test_search_plan_is_freed_with_its_dictionary(rng):
    d = gp.Affine1DDictionary(256)
    grid = gp.tau_grid_for_signal(256, b0=1.5, log2_tau=0.5)
    gp.full_search(d, gp.SignalBuffer(rng.standard_normal(256)), grid)
    plans = [weakref.ref(plan) for plan in pursuit._PLANS[d].values()]
    dictionary = weakref.ref(d)
    assert len(plans) == 1
    del d
    gc.collect()
    assert dictionary() is None
    assert plans[0]() is None


def test_scores_square_and_divide_in_place():
    # an atom with no samples in the buffer (norm 0) scores 0, not nan or inf
    corr = np.array([[2.0, -3.0], [0.5, -1e-300]])
    out = pursuit._scores(corr, np.array([[0.0, 4.0], [0.25, 0.0]]))
    assert np.array_equal(out, [0.0, 2.25, 1.0, 0.0]) and np.shares_memory(out, corr)


def test_building_a_dictionary_and_grid_plans_nothing():
    # the benchmark times building its n=8192 dictionary and grid as set-up;
    # the search plan, and every kernel row in it, waits for the first search
    d = gp.Affine1DDictionary(8192)
    gp.experiment_grid(8192, b0=2, log2_tau=0.5)
    assert d not in pursuit._PLANS


@pytest.mark.parametrize("mother", ["mexican_hat", "gaussian"])
def test_level_template_is_the_dictionary_atom(mother):
    # an FFT level's template is the dictionary's own raw atom centred on
    # 2m + 1 samples: bit for bit the atom at b = 0 over offsets -m..m
    d = gp.Affine1DDictionary(64, mother=mother)
    for a, m in [(0.5, 5), (1.0, 10), (1.5, 15), (2.0 ** 0.5, 3), (7.25, 73), (40.0, 90)]:
        want = affine_jet(d.mother, 0.0, a, np.arange(-m, m + 1.0))[0][0]
        got = pursuit._template(d, (a,), (m,))
        assert got.tobytes() == want.tobytes()


def test_gradient_vanishes_at_own_atom():
    d = gp.Affine1DDictionary(512)
    lam = d.point(250.0, 10.0)
    g = d.synthesize(lam)
    info = gp.gradient(d, g, lam)
    assert info.grad_norm < 1e-6
    assert info.score == pytest.approx(1.0, abs=1e-10)


def test_gradient_directional_derivative(rng):
    d = gp.Affine1DDictionary(512)
    u = gp.SignalBuffer(rng.standard_normal(512))
    lam = d.point(260.0, 12.0)
    info = gp.gradient(d, u, lam)
    v = rng.standard_normal(2)
    v /= np.linalg.norm(v)
    h = 1e-4
    from geopursuit.dictionaries import ParamPoint
    sp = gp.score(d, u, ParamPoint(lam.coords + h * v))
    sm = gp.score(d, u, ParamPoint(lam.coords - h * v))
    assert (sp - sm) / (2 * h) == pytest.approx(float(v @ info.partial), rel=1e-3)


def test_gradient_invariant_under_residual_negation(rng):
    d = gp.Affine1DDictionary(512)
    u = rng.standard_normal(512)
    lam = d.point(260.0, 12.0)
    a = gp.gradient(d, gp.SignalBuffer(u), lam)
    b = gp.gradient(d, gp.SignalBuffer(-u), lam)
    np.testing.assert_array_equal(a.partial, b.partial)
    assert a.score == b.score


def test_gradient_norm_consistent_with_metric(rng):
    d = gp.Affine1DDictionary(512)
    u = gp.SignalBuffer(rng.standard_normal(512))
    lam = d.point(260.0, 12.0)
    info = gp.gradient(d, u, lam)
    G = gp.metric(d, lam)
    assert info.grad_norm ** 2 == pytest.approx(float(info.grad @ G.matrix @ info.grad), rel=1e-9)


def test_gradient_and_ascent_seed_take_one_jet(monkeypatch, rng):
    # metric's order-1 jet serves gradient's atom and partials; at a point
    # whose order-0 entry is held it extends that entry and builds no new
    # frame; the seed's jet serves a clamp that changes nothing; and over a
    # whole ascent each point gets one frame, every gradient extending the
    # entry its score left. A call is (order, start, whether it built a frame)
    calls, points = [], []
    jet = gp.Aniso2DDictionary._jet

    def counted(self, coords, shape, order, start, frame):
        calls.append((order, start, frame is None))
        if frame is None:
            points.append(coords.tobytes())
        return jet(self, coords, shape, order, start, frame)

    monkeypatch.setattr(gp.Aniso2DDictionary, "_jet", counted)
    d = gp.Aniso2DDictionary((24, 24))
    u = gp.SignalBuffer(rng.standard_normal((24, 24)))
    lam = d.point(11.0, 12.5, 0.4, 2.0, 3.5)
    gp.gradient(d, u, lam)
    assert calls == [(1, 0, True)]

    d = gp.Aniso2DDictionary((24, 24))
    s = gp.score(d, u, lam)
    calls.clear()
    info = gp.gradient(d, u, lam)
    assert calls == [(1, 1, False)] and info.score == s

    d = gp.Aniso2DDictionary((24, 24))
    seed = next(lam for lam in gp.Grid2DSpec(24, 24, 3, 4).points()
                if np.array_equal(d.clamp_coords(lam.coords).coords, lam.coords))
    calls.clear()
    res = gradient_ascent(d, u, seed, kappa=0)
    assert res.lam is seed and calls == [(0, 0, True)]

    calls.clear()
    points.clear()
    res = gradient_ascent(d, u, seed, kappa=4)
    assert res.steps >= 2
    assert len(points) == len(set(points))
    gradients = res.steps + (res.reason != "kappa")  # the last gradient stops a short ascent
    assert [c for c in calls if c[0] == 1] == [(1, 1, False)] * gradients


def test_ascent_fixed_point():
    d = gp.Affine1DDictionary(512)
    lam = d.point(250.0, 10.0)
    g = d.synthesize(lam)
    res = gradient_ascent(d, g, lam, kappa=10)
    assert res.reason == "gradient"
    assert res.steps == 0
    assert res.score == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("b", [-32.0, -64.0, -256.0])
def test_ascent_keeps_out_of_buffer_grid_atom(b):
    # grid translations reach MASS_RADIUS widths past the edge; the ascent
    # must start from such an atom, not from its clamp to the buffer
    d = gp.Affine1DDictionary(512)
    grid = gp.tau_grid_for_signal(512, b0=2, log2_tau=0.5)
    atoms = [p for p in grid.points() if abs(p.coords[0] - b) < 1e-9]
    assert atoms
    for lam in atoms:
        res = gradient_ascent(d, d.synthesize(lam), lam, kappa=10)
        assert (res.steps, res.reason) == (0, "gradient")


def test_ascent_kappa_zero_is_identity():
    d = gp.Affine1DDictionary(512)
    lam = d.point(250.0, 10.0)
    u = gp.SignalBuffer(np.ones(512))
    res = gradient_ascent(d, u, lam, kappa=0)
    assert np.array_equal(res.lam.coords, lam.coords)
    assert res.steps == 0


def test_ascent_monotone_and_clamped(rng):
    d = gp.Affine1DDictionary(512, scale_range=(1.0, 128.0))
    for _ in range(20):
        u = unit(rng.standard_normal(512))
        lam0 = d.point(rng.uniform(0, 511), math.exp(rng.uniform(0.1, math.log(100))))
        s0 = gp.score(d, u, lam0)
        res = gradient_ascent(d, u, lam0, kappa=5)
        assert res.score >= s0
        a = res.lam.coords[1]
        assert 1.0 < a < 128.0 or a == lam0.coords[1]


def test_ascent_off_grid_midpoint_improves():
    d = gp.Affine1DDictionary(512)
    grid = gp.tau_grid_for_signal(512, b0=2, log2_tau=0.5)
    # midpoint between adjacent translations at the a=16 level
    lam_star = d.point(256.0 + 16.0, 16.0)
    f = d.synthesize(lam_star)
    k, s_grid = full_search(d, f, grid)
    res = gradient_ascent(d, f, k, kappa=10, chi=0.1)
    assert res.score > s_grid
    assert res.score <= 1.0 + 1e-12


def test_run_exact_atom_single_step():
    d = gp.Affine1DDictionary(512)
    grid = gp.TauAdicGrid(b0=4, a0=2, tau=2.0, j_min=0, j_max=5, n=512)
    g = d.synthesize(d.point(256.0, 2.0))
    f = gp.SignalBuffer(0.7 * g.data)
    dec = gp.run(f, d, grid, gp.PursuitConfig(mode="dmp", max_iterations=1))
    assert len(dec) == 1
    assert dec.steps[0].coeff == pytest.approx(0.7, abs=1e-12)
    assert dec.final_residual.norm() < 1e-10


def test_run_energy_conservation_and_monotonicity(rng):
    d = gp.Affine1DDictionary(512)
    grid = gp.tau_grid_for_signal(512, b0=2, log2_tau=0.5)
    f = unit(rng.standard_normal(512))
    for mode in ("dmp", "gmp"):
        dec = gp.run(f, d, grid, gp.PursuitConfig(mode=mode, kappa=5, max_iterations=20))
        total = sum(s.coeff ** 2 for s in dec.steps) + dec.final_residual.energy()
        assert total == pytest.approx(f.energy(), rel=1e-9)
        energies = dec.residual_energies()
        assert np.all(np.diff(energies) < 0)
        for before, step in zip(energies[:-1], dec.steps):
            assert step.residual_energy == pytest.approx(before - step.score,
                                                         rel=1e-10, abs=1e-14)


def test_run_residual_orthogonality(rng):
    d = gp.Affine1DDictionary(512)
    grid = gp.tau_grid_for_signal(512, b0=2, log2_tau=0.5)
    f = unit(rng.standard_normal(512))
    dec = gp.run(f, d, grid, gp.PursuitConfig(mode="dmp", max_iterations=15))
    residual = f
    for step in dec.steps:
        atom = d.synthesize(d.point(*step.lam))
        before = residual.norm()
        residual = gp.SignalBuffer(residual.data - step.coeff * atom.data)
        assert abs(gp.inner_product(residual, atom)) <= 1e-8 * before


def test_run_weak_selection_contract(rng):
    # replayed residuals: selection is the exact grid argmax (weak MP with
    # alpha = 1), so the recorded score always reaches the grid optimum
    d = gp.Affine1DDictionary(512)
    grid = gp.tau_grid_for_signal(512, b0=2, log2_tau=0.5)
    f = unit(rng.standard_normal(512))
    dec = gp.run(f, d, grid, gp.PursuitConfig(mode="dmp", max_iterations=8))
    residual = f
    for step in dec.steps:
        _, s_grid = full_search(d, residual, grid)
        assert step.score >= s_grid - 1e-12
        atom = d.synthesize(d.point(*step.lam))
        residual = gp.SignalBuffer(residual.data - step.coeff * atom.data)


def test_run_gmp_dominates_grid_choice(rng):
    d = gp.Affine1DDictionary(512)
    grid = gp.tau_grid_for_signal(512, b0=2, log2_tau=0.5)
    f = unit(rng.standard_normal(512))
    dec = gp.run(f, d, grid, gp.PursuitConfig(mode="gmp", kappa=5, max_iterations=10))
    residual = f
    for step in dec.steps:
        _, s_grid = full_search(d, residual, grid)
        assert step.score >= s_grid - 1e-12
        atom = d.synthesize(d.point(*step.lam))
        residual = gp.SignalBuffer(residual.data - step.coeff * atom.data)


@settings(max_examples=20, deadline=None)
@given(family=st.sampled_from(["affine", "aniso2d"]), mode=st.sampled_from(["dmp", "gmp"]),
       seeds=st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1)))
def test_run_on_a_warm_dictionary_matches_fresh_ones(family, mode, seeds):
    # what a dictionary keeps between runs (its jet memo, its search plans)
    # leaves no trace in the steps: one dictionary run on two signals in
    # turn gives, bit for bit, the steps of a fresh dictionary per signal
    if family == "affine":
        make, grid = (lambda: gp.Affine1DDictionary(96)), gp.tau_grid_for_signal(96, 1.5, 0.5)
    else:
        make, grid = (lambda: gp.Aniso2DDictionary((12, 10))), gp.Grid2DSpec(12, 10, 2, 2)
    config = gp.PursuitConfig(mode=mode, kappa=4, max_iterations=4)
    warm = make()
    for seed in seeds:
        f = gp.SignalBuffer(np.random.default_rng(seed).standard_normal(warm.shape))
        got, want = gp.run(f, warm, grid, config), gp.run(f, make(), grid, config)
        assert [s.to_record() for s in got.steps] == [s.to_record() for s in want.steps]
        assert np.array_equal(got.final_residual.data, want.final_residual.data)


def test_run_zero_signal_stops_cleanly():
    d = gp.Affine1DDictionary(128)
    grid = gp.TauAdicGrid(b0=4, a0=2, tau=2.0, j_min=0, j_max=3, n=128)
    dec = gp.run(gp.SignalBuffer.zeros((128,)), d, grid, gp.PursuitConfig(max_iterations=5))
    assert len(dec) == 0


def test_reconstruct_empty_is_zero():
    d = gp.Affine1DDictionary(64)
    dec = gp.Decomposition(steps=[], initial_energy=0.0)
    out = gp.reconstruct(dec, d)
    assert out.shape == (64,) and out.norm() == 0.0


def test_reconstruct_roundtrip(rng):
    d = gp.Affine1DDictionary(256)
    grid = gp.tau_grid_for_signal(256, b0=2, log2_tau=0.5)
    f = unit(rng.standard_normal(256))
    dec = gp.run(f, d, grid, gp.PursuitConfig(mode="gmp", kappa=5, max_iterations=12))
    approx = gp.reconstruct(dec, d)
    gap = np.linalg.norm(f.data - approx.data - dec.final_residual.data)
    assert gap / f.norm() < 1e-9


def test_decomposition_jsonl_roundtrip(tmp_path, rng):
    d = gp.Affine1DDictionary(256)
    grid = gp.tau_grid_for_signal(256, b0=2, log2_tau=0.5)
    f = unit(rng.standard_normal(256))
    dec = gp.run(f, d, grid, gp.PursuitConfig(mode="gmp", kappa=5, max_iterations=6))
    path = tmp_path / "steps.jsonl"
    dec.to_jsonl(path)
    rec = json.loads(path.read_text().splitlines()[0])
    assert set(rec) == {"m", "lambda", "coeff", "score", "residual_energy",
                        "seed_lambda", "ascent_steps"}
    back = gp.Decomposition.from_jsonl(path)
    assert len(back) == len(dec)
    for a, b in zip(dec.steps, back.steps):
        np.testing.assert_array_equal(a.lam, b.lam)
        assert a.coeff == b.coeff and a.residual_energy == b.residual_energy
    rec_a = gp.reconstruct(dec, d)
    rec_b = gp.reconstruct(back, d)
    np.testing.assert_array_equal(rec_a.data, rec_b.data)


def test_decomposition_jsonl_recovers_initial_energy(tmp_path, rng):
    d = gp.Affine1DDictionary(256)
    grid = gp.tau_grid_for_signal(256, b0=2, log2_tau=0.5)
    f = unit(rng.standard_normal(256))
    dec = gp.run(f, d, grid, gp.PursuitConfig(mode="gmp", kappa=5, max_iterations=6))
    path = tmp_path / "steps.jsonl"
    dec.to_jsonl(path)
    energies = gp.Decomposition.from_jsonl(path).residual_energies()
    assert np.all(np.diff(energies) < 0)
    assert energies[0] == pytest.approx(dec.initial_energy, rel=1e-12)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert gp.Decomposition.from_jsonl(empty).initial_energy == 0.0


def test_select_is_the_run_selection_rule(rng):
    d = gp.Affine1DDictionary(256)
    grid = gp.tau_grid_for_signal(256, b0=2, log2_tau=0.5)
    f = unit(rng.standard_normal(256))
    k_best, s_grid = full_search(d, f, grid)
    lam, s, seed, steps = gp.select(d, f, grid, gp.PursuitConfig(mode="dmp"))
    assert np.array_equal(lam.coords, k_best.coords)
    assert (s, seed, steps) == (s_grid, None, 0)
    cfg = gp.PursuitConfig(mode="gmp", kappa=5, max_iterations=1)
    lam, s, seed, steps = gp.select(d, f, grid, cfg)
    assert s >= s_grid and np.array_equal(seed.coords, k_best.coords)
    assert gp.selection_score(d, f, grid, cfg) == s
    step = gp.run(f, d, grid, cfg).steps[0]
    assert np.array_equal(step.lam, lam.coords) and step.ascent_steps == steps


def test_decomposition_csv_output(tmp_path, rng):
    d = gp.Affine1DDictionary(256)
    grid = gp.tau_grid_for_signal(256, b0=2, log2_tau=0.5)
    f = unit(rng.standard_normal(256))
    dec = gp.run(f, d, grid, gp.PursuitConfig(mode="dmp", max_iterations=4))
    path = tmp_path / "steps.csv"
    dec.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "m,lambda_0,lambda_1,coeff,score,residual_energy,seed_0,seed_1,ascent_steps"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[3]) == dec.steps[0].coeff  # 17 digits round-trip


def test_pursuit_config_validation():
    with pytest.raises(ValueError):
        gp.PursuitConfig(mode="omp")
    with pytest.raises(ValueError):
        gp.PursuitConfig(kappa=-1)
    with pytest.raises(ValueError):
        gp.PursuitConfig(chi=0.0)
    with pytest.raises(ValueError, match="max_iterations"):
        gp.PursuitConfig(max_iterations=-1)
    assert gp.PursuitConfig(max_iterations=0).max_iterations == 0


@pytest.mark.parametrize("field, value", [
    ("chi", math.inf), ("chi", math.nan), ("chi", -math.inf),
    ("kappa", 2.5), ("kappa", True), ("kappa", 3.0),
    ("max_iterations", 2.5), ("max_iterations", False), ("max_iterations", "4"),
    ("energy_floor_rel", math.nan), ("energy_floor_rel", -1.0), ("energy_floor_rel", math.inf),
])
def test_pursuit_config_refuses_values_the_pursuit_cannot_use(field, value):
    # an infinite chi ends the ascent at its first step on non-finite
    # coordinates, a fractional kappa rounds its step count up, a
    # fractional max_iterations fails inside `range`, and with a NaN or
    # negative energy_floor_rel the energy-floor stop can never fire
    with pytest.raises(ValueError, match=field):
        gp.PursuitConfig(**{field: value})
