import gc
import json
import math
import weakref

import numpy as np
import pytest

import geopursuit as gp
from geopursuit import pursuit
from geopursuit.pursuit import full_search, gradient_ascent
from conftest import naive_search


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
    d = gp.Affine1DDictionary(64)
    grid = gp.TauAdicGrid(b0=4, a0=2, tau=2.0, j_min=0, j_max=2, n=64)
    z = gp.SignalBuffer.zeros((64,))
    best, s = full_search(d, z, grid)
    assert s == 0.0
    first = next(grid.points())
    assert np.array_equal(best.coords, first.coords)


def test_full_search_generic_fallback(rng):
    td = gp.TranslationDictionary(128, scale=4.0, mother="gaussian")
    pts = [td.point(float(b)) for b in range(10, 120, 7)]
    u = gp.SignalBuffer(rng.standard_normal(128))
    best, s = full_search(td, u, pts)
    ref, s_ref = naive_search(td, u, type("G", (), {"points": staticmethod(lambda: iter(pts))}))
    assert np.array_equal(best.coords, ref.coords) and s == pytest.approx(s_ref)
    for search in (full_search, gp.grid_scores):
        with pytest.raises(ValueError, match="grid is empty"):
            search(td, u, [])


def test_full_search_grid_scale_domain_check():
    d = gp.Affine1DDictionary(256, scale_range=(1.0, 16.0))
    grid = gp.TauAdicGrid(b0=4, a0=2, tau=2.0, j_min=0, j_max=5, n=256)  # tops at 64
    with pytest.raises(gp.DomainError):
        full_search(d, gp.SignalBuffer.zeros((256,)), grid)


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
                 lambda: gp.full_search(dicts["gaussian"], u128, list(grids[1].points())),
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
    sp = gp.score(d, u, ParamPoint(lam.coords + h * v, lam.kinds))
    sm = gp.score(d, u, ParamPoint(lam.coords - h * v, lam.kinds))
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
    back = gp.Decomposition.from_jsonl(path, initial_energy=dec.initial_energy)
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
    assert gp.Decomposition.from_jsonl(path, initial_energy=2.5).initial_energy == 2.5
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
    # a plain list of points is a grid as well
    small = gp.TauAdicGrid(b0=16, a0=4, tau=2.0, j_min=0, j_max=1, n=256)
    cfg = gp.PursuitConfig(mode="gmp", kappa=2)
    lam, s, seed, steps = gp.select(d, f, small, cfg)
    lam_l, s_l, seed_l, steps_l = gp.select(d, f, list(small.points()), cfg)
    assert np.array_equal(lam.coords, lam_l.coords) and (s, steps) == (s_l, steps_l)
    assert np.array_equal(seed.coords, seed_l.coords)


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
