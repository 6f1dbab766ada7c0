import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geopursuit as gp
from geopursuit import geometry
from geopursuit.dictionaries import ParamPoint
from conftest import (TranslationDictionary, central_differences, dense_proxy,
                      exhaustive_density_radius, interior_affine_points)

SQRT3 = 1.7320508075688772  # ||g''|| / ||g'||^2 for a unit Gaussian, any scale
ROOT = Path(__file__).resolve().parents[1]


def test_metric_positive_definite(rng):
    d = gp.Affine1DDictionary(1024)
    for lam in interior_affine_points(d, rng, 5):
        G = gp.metric(d, lam)
        for _ in range(100):
            xi = rng.standard_normal(2)
            q = float(xi @ G.matrix @ xi)
            assert q > 0 or not np.any(xi)
        assert np.abs(G.matrix @ G.inverse - np.eye(2)).max() < 1e-8
        assert np.abs(G.matrix - G.matrix.T).max() < 1e-10


def test_christoffel_symmetric_lower_indices():
    d = gp.Affine1DDictionary(512)
    gamma = gp.christoffel(d, d.point(250.0, 11.0))
    assert np.abs(gamma - gamma.transpose(0, 2, 1)).max() < 1e-6


@pytest.mark.parametrize("quantity", [gp.christoffel, geometry.curvature_bracket])
def test_christoffel_and_curvature_take_one_order_2_jet(monkeypatch, quantity):
    orders = []
    jet = gp.Aniso2DDictionary._jet
    monkeypatch.setattr(gp.Aniso2DDictionary, "_jet",
                        lambda self, c, s, order: orders.append(order) or jet(self, c, s, order))
    d = gp.Aniso2DDictionary((24, 24))
    quantity(d, d.point(11.0, 12.5, 0.4, 2.0, 3.5))
    assert orders == [2]


def test_christoffel_matches_scaled_translation_dilation_form():
    # For the metric W/a^2 the nonzero coefficients are
    # G^b_ba = G^a_aa = -1/a and G^a_bb = (W00/W11)/a = +1/a.
    d = gp.Affine1DDictionary(1024)
    for a in (8.0, 23.0):
        gamma = gp.christoffel(d, d.point(500.0, a))
        want = np.zeros((2, 2, 2))
        want[0, 0, 1] = want[0, 1, 0] = -1.0 / a
        want[1, 1, 1] = -1.0 / a
        want[1, 0, 0] = 1.0 / a
        assert np.abs(gamma - want).max() < 1e-6 / a


def test_christoffel_matches_metric_derivative_formula():
    # independent route: 0.5 G^{lk} (d_j G_li + d_i G_jl - d_l G_ij) with
    # the metric differentiated by central differences
    d = gp.Affine1DDictionary(512)
    lam = d.point(260.4, 9.3)
    P = 2
    G0 = gp.metric(d, lam)
    dG = np.zeros((P, P, P))
    for l in range(P):
        h = 1e-4 * (lam.coords[l] if d.kinds[l] == gp.SCALE else 1.0)
        cp = np.array(lam.coords); cp[l] += h
        cm = np.array(lam.coords); cm[l] -= h
        dG[l] = (gp.metric(d, ParamPoint(cp)).matrix
                 - gp.metric(d, ParamPoint(cm)).matrix) / (2 * h)
    want = np.zeros((P, P, P))
    for k in range(P):
        for i in range(P):
            for j in range(P):
                acc = 0.0
                for l in range(P):
                    acc += 0.5 * G0.inverse[l, k] * (dG[j][l, i] + dG[i][j, l] - dG[l][i, j])
                want[k, i, j] = acc
    got = gp.christoffel(d, lam)
    assert np.abs(got - want).max() < 1e-3 * max(np.abs(got).max(), 1.0)


def test_christoffel_translation_only_vanishes():
    # translation invariance makes <d_bb g, d_b g> = d_b ||d_b g||^2 / 2 = 0
    td = TranslationDictionary(512, scale=3.0, mother="mexican_hat")
    gamma = gp.christoffel(td, td.point(250.0))
    assert abs(gamma[0, 0, 0]) < 1e-8


def test_condition_bound_at_least_one(rng):
    d = gp.Affine1DDictionary(1024)
    k1 = gp.condition_bound(d, interior_affine_points(d, rng, 10))
    assert k1 >= 1.0 - 1e-3
    d2 = gp.Aniso2DDictionary((32, 32))
    k2 = gp.condition_bound(d2, [d2.point(16.0, 16.0, 0.4, 2.5, 4.0)])
    assert k2 >= 1.0 - 1e-3


def test_condition_bound_scale_invariant_for_affine(rng):
    d = gp.Affine1DDictionary(2048)
    vals = [math.sqrt(gp.curvature_bracket(d, lam))
            for lam in interior_affine_points(d, rng, 10, scale_lo=3.0, scale_hi=40.0)]
    spread = (max(vals) - min(vals)) / min(vals)
    assert spread < 1e-3


def test_condition_bound_gaussian_translation_quadrature():
    td = TranslationDictionary(512, scale=2.0, mother="gaussian")
    k = gp.condition_bound(td, [td.point(256.0), td.point(133.7)])
    assert k == pytest.approx(SQRT3, abs=1e-4)


def test_condition_bound_empty_and_error():
    d = gp.Affine1DDictionary(128)
    with pytest.raises(ValueError):
        gp.condition_bound(d, [])


def test_path_length_zero_for_same_point():
    d = gp.Affine1DDictionary(256)
    lam = d.point(100.0, 8.0)
    assert gp.path_length(d, lam, lam, segments=4) == 0.0


def test_path_length_pure_translation_closed_form():
    # metric W/a^2 is constant along a fixed-scale segment, so the length is
    # |db| sqrt(W00) / a at any refinement
    d = gp.Affine1DDictionary(1024)
    for segments in (1, 4, 16):
        L = gp.path_length(d, d.point(400.0, 16.0), d.point(432.0, 16.0),
                           segments=segments)
        assert L == pytest.approx(32.0 * math.sqrt(2.5) / 16.0, rel=1e-6)


def test_path_length_refinement_monotone():
    d = gp.Affine1DDictionary(1024)
    la, lb = d.point(400.0, 8.0), d.point(520.0, 48.0)
    vals = [gp.path_length(d, la, lb, segments=s) for s in (1, 2, 4, 8, 16)]
    gaps = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_path_length_domain_exit():
    d = gp.Affine1DDictionary(256, scale_range=(1.0, 32.0))
    with pytest.raises(gp.DomainError):
        gp.path_length(d, d.point(100.0, 2.0), gp.ParamPoint((100.0, 0.5)),
                       segments=8)


def test_density_radius_zero_on_grid_points():
    d = gp.Affine1DDictionary(256)
    grid = gp.TauAdicGrid(b0=2, a0=2, tau=2.0, j_min=0, j_max=3, n=256)
    probes = list(grid.points())[::7]
    assert gp.density_radius(d, grid, probes) == 0.0


def test_density_radius_decreases_with_translation_refinement(rng):
    d = gp.Affine1DDictionary(512)
    coarse = gp.TauAdicGrid(b0=2, a0=1, tau=2.0 ** 0.5, j_min=0, j_max=10, n=512)
    fine = gp.TauAdicGrid(b0=1, a0=1, tau=2.0 ** 0.5, j_min=0, j_max=10, n=512)
    probes = [d.point(rng.uniform(0, 511), math.exp(rng.uniform(math.log(1.3), math.log(25))))
              for _ in range(60)]
    r_coarse = gp.density_radius(d, coarse, probes)
    r_fine = gp.density_radius(d, fine, probes)
    assert r_fine < r_coarse


def test_density_radius_requires_grid_and_probes():
    d = gp.Affine1DDictionary(64)
    grid = gp.TauAdicGrid(b0=2, a0=2, tau=2.0, j_min=0, j_max=1, n=64)
    with pytest.raises(ValueError):
        gp.density_radius(d, grid, [])


def test_density_radius_angle_is_pi_periodic():
    # theta = pi - eps is the atom next to the grid's theta = 0, as theta = eps is
    grid = gp.Grid2DSpec(16, 16, 3, 4)
    d = gp.Aniso2DDictionary((16, 16))
    s = float(grid.scales()[1])
    near_zero, near_pi = (gp.density_radius(d, grid, [d.point(8, 8, theta, s, 1.3 * s)])
                          for theta in (0.001, math.pi - 0.001))
    assert near_pi == pytest.approx(near_zero, rel=1e-6)


def test_density_radius_zero_on_2d_grid_points():
    grid = gp.Grid2DSpec(12, 12, 2, 3)
    d = gp.Aniso2DDictionary((12, 12), scale_range=(0.5, 16.0))
    probes = list(grid.points())[::17]
    assert gp.density_radius(d, grid, probes) == 0.0


def test_density_radius_on_grid_points_refines_no_path(monkeypatch):
    # nearest first, a probe on a grid point meets its zero proxy before any path
    calls = []
    path_length = geometry.path_length
    monkeypatch.setattr(geometry, "path_length",
                        lambda *a, **k: calls.append(1) or path_length(*a, **k))
    tau = gp.TauAdicGrid(b0=2, a0=2, tau=2.0, j_min=0, j_max=3, n=256)
    d1 = gp.Affine1DDictionary(256)
    assert gp.density_radius(d1, tau, list(tau.points())[::7]) == 0.0
    grid = gp.Grid2DSpec(12, 12, 2, 3)
    d2 = gp.Aniso2DDictionary((12, 12), scale_range=(0.5, 16.0))
    assert gp.density_radius(d2, grid, list(grid.points())[::17]) == 0.0
    assert calls == []


def test_density_radius_rejects_bad_segment_count():
    # checked up front, not only once a path is refined: this probe needs none
    d = gp.Affine1DDictionary(64)
    grid = gp.TauAdicGrid(b0=2, a0=2, tau=2.0, j_min=0, j_max=1, n=64)
    first = next(iter(grid.points()))
    for segments in (0, -1):
        with pytest.raises(ValueError, match="segment"):
            gp.density_radius(d, grid, [first], segments=segments)


PROXY_RTOL = 1e-12  # relative to the largest proxy value on the grid


def check_block_proxy(dictionary, grid, probe, seed):
    """The block proxy, by which density_radius picks its candidates, equals
    the dense oracle at every grid point and names the same nearest points
    unless the oracle's last candidate ties with the next point to rounding.
    The split is an identity for any symmetric G, so a random SPD G, with
    every block coupled, stands in for the metric."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dictionary.P, dictionary.P))
    G = A @ A.T + 0.1 * np.eye(dictionary.P)
    angles = [i for i, kind in enumerate(dictionary.kinds) if kind == gp.ANGLE]
    positions, others = grid.factors()
    t = positions.shape[1]
    block, _ = geometry._block_proxy(G, positions, others, probe.coords,
                                     [i - t for i in angles])
    want = dense_proxy(dictionary, grid, probe, G)
    assert block.shape == (len(others), len(positions))
    assert np.abs(block.ravel() - want).max() <= PROXY_RTOL * want.max()

    count = geometry._PATH_CANDIDATES
    got = set(np.argpartition(block, count - 1, axis=None)[:count].tolist())
    ranked = np.sort(want)
    if abs(ranked[count] - ranked[count - 1]) > PROXY_RTOL * ranked[count]:
        assert got == set(np.argpartition(want, count - 1)[:count].tolist())


thetas = st.one_of(st.floats(0.0, 1e-6), st.floats(math.pi - 1e-6, math.pi),
                   st.floats(0.0, math.pi))


@settings(max_examples=30, deadline=None)
@given(nx=st.integers(8, 24), ny=st.integers(8, 24), j_scales=st.integers(1, 3),
       k_orients=st.integers(1, 4), u=st.tuples(*[st.floats(0, 1)] * 4), theta=thetas,
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_proxy_matches_dense_oracle_on_2d_grids(nx, ny, j_scales, k_orients, u,
                                                      theta, seed):
    grid = gp.Grid2DSpec(nx, ny, j_scales, k_orients)
    d = gp.Aniso2DDictionary((nx, ny))
    lo, hi = d.scale_range
    a1, a2 = (lo * (hi / lo) ** f for f in u[2:])
    probe = ParamPoint((u[0] * (nx - 1), u[1] * (ny - 1), theta, a1, a2))
    check_block_proxy(d, grid, probe, seed)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(24, 256), b0=st.sampled_from([0.75, 1.0, 1.5, 2.0, 3.0]),
       log2_tau=st.sampled_from([0.25, 0.5, 1.0]), a0=st.floats(0.8, 2.0),
       u=st.tuples(st.floats(0, 1), st.floats(0, 1)), seed=st.integers(0, 2 ** 32 - 1))
def test_block_proxy_matches_dense_oracle_on_tau_adic_grids(n, b0, log2_tau, a0, u, seed):
    grid = gp.tau_grid_for_signal(n, b0=b0, log2_tau=log2_tau, a0=a0)
    d = gp.Affine1DDictionary(n)
    lo, hi = grid.scale_span()
    probe = d.point(u[0] * (n - 1), lo * (hi / lo) ** u[1])
    check_block_proxy(d, grid, probe, seed)


def check_density_radius(dictionary, grid, probes):
    """Pruned and exhaustive refinement give the same radius, bit for bit."""
    want = exhaustive_density_radius(dictionary, grid, probes)
    got = gp.density_radius(dictionary, grid, probes)
    assert got.hex() == want.hex()


probe_counts = {"min_size": 2, "max_size": 8}


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(8, 16), ny=st.integers(8, 16), j_scales=st.integers(1, 3),
       k_orients=st.integers(1, 4),
       probes=st.lists(st.tuples(st.tuples(*[st.floats(0, 1)] * 4), thetas), **probe_counts))
def test_density_radius_matches_exhaustive_oracle_on_2d_grids(nx, ny, j_scales, k_orients,
                                                              probes):
    grid = gp.Grid2DSpec(nx, ny, j_scales, k_orients)
    d = gp.Aniso2DDictionary((nx, ny), scale_range=(0.5, 2.0 * max(nx, ny)))
    lo, hi = float(grid.scales()[0]), float(grid.scales()[-1])
    points = [ParamPoint((u[0] * (nx - 1), u[1] * (ny - 1), theta,
                          *(lo * (hi / lo) ** f for f in u[2:])))
              for u, theta in probes]
    check_density_radius(d, grid, points)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(24, 256), b0=st.sampled_from([0.75, 1.0, 1.5, 2.0, 3.0]),
       log2_tau=st.sampled_from([0.25, 0.5, 1.0]), a0=st.floats(0.8, 2.0),
       probes=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), **probe_counts))
def test_density_radius_matches_exhaustive_oracle_on_tau_adic_grids(n, b0, log2_tau, a0,
                                                                    probes):
    grid = gp.tau_grid_for_signal(n, b0=b0, log2_tau=log2_tau, a0=a0)
    d = gp.Affine1DDictionary(n)
    lo, hi = grid.scale_span()
    check_density_radius(d, grid, [d.point(u * (n - 1), lo * (hi / lo) ** v)
                                   for u, v in probes])


def random_metric(P, log10_cond, seed, position_null=False):
    """A random SPD matrix of condition number 10**log10_cond; with
    `position_null` its smallest eigenvector lies mostly in the first two
    (position) coordinates, so that its position block is ill-conditioned."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((P, P))
    if position_null:
        M[2:, 0] *= 1e-6
    Q, _ = np.linalg.qr(M)
    eigvals = np.logspace(0, log10_cond, P)
    eigvals[1:-1] = rng.permutation(eigvals[1:-1])
    G = (Q * eigvals) @ Q.T
    return (G + G.T) / 2


def check_slab_bounds(dictionary, grid, coords, G, on_minimum):
    """Each slab's bound, less its margin, is at most every proxy computed in
    that slab. With `on_minimum`, the probe's position puts the continuous
    minimiser of the first slab's proxy exactly on a grid position, where
    the bound is tightest."""
    positions, others = grid.factors()
    t = positions.shape[1]
    angles = [i - t for i, kind in enumerate(dictionary.kinds) if kind == gp.ANGLE]
    x = np.array(coords, dtype=np.float64)
    if on_minimum and t:
        do, _ = geometry._offsets(others[:1], x[t:], angles)
        x[:t] = positions[len(positions) // 2] + np.linalg.solve(G[:t, :t], G[:t, t:] @ do[0])
    do, _ = geometry._offsets(others, x[t:], angles)
    low = geometry._slab_bounds(G, t, do)
    proxy, _ = geometry._block_proxy(G, positions, others, x, angles)
    assert np.all(low <= proxy.min(axis=1))


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(4, 12), ny=st.integers(4, 12), j_scales=st.integers(1, 3),
       k_orients=st.integers(1, 4), u=st.tuples(*[st.floats(0, 1)] * 4), theta=thetas,
       log10_cond=st.one_of(st.floats(0, 12), st.floats(11, 12)), position_null=st.booleans(),
       on_minimum=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_slab_bound_is_below_every_proxy_of_its_slab_on_2d_grids(
        nx, ny, j_scales, k_orients, u, theta, log10_cond, position_null, on_minimum, seed):
    grid = gp.Grid2DSpec(nx, ny, j_scales, k_orients)
    d = gp.Aniso2DDictionary((nx, ny))
    lo, hi = d.scale_range
    coords = (u[0] * (nx - 1), u[1] * (ny - 1), theta, *(lo * (hi / lo) ** f for f in u[2:]))
    check_slab_bounds(d, grid, coords, random_metric(d.P, log10_cond, seed, position_null),
                      on_minimum)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(24, 256), b0=st.sampled_from([0.75, 1.0, 1.5, 2.0, 3.0]),
       log2_tau=st.sampled_from([0.25, 0.5, 1.0]), a0=st.floats(0.8, 2.0),
       u=st.tuples(st.floats(0, 1), st.floats(0, 1)),
       log10_cond=st.one_of(st.floats(0, 12), st.floats(11, 12)), seed=st.integers(0, 2 ** 32 - 1))
def test_slab_bound_is_below_every_proxy_on_tau_adic_grids(n, b0, log2_tau, a0, u, log10_cond,
                                                           seed):
    # no position columns: each slab is one grid point and its bound is the proxy
    grid = gp.tau_grid_for_signal(n, b0=b0, log2_tau=log2_tau, a0=a0)
    d = gp.Affine1DDictionary(n)
    lo, hi = grid.scale_span()
    coords = (u[0] * (n - 1), lo * (hi / lo) ** u[1])
    check_slab_bounds(d, grid, coords, random_metric(d.P, log10_cond, seed), False)


@settings(max_examples=10, deadline=None)
@given(nx=st.integers(8, 16), ny=st.integers(8, 16), j_scales=st.integers(1, 3),
       k_orients=st.integers(1, 4),
       probes=st.lists(st.tuples(st.tuples(*[st.floats(0, 1)] * 4), thetas), **probe_counts))
def test_density_radius_ignores_probe_order_on_2d_grids(nx, ny, j_scales, k_orients, probes):
    grid = gp.Grid2DSpec(nx, ny, j_scales, k_orients)
    d = gp.Aniso2DDictionary((nx, ny), scale_range=(0.5, 2.0 * max(nx, ny)))
    lo, hi = float(grid.scales()[0]), float(grid.scales()[-1])
    points = [ParamPoint((u[0] * (nx - 1), u[1] * (ny - 1), theta,
                          *(lo * (hi / lo) ** f for f in u[2:])))
              for u, theta in probes]
    forward = gp.density_radius(d, grid, points)
    assert gp.density_radius(d, grid, points[::-1]).hex() == forward.hex()


@settings(max_examples=10, deadline=None)
@given(n=st.integers(24, 256), b0=st.sampled_from([0.75, 1.0, 1.5, 2.0, 3.0]),
       log2_tau=st.sampled_from([0.25, 0.5, 1.0]), a0=st.floats(0.8, 2.0),
       probes=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), **probe_counts))
def test_density_radius_ignores_probe_order_on_tau_adic_grids(n, b0, log2_tau, a0, probes):
    grid = gp.tau_grid_for_signal(n, b0=b0, log2_tau=log2_tau, a0=a0)
    d = gp.Affine1DDictionary(n)
    lo, hi = grid.scale_span()
    points = [d.point(u * (n - 1), lo * (hi / lo) ** v) for u, v in probes]
    forward = gp.density_radius(d, grid, points)
    assert gp.density_radius(d, grid, points[::-1]).hex() == forward.hex()


def benchmark_probes(monkeypatch):
    """The `geometry-2d` benchmark's dictionary and grid, and the density
    radius probes of its first seed-1 report."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workload = importlib.import_module("workloads").WORKLOADS["geometry-2d"]()
    workload.setup()
    return workload.dictionary, workload.grid, workload.inputs(1)[0]["probes"]


def test_block_proxy_rows_do_not_depend_on_the_other_rows(monkeypatch):
    # density_radius builds the proxy slab by slab, and the exhaustive oracle
    # all at once; both must see the same floats
    d, grid, probes = benchmark_probes(monkeypatch)
    positions, others = grid.factors()
    t = positions.shape[1]
    angles = [i - t for i, kind in enumerate(d.kinds) if kind == gp.ANGLE]
    for probe in probes:
        G = gp.metric(d, probe).matrix
        block, wrapped = geometry._block_proxy(G, positions, others, probe.coords, angles)
        for s in range(len(others)):
            row, one = geometry._block_proxy(G, positions, others[[s]], probe.coords, angles)
            assert row.tobytes() == block[s].tobytes()
            assert one.tobytes() == wrapped[s].tobytes()


def test_density_radius_builds_few_slabs_on_the_benchmark_grid(monkeypatch):
    d, grid, probes = benchmark_probes(monkeypatch)
    rows = []
    block_proxy = geometry._block_proxy
    monkeypatch.setattr(geometry, "_block_proxy",
                        lambda G, positions, others, *a: rows.append(len(others))
                        or block_proxy(G, positions, others, *a))
    gp.density_radius(d, grid, probes)
    slabs = len(grid.factors()[1])
    assert 0 < sum(rows) < 0.1 * len(probes) * slabs


def test_weakness_factors_worked_example():
    w = gp.weakness_factors(1.0, 0.5, 3.0, 0.2)
    assert w.alpha_prime == pytest.approx(0.6, abs=1e-12)
    assert w.alpha_dprime == pytest.approx(0.824621125123532, abs=1e-12)
    assert w.density_ok


def test_weakness_factors_zero_radius_identity():
    w = gp.weakness_factors(0.8, 0.5, 3.0, 0.0)
    assert w.alpha_prime == 0.8
    assert w.alpha_dprime == 0.8
    assert w.density_ok


def test_weakness_factors_density_boundary():
    beta, curvature = 0.5, 3.0
    rho = beta / math.sqrt(1.0 + curvature)
    w = gp.weakness_factors(1.0, beta, curvature, rho)
    assert w.alpha_prime == pytest.approx(0.0, abs=1e-12)
    assert not w.density_ok
    far = gp.weakness_factors(1.0, beta, curvature, 2 * rho)
    assert far.alpha_prime is None
    assert not far.density_ok


def test_weakness_factors_validation():
    with pytest.raises(ValueError):
        gp.weakness_factors(0.0, 0.5, 2.0, 0.1)
    with pytest.raises(ValueError):
        gp.weakness_factors(1.0, 1.5, 2.0, 0.1)
    with pytest.raises(ValueError):
        gp.weakness_factors(1.0, 0.5, 0.5, 0.1)
    with pytest.raises(ValueError):
        gp.weakness_factors(1.0, 0.5, 2.0, -0.1)


def test_half_deficit_algebra(rng):
    # 1 - (a''/a)^2 is exactly half of 1 - (a'/a)^2
    for _ in range(1000):
        alpha = rng.uniform(0.05, 1.0)
        beta = rng.uniform(0.05, 1.0)
        curvature = rng.uniform(1.0, 10.0)
        rho = rng.uniform(0.0, 0.999) * beta / math.sqrt(1.0 + curvature)
        w = gp.weakness_factors(alpha, beta, curvature, rho)
        lhs = 1.0 - (w.alpha_dprime / alpha) ** 2
        rhs = 0.5 * (1.0 - (w.alpha_prime / alpha) ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class LogScaleAffine(gp.Dictionary):
    """Affine dictionary in (b, log a) coordinates, for reparametrization tests."""

    def __init__(self, base):
        self.base = base
        self.shape = base.shape
        self.kinds = (gp.TRANSLATION, gp.TRANSLATION)  # no scale-range check on log a
        self.scale_range = (1.0, 1.0)

    def require_interior(self, lam):
        return None

    def _raw(self, coords, shape):
        return self.base._jet(np.array([coords[0], math.exp(coords[1])]), shape, 0)[0]

    def _jet(self, coords, shape, order):
        # first partials by central differences of the raw atom rather than
        # the chain rule through the base dictionary, so the tensor law is
        # checked independently; the step is fine enough to verify it at 1e-6
        raw = self._raw(coords, shape)
        if order == 0:
            return (raw,)
        return raw, central_differences(lambda c: self._raw(c, shape), coords, [1e-4, 1e-4])


def test_metric_transforms_as_tensor():
    base = gp.Affine1DDictionary(512)
    rep = LogScaleAffine(base)
    b, a = 250.0, 12.0
    G = gp.metric(base, base.point(b, a)).matrix
    Gt = gp.metric(rep, rep.point(b, math.log(a))).matrix
    J = np.diag([1.0, a])  # d(b,a)/d(b,log a)
    assert np.abs(Gt - J.T @ G @ J).max() < 1e-6
