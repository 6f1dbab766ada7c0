import json
import math

import numpy as np
import pytest

import geopursuit as gp
from conftest import TranslationDictionary, fd_partials, interior_affine_points

# Continuum norms of the Mexican Hat mother's derivative: ||g'||^2 = 5/2
# (Gaussian-moment quadrature), and the metric constant W = diag(5/2, 5/2).
MH_DPRIME_NORM2 = 2.5


def hand_enumerate(n, b0, a0, tau, j_range):
    """Spec'd rule, written independently: keep n with |b - clamp(b)| <= 4a."""
    pts = []
    for j in j_range:
        a = a0 * tau ** j
        step = b0 * tau ** j
        k = math.ceil(-4 * a / step - 1e-9)
        while k * step <= (n - 1) + 4 * a + 1e-9:
            b = k * step
            if abs(b - min(max(b, 0.0), n - 1.0)) <= 4 * a + 1e-9:
                pts.append((b, a))
            k += 1
    return pts


def test_enumeration_matches_hand_oracle():
    grid = gp.TauAdicGrid(b0=4, a0=2, tau=2.0, j_min=0, j_max=1, n=16)
    got = [(p.coords[0], p.coords[1]) for p in grid.points()]
    want = hand_enumerate(16, 4, 2, 2.0, (0, 1))
    assert got == want
    assert grid.count == len(want) == 14
    # level 0 holds the in-image translations {0,4,8,12} plus boundary ones
    level0 = [b for b, a in got if a == 2.0]
    assert {0.0, 4.0, 8.0, 12.0}.issubset(set(level0))
    assert level0 == sorted(level0)


def test_enumeration_order_deterministic():
    grid = gp.TauAdicGrid(b0=3, a0=1.5, tau=1.7, j_min=0, j_max=3, n=64)
    pts = [(p.coords[0], p.coords[1]) for p in grid.points()]
    scales = [a for _, a in pts]
    assert scales == sorted(scales)  # ascending j
    for a in set(scales):
        bs = [b for b, aa in pts if aa == a]
        assert bs == sorted(bs)  # ascending n within a level


def test_grid_points_are_the_factors_product():
    # point s * len(positions) + p is positions[p] followed by others[s]; a
    # tau-adic grid has no translation columns, so its points are the rows
    for grid in (gp.TauAdicGrid(b0=2, a0=2, tau=2.0, j_min=0, j_max=3, n=64),
                 gp.tau_grid_for_signal(300, b0=1.5, log2_tau=0.5, a0=1.3)):
        positions, others = grid.factors()
        assert positions.shape == (1, 0) and others.shape == (grid.count, 2)
        want = np.array([np.concatenate([positions[p], others[s]])
                         for s in range(len(others)) for p in range(len(positions))])
        assert np.array_equal(np.array([p.coords for p in grid.points()]), want)


def test_joint_dilation_relates_grids():
    g1 = gp.TauAdicGrid(b0=3, a0=1.5, tau=2.0, j_min=0, j_max=3, n=128)
    g2 = gp.TauAdicGrid(b0=6, a0=3.0, tau=2.0, j_min=0, j_max=3, n=256)
    p1 = [(2 * p.coords[0], 2 * p.coords[1]) for p in g1.points()]
    p2 = [(p.coords[0], p.coords[1]) for p in g2.points()]
    assert p1 == p2


def test_single_level_unit_spacing_integers():
    grid = gp.TauAdicGrid(b0=1, a0=2, tau=2.0, j_min=0, j_max=0, n=32)
    bs = [p.coords[0] for p in grid.points()]
    assert all(b == int(b) for b in bs)
    assert bs == list(range(int(bs[0]), int(bs[-1]) + 1))


def test_grid_validation():
    with pytest.raises(ValueError):
        gp.TauAdicGrid(b0=1, a0=1, tau=0.9, j_min=0, j_max=1, n=16)
    with pytest.raises(ValueError):
        gp.TauAdicGrid(b0=1, a0=1, tau=2.0, j_min=2, j_max=1, n=16)
    with pytest.raises(ValueError):
        gp.TauAdicGrid(b0=-1, a0=1, tau=2.0, j_min=0, j_max=1, n=16)


def test_grid_json_roundtrip():
    grid = gp.tau_grid_for_signal(256, b0=1.5, log2_tau=0.25)
    back = gp.TauAdicGrid.from_json(grid.to_json())
    assert back == grid
    keys = set(json.loads(grid.to_json()))
    assert keys == {"b0", "a0", "tau", "jmin", "jmax", "N"}


def test_grid_states_its_shape_and_scale_span():
    grid = gp.TauAdicGrid(b0=2, a0=1.5, tau=2.0, j_min=1, j_max=3, n=100)
    assert grid.shape == (100,)
    assert grid.scale_span() == (3.0, 12.0)
    assert gp.Affine1DDictionary(100).shape == grid.shape


def test_grid_covers_requested_scale_band():
    grid = gp.tau_grid_for_signal(4096, b0=1, log2_tau=0.25)
    lo, hi = grid.scale_span()
    assert lo == pytest.approx(1.0)
    assert hi <= 4096 / 4 * (1 + 1e-9)
    assert hi * grid.tau > 4096 / 4


def test_analytic_partials_orthogonality(rng):
    d = gp.Affine1DDictionary(512)
    for lam in interior_affine_points(d, rng, 8):
        g = d.synthesize(lam)
        db, da = d.partials(lam)
        assert abs(float(db @ g.data)) < 1e-8
        assert abs(float(da @ g.data)) < 1e-8


@pytest.mark.parametrize("a", [4.0, 9.5, 20.0, 41.0])
def test_translation_metric_matches_mother_derivative_norm(a):
    d = gp.Affine1DDictionary(2048)
    G = gp.metric(d, d.point(1024.0, a))
    assert a * a * G.matrix[0, 0] == pytest.approx(MH_DPRIME_NORM2, abs=1e-4)


def test_metric_is_constant_diagonal_after_scaling(rng):
    d = gp.Affine1DDictionary(2048)
    mats = []
    for lam in interior_affine_points(d, rng, 20, scale_lo=2.0, scale_hi=50.0):
        a = lam.coords[1]
        mats.append(a * a * gp.metric(d, lam).matrix)
    mats = np.array(mats)
    diag_ref = mats[0, 0, 0]
    assert np.all(np.abs(mats[:, 0, 0] - diag_ref) / diag_ref < 1e-4)
    assert np.all(np.abs(mats[:, 1, 1] - mats[0, 1, 1]) / mats[0, 1, 1] < 1e-4)
    assert np.all(np.abs(mats[:, 0, 1]) < 1e-6 * np.abs(mats[:, 0, 0]))


def test_mexican_hat_constant_against_quadrature():
    # g(0) is the closed form 2/(sqrt(3) pi^(1/4)), cross-checked by integrating g^2
    s = np.arange(-30, 30, 1e-4)
    g = gp.MEXICAN_HAT.jet(s, 0)[0]
    assert np.sum(g * g) * 1e-4 == pytest.approx(1.0, abs=1e-9)
    c = 2.0 / (math.sqrt(3.0) * math.pi ** 0.25)
    assert gp.MEXICAN_HAT.jet(np.zeros(1), 0)[0][0] == pytest.approx(c, abs=1e-15)


def test_gaussian_mother_available():
    d = gp.Affine1DDictionary(256, mother="gaussian")
    g = d.synthesize(d.point(128.0, 6.0))
    assert abs(g.norm() - 1.0) < 1e-12
    assert g.data[128] == pytest.approx(math.pi ** -0.25 / math.sqrt(6.0), abs=1e-6)


def test_translation_dictionary_contract():
    td = TranslationDictionary(256, scale=3.0, mother="mexican_hat")
    g = td.synthesize(td.point(128.0))
    assert abs(g.norm() - 1.0) < 1e-12
    (p,) = td.partials(td.point(100.5))
    (fd,) = fd_partials(td, td.point(100.5))
    assert np.linalg.norm(p - fd) / np.linalg.norm(p) < 1e-4
