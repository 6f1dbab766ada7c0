import itertools
import json
import math

import numpy as np
import pytest

import geopursuit as gp


def test_separable_product_at_identity():
    d = gp.Aniso2DDictionary((48, 48))
    g = d.synthesize(d.point(24.0, 24.0, 0.0, 1.0, 1.0))
    x = np.arange(48.0) - 24.0
    hat = (1.0 - x * x) * np.exp(-0.5 * x * x)
    gauss = np.exp(-0.5 * x * x)
    sep = np.outer(hat, gauss)
    sep /= np.linalg.norm(sep)
    assert np.abs(g.data - sep).max() < 1e-12


def test_mother_amplitude_constant():
    # peak of the continuum mother is sqrt(4 / (3 pi))
    d = gp.Aniso2DDictionary((64, 64))
    c = math.sqrt(4.0 / (3.0 * math.pi))
    (raw,) = d._jet(np.array([32.0, 32.0, 0.0, 1.0, 1.0]), (64, 64), 0)
    assert raw[32, 32] == pytest.approx(c, abs=1e-14)
    # at a well-resolved scale the renormalized atom keeps the continuum
    # amplitude c / sqrt(a1 a2)
    g = d.synthesize(d.point(32.0, 32.0, 0.0, 3.0, 3.0))
    assert g.data[32, 32] == pytest.approx(c / 3.0, abs=1e-6)


def test_quarter_turn_swaps_axes():
    # the mother is even in its second frame coordinate, so a quarter turn
    # equals transposing the axis roles for a centered atom on a square grid
    d = gp.Aniso2DDictionary((48, 48))
    g0 = d.synthesize(d.point(24.0, 24.0, 0.0, 2.0, 3.0))
    g90 = d.synthesize(d.point(24.0, 24.0, math.pi / 2, 2.0, 3.0))
    assert np.abs(g90.data - g0.data.T).max() < 1e-10


def test_jets_leave_the_dictionary_unchanged():
    # every evaluation works in scratch of its own: `_jet` on the
    # dictionary's shape and on a template canvas, and `jet` at orders 0-2,
    # leave every attribute but the jet memo as it was, bit for bit
    d = gp.Aniso2DDictionary((16, 12))
    coords = np.array([7.5, 5.0, 0.6, 2.0, 3.0])

    def state():
        return {k: v.tobytes() if isinstance(v, np.ndarray) else v
                for k, v in vars(d).items() if k != "_last_jet"}

    before = state()
    for order in range(3):
        for shape in (d.shape, (9, 7)):
            d._jet(coords + order, shape, order)
            assert state() == before
        d.jet(d.point(*coords), order)
        assert state() == before


def test_boundary_atom_unit_norm():
    d = gp.Aniso2DDictionary((32, 32))
    g = d.synthesize(d.point(0.0, 31.0, 0.9, 4.0, 7.0))
    assert abs(gp.inner_product(g, g) - 1.0) < 1e-12


def test_pi_periodic_orientation():
    d = gp.Aniso2DDictionary((40, 40))
    (raw_a,) = d._jet(np.array([20.5, 19.2, 0.7, 2.5, 4.0]), (40, 40), 0)
    (raw_b,) = d._jet(np.array([20.5, 19.2, 0.7 + math.pi, 2.5, 4.0]), (40, 40), 0)
    assert np.abs(raw_a / np.linalg.norm(raw_a)
                  - raw_b / np.linalg.norm(raw_b)).max() < 1e-12


def test_isotropic_scales_rotation_invariant_oversampled():
    # with a1 == a2 the atom is a function of the rotated frame only through
    # its Mexican-Hat axis; checked on a 4x oversampled lattice to separate
    # parametrization effects from pixel-sampling anisotropy: the 4x
    # oversampled atom at (b, a) on a 32 px image is the atom at (4b, 4a)
    # on a 128 px image
    d = gp.Aniso2DDictionary((32 * 4, 32 * 4))
    lam1 = d.point(16.0 * 4, 16.0 * 4, 0.0, 3.0 * 4, 3.0 * 4)
    lam2 = d.point(16.0 * 4, 16.0 * 4, math.pi / 2, 3.0 * 4, 3.0 * 4)
    g1 = d.synthesize(lam1).data
    g2 = d.synthesize(lam2).data
    assert np.abs(g1 - g2.T).max() < 1e-6


def test_scale_domain_enforced():
    d = gp.Aniso2DDictionary((32, 32))
    with pytest.raises(gp.DomainError):
        d.synthesize(d.point(16.0, 16.0, 0.0, 0.5, 2.0))
    with pytest.raises(gp.DomainError):
        d.synthesize(d.point(16.0, 16.0, 0.0, 2.0, 40.0))


def test_grid_count_trivial():
    spec = gp.Grid2DSpec(nx=5, ny=7, j_scales=1, k_orients=1)
    pts = list(spec.points())
    assert len(pts) == 35 == spec.count
    assert all(p.coords[3] == pytest.approx(0.7) for p in pts)


def test_grid_count_formula():
    spec = gp.Grid2DSpec(nx=64, ny=64, j_scales=3, k_orients=4)
    assert spec.count == 9 * 4 * 4096 == 147456
    # slab stream agrees with the formula
    assert sum(1 for _ in spec.slabs()) * 64 * 64 == spec.count


def test_grid_scales_logarithmic():
    spec = gp.Grid2DSpec(nx=64, ny=64, j_scales=5, k_orients=2)
    scales = spec.scales()
    assert scales[0] == pytest.approx(0.7)
    assert scales[-1] == pytest.approx(64.0)
    ratios = scales[1:] / scales[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)


def test_grid_states_its_shape_and_scale_span():
    spec = gp.Grid2DSpec(nx=6, ny=9, j_scales=3, k_orients=2, min_scale=1.5, max_scale=6.0)
    assert spec.shape == (6, 9) == gp.Aniso2DDictionary((6, 9)).shape
    lo, hi = spec.scale_span()
    assert (lo, hi) == (float(spec.scales()[0]), float(spec.scales()[-1]))
    assert type(lo) is type(hi) is float
    assert (lo, hi) == pytest.approx((1.5, 6.0), rel=1e-15)
    # one scale level: the span is that one scale
    assert gp.Grid2DSpec(nx=4, ny=5, j_scales=1, k_orients=3).scale_span() == (0.7, 0.7)
    assert gp.Grid2DSpec(nx=4, ny=5, j_scales=1, k_orients=3).shape == (4, 5)


def test_grid_orientations_evenly_spaced():
    spec = gp.Grid2DSpec(nx=8, ny=8, j_scales=1, k_orients=4)
    assert np.allclose(spec.thetas(), [0, math.pi / 4, math.pi / 2, 3 * math.pi / 4])


def test_grid_enumeration_order():
    spec = gp.Grid2DSpec(nx=2, ny=3, j_scales=2, k_orients=2)
    pts = list(spec.points())
    assert len(pts) == 2 * 2 * 2 * 2 * 3
    # positions vary fastest, row-major
    first_slab = pts[:6]
    assert [(p.coords[0], p.coords[1]) for p in first_slab] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    # scale of the first axis is the outermost loop
    a1_sequence = [p.coords[3] for p in pts]
    assert a1_sequence == sorted(a1_sequence)


def test_grid_points_are_the_factors_product():
    for spec in (gp.Grid2DSpec(nx=5, ny=7, j_scales=3, k_orients=4),
                 gp.Grid2DSpec(nx=6, ny=4, j_scales=1, k_orients=1, min_scale=1.5,
                               max_scale=3.0)):
        got = np.array([p.coords for p in spec.points()])
        # point s * len(positions) + p is positions[p] followed by slabs[s]
        positions, slabs = spec.factors()
        want = np.array([np.concatenate([positions[p], slabs[s]])
                         for s in range(len(slabs)) for p in range(len(positions))])
        assert np.array_equal(got, want)
        # the documented enumeration: scale j, scale j', orientation, then
        # positions row-major
        want = np.array([(b1, b2, theta, a1, a2) for a1 in spec.scales() for a2 in spec.scales()
                         for theta in spec.thetas()
                         for b1 in range(spec.nx) for b2 in range(spec.ny)])
        assert np.array_equal(got, want)


def test_grid_validation_and_json():
    with pytest.raises(ValueError):
        gp.Grid2DSpec(nx=0, ny=4, j_scales=1, k_orients=1)
    with pytest.raises(ValueError):
        gp.Grid2DSpec(nx=4, ny=4, j_scales=0, k_orients=1)
    spec = gp.Grid2DSpec(nx=64, ny=48, j_scales=3, k_orients=4)
    back = gp.Grid2DSpec.from_json(spec.to_json())
    assert (back.nx, back.ny, back.j_scales, back.k_orients) == (64, 48, 3, 4)
    assert set(json.loads(spec.to_json())) == {"Nx", "Ny", "J", "K"}


def test_grid_json_keeps_scale_bounds():
    spec = gp.Grid2DSpec(nx=16, ny=16, j_scales=3, k_orients=2, min_scale=1.5, max_scale=10.0)
    np.testing.assert_allclose(spec.scales(), [1.5, 3.87, 10.0], rtol=1e-3)
    back = gp.Grid2DSpec.from_json(spec.to_json())
    assert back == spec
    np.testing.assert_array_equal(back.scales(), spec.scales())


@pytest.mark.parametrize("bounds", [{"min_scale": 0}, {"min_scale": -1.0},
                                    {"min_scale": float("nan")}, {"min_scale": float("inf")},
                                    {"max_scale": float("nan")}, {"max_scale": float("inf")},
                                    {"min_scale": 4.0, "max_scale": 1.0}],
                         ids=["min-zero", "min-negative", "min-nan", "min-inf", "max-nan",
                              "max-inf", "descending"])
def test_grid_scale_bounds_are_validated(bounds):
    text = json.dumps({"Nx": 8, "Ny": 8, "J": 2, "K": 2, **bounds})
    with pytest.raises(ValueError, match="scale bounds must satisfy"):
        gp.Grid2DSpec.from_json(text)
    # equal bounds are one scale level, repeated
    spec = gp.Grid2DSpec.from_json(json.dumps({"Nx": 8, "Ny": 8, "J": 2, "K": 2,
                                               "min_scale": 2.0, "max_scale": 2.0}))
    assert list(spec.scales()) == [2.0, 2.0]
