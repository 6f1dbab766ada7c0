import numpy as np
import pytest

import geopursuit as gp


def test_burst_signal_unit_norm():
    spec = gp.BurstSignalSpec(n=2048, n_bursts=50, kind="gaussian")
    for seed in (0, 1, 99):
        assert abs(spec.sample(seed).norm() - 1.0) < 1e-12


def test_burst_signal_deterministic():
    spec = gp.BurstSignalSpec(n=1024, n_bursts=30, kind="rectangular")
    a = spec.sample(7)
    b = spec.sample(7)
    assert a.data.tobytes() == b.data.tobytes()


def test_single_rectangular_burst_is_indicator():
    spec = gp.BurstSignalSpec(n=2048, n_bursts=1, kind="rectangular")
    for seed in range(5):
        x = spec.sample(seed).data
        support = np.flatnonzero(x)
        width = support.size
        assert 127 <= width <= 193
        # contiguous window of constant height
        assert support[-1] - support[0] + 1 == width
        vals = x[support]
        assert np.allclose(vals, vals[0])


def test_burst_spec_validation():
    with pytest.raises(ValueError):
        gp.BurstSignalSpec(n=128, kind="gaussian")  # too short for envelope 256
    with pytest.raises(ValueError):
        gp.BurstSignalSpec(n=1024, kind="sawtooth")


def test_experiment_grid_covers_class_band():
    grid = gp.experiment_grid(4096, b0=1, log2_tau=0.5)
    lo, hi = grid.scale_span()
    assert lo == pytest.approx(1.0)
    assert hi <= 3 * 256 * (1 + 1e-9)


def test_nae_on_grid_atom_class_is_one():
    d = gp.Affine1DDictionary(256)
    grid = gp.TauAdicGrid(b0=4, a0=2, tau=2.0, j_min=0, j_max=4, n=256)
    atom = d.synthesize(d.point(128.0, 4.0))

    def factory(seed):
        return atom

    r = gp.nae(factory, d, grid, gp.PursuitConfig(mode="dmp"), trials=3)
    assert r.mean == pytest.approx(1.0, abs=1e-10)


def test_nae_gmp_never_below_dmp_per_trial():
    n = 1024
    d = gp.Affine1DDictionary(n)
    grid = gp.experiment_grid(n, b0=2, log2_tau=0.5)
    spec = gp.BurstSignalSpec(n=n, n_bursts=20, kind="gaussian", envelope=128)
    for seed in np.random.SeedSequence(5).spawn(4):
        f = spec.sample(seed)
        s_d = gp.selection_score(d, f, grid, gp.PursuitConfig(mode="dmp"))
        s_g = gp.selection_score(d, f, grid, gp.PursuitConfig(mode="gmp", kappa=10))
        assert s_g >= s_d


def test_nae_later_iteration_uses_reference_pipeline():
    n = 1024
    d = gp.Affine1DDictionary(n)
    grid = gp.experiment_grid(n, b0=2, log2_tau=0.5)
    spec = gp.BurstSignalSpec(n=n, n_bursts=20, kind="gaussian", envelope=128)
    cfg = gp.PursuitConfig(mode="dmp")
    first = gp.nae(spec.sample, d, grid, cfg, trials=2, at_iteration=1, master_seed=1)
    later = gp.nae(spec.sample, d, grid, cfg, trials=2, at_iteration=4, master_seed=1)
    assert 0.0 <= later.mean <= 1.0
    assert later.mean != first.mean  # warm-start residuals differ from the raw class


def test_nae_bounds(rng):
    n = 512
    d = gp.Affine1DDictionary(n)
    grid = gp.experiment_grid(n, b0=2, log2_tau=1.0)
    spec = gp.BurstSignalSpec(n=n, n_bursts=10, kind="rectangular", envelope=64)
    r = gp.nae(spec.sample, d, grid, gp.PursuitConfig(mode="dmp"), trials=6)
    assert 0.0 <= r.mean <= 1.0
    assert r.stderr >= 0.0


def test_convergence_curve_monotone_per_trial():
    n = 1024
    d = gp.Affine1DDictionary(n)
    grid = gp.experiment_grid(n, b0=2, log2_tau=0.5)
    spec = gp.BurstSignalSpec(n=n, n_bursts=20, kind="gaussian", envelope=128)
    cur = gp.convergence_curve(spec.sample, d, grid,
                               gp.PursuitConfig(mode="dmp"), trials=3, m_max=8)
    assert cur.trial_energy.shape == (3, 9)
    assert np.all(np.diff(cur.trial_energy, axis=1) <= 1e-12)
    assert cur.mean_energy[0] == pytest.approx(1.0)


def test_convergence_curve_deterministic():
    n = 512
    d = gp.Affine1DDictionary(n)
    grid = gp.experiment_grid(n, b0=2, log2_tau=1.0)
    spec = gp.BurstSignalSpec(n=n, n_bursts=10, kind="gaussian", envelope=64)
    a = gp.convergence_curve(spec.sample, d, grid, gp.PursuitConfig(), 2, 4, master_seed=3)
    b = gp.convergence_curve(spec.sample, d, grid, gp.PursuitConfig(), 2, 4, master_seed=3)
    np.testing.assert_array_equal(a.trial_energy, b.trial_energy)


def test_experiment_counts_are_validated():
    d = gp.Affine1DDictionary(64)
    grid = gp.experiment_grid(64, b0=2, log2_tau=1.0)
    cfg = gp.PursuitConfig()

    def factory(seed):
        raise AssertionError("no trial runs on a rejected count")

    for bad in ({"trials": 0}, {"trials": 2, "m_max": -1}):
        with pytest.raises(ValueError):
            gp.convergence_curve(factory, d, grid, cfg, **bad)
    for bad in ({"trials": 0}, {"trials": 2, "at_iteration": 0},
                {"trials": 2, "at_iteration": -3}):
        with pytest.raises(ValueError):
            gp.nae(factory, d, grid, cfg, **bad)


def test_beta_surrogate_in_unit_interval():
    n = 512
    d = gp.Affine1DDictionary(n)
    grid = gp.experiment_grid(n, b0=2, log2_tau=0.5)
    spec = gp.BurstSignalSpec(n=n, n_bursts=10, kind="gaussian", envelope=64)
    corpus = [spec.sample(s) for s in np.random.SeedSequence(2).spawn(5)]
    beta = gp.beta_surrogate(d, grid, corpus)
    assert 0.0 < beta <= 1.0


def test_make_test_image_deterministic_8bit():
    a = gp.make_test_image(32, 32, seed=4)
    b = gp.make_test_image(32, 32, seed=4)
    assert a.data.tobytes() == b.data.tobytes()
    assert a.shape == (32, 32)
    assert a.data.min() >= 0.0 and a.data.max() <= 255.0
    assert a.peak_hint == 255.0
    c = gp.make_test_image(32, 32, seed=5)
    assert c.data.tobytes() != a.data.tobytes()


def test_image_harness_reports_rows():
    img = gp.make_test_image(24, 24, seed=1)
    grid = gp.Grid2DSpec(nx=24, ny=24, j_scales=2, k_orients=2)
    rows = gp.image_harness(img, grid, [gp.PursuitConfig(mode="dmp")], n_atoms=5)
    assert len(rows) == 1
    assert rows[0]["atoms"] == 5
    assert rows[0]["psnr_db"] > 0
    assert rows[0]["wall_time_s"] > 0


def test_image_harness_zero_atoms():
    img = gp.make_test_image(16, 16, seed=1)
    grid = gp.Grid2DSpec(nx=16, ny=16, j_scales=1, k_orients=1)
    rows = gp.image_harness(img, grid, [gp.PursuitConfig(mode="dmp")], n_atoms=0)
    zero = gp.SignalBuffer.zeros((16, 16))
    assert rows[0]["psnr_db"] == pytest.approx(gp.psnr(img, zero), abs=1e-12)
