"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are pinned here; nothing is deferred to later calibration.
"""

import json
import math

import numpy as np
import pytest

import geopursuit as gp
from geopursuit.pursuit import full_search, gradient_ascent
from conftest import fd_partials, interior_affine_points, naive_search, run_cli


def report(criterion: int, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def unit(v):
    return gp.SignalBuffer(v / np.linalg.norm(v))


# -- 1. energy bookkeeping ---------------------------------------------------

def test_criterion_01_energy_bookkeeping(rng):
    runs = []
    d1 = gp.Affine1DDictionary(1024)
    g1 = gp.experiment_grid(1024, b0=2, log2_tau=0.5)
    f1 = gp.BurstSignalSpec(n=1024, n_bursts=30, kind="gaussian", envelope=128).sample(0)
    runs.append(gp.run(f1, d1, g1, gp.PursuitConfig(mode="dmp", max_iterations=25)))
    runs.append(gp.run(f1, d1, g1, gp.PursuitConfig(mode="gmp", kappa=5, max_iterations=25)))
    d2 = gp.Aniso2DDictionary((24, 24))
    g2 = gp.Grid2DSpec(nx=24, ny=24, j_scales=2, k_orients=2)
    f2 = gp.make_test_image(24, 24, seed=2)
    runs.append(gp.run(f2, d2, g2, gp.PursuitConfig(mode="gmp", kappa=5, max_iterations=15)))

    worst_rel = 0.0
    monotone = True
    for dec in runs:
        total = sum(s.coeff ** 2 for s in dec.steps) + dec.final_residual.energy()
        worst_rel = max(worst_rel, abs(total - dec.initial_energy) / dec.initial_energy)
        monotone &= bool(np.all(np.diff(dec.residual_energies()) < 0))
    report(1, worst_rel < 1e-9 and monotone,
           f"(max rel energy error {worst_rel:.2e}, strictly decreasing: {monotone})")


# -- 2. residual orthogonality ----------------------------------------------

def test_criterion_02_residual_orthogonality():
    n = 1024
    d = gp.Affine1DDictionary(n)
    grid = gp.experiment_grid(n, b0=2, log2_tau=0.5)
    f = gp.BurstSignalSpec(n=n, n_bursts=40, kind="gaussian", envelope=128).sample(3)
    dec = gp.run(f, d, grid, gp.PursuitConfig(mode="dmp", max_iterations=50))
    assert len(dec) == 50
    residual = f
    worst = 0.0
    for step in dec.steps:
        atom = d.synthesize(d.point(*step.lam))
        before = residual.norm()
        residual = gp.SignalBuffer(residual.data - step.coeff * atom.data)
        worst = max(worst, abs(gp.inner_product(residual, atom)) / before)
    report(2, worst <= 1e-8, f"(max |<R^(m+1), g>| / ||R^m|| = {worst:.2e} over 50 iterations)")


# -- 3. FFT search correctness ----------------------------------------------

def test_criterion_03_fft_search_vs_naive(rng):
    n = 256
    d = gp.Affine1DDictionary(n)
    # integer-lattice levels exercise the FFT path; boundary atoms included
    grid_fft = gp.TauAdicGrid(b0=4, a0=2, tau=2.0, j_min=0, j_max=5, n=n)
    # fractional-lattice levels exercise the windowed direct path
    grid_frac = gp.tau_grid_for_signal(n, b0=1.5, log2_tau=0.25, a0=1.3)
    argmax_ok = True
    worst = 0.0
    for i in range(25):
        u = gp.SignalBuffer(rng.standard_normal(n))
        for grid in (grid_fft, grid_frac):
            p_fast, s_fast = full_search(d, u, grid)
            p_ref, s_ref = naive_search(d, u, grid)
            argmax_ok &= bool(np.array_equal(p_fast.coords, p_ref.coords))
            worst = max(worst, abs(s_fast - s_ref))
    report(3, argmax_ok and worst < 1e-8,
           f"(25 signals x 2 grids: argmax identical {argmax_ok}, max |dS| = {worst:.2e})")


# -- 4. derivative and metric fidelity ----------------------------------------

def test_criterion_04_derivative_and_metric_fidelity(rng):
    worst_rel = 0.0
    d1 = gp.Affine1DDictionary(512)
    for lam in interior_affine_points(d1, rng, 50):
        analytic = d1.partials(lam)
        fd = fd_partials(d1, lam)
        for a, f in zip(analytic, fd):
            worst_rel = max(worst_rel, np.linalg.norm(a - f)
                            / np.linalg.norm(a))
    d2 = gp.Aniso2DDictionary((48, 48))
    for _ in range(50):
        lam = d2.point(rng.uniform(18, 30), rng.uniform(18, 30),
                       rng.uniform(0, math.pi),
                       math.exp(rng.uniform(math.log(1.5), math.log(5.0))),
                       math.exp(rng.uniform(math.log(1.5), math.log(5.0))))
        analytic = d2.partials(lam)
        fd = fd_partials(d2, lam)
        for a, f in zip(analytic, fd):
            worst_rel = max(worst_rel, np.linalg.norm(a - f)
                            / np.linalg.norm(a))

    big = gp.Affine1DDictionary(2048)
    mats = np.array([lam.coords[1] ** 2 * gp.metric(big, lam).matrix
                     for lam in interior_affine_points(big, rng, 20,
                                                       scale_lo=2.0, scale_hi=50.0)])
    w00, w11 = mats[0, 0, 0], mats[0, 1, 1]
    metric_ok = (np.all(np.abs(mats[:, 0, 0] - w00) / w00 < 1e-4)
                 and np.all(np.abs(mats[:, 1, 1] - w11) / w11 < 1e-4)
                 and np.all(np.abs(mats[:, 0, 1]) / w00 < 1e-4))
    report(4, worst_rel < 1e-4 and metric_ok,
           f"(max partials rel err {worst_rel:.2e}; a^2 G = diag({w00:.4f}, {w11:.4f}) constant: {metric_ok})")


# -- 5. curvature lower bound --------------------------------------------------

def test_criterion_05_curvature_lower_bound(rng):
    d1 = gp.Affine1DDictionary(1024)
    vals = [math.sqrt(gp.curvature_bracket(d1, lam))
            for lam in interior_affine_points(d1, rng, 10)]
    d2 = gp.Aniso2DDictionary((32, 32))
    for _ in range(4):
        lam = d2.point(rng.uniform(13, 19), rng.uniform(13, 19),
                       rng.uniform(0, math.pi),
                       math.exp(rng.uniform(math.log(1.8), math.log(4.5))),
                       math.exp(rng.uniform(math.log(1.8), math.log(4.5))))
        vals.append(math.sqrt(gp.curvature_bracket(d2, lam)))
    ok = min(vals) >= 1.0 - 1e-3
    report(5, ok, f"(min curvature bound over both dictionaries = {min(vals):.6f})")


# -- 6. weakness algebra -------------------------------------------------------

def test_criterion_06_weakness_algebra(rng):
    worst = 0.0
    for _ in range(1000):
        alpha = rng.uniform(0.05, 1.0)
        beta = rng.uniform(0.05, 1.0)
        curv = rng.uniform(1.0, 10.0)
        rho = rng.uniform(0.0, 0.999) * beta / math.sqrt(1.0 + curv)
        w = gp.weakness_factors(alpha, beta, curv, rho)
        lhs = 1.0 - (w.alpha_dprime / alpha) ** 2
        rhs = 0.5 * (1.0 - (w.alpha_prime / alpha) ** 2)
        worst = max(worst, abs(lhs - rhs))
    w0 = gp.weakness_factors(0.37, 0.5, 3.0, 0.0)
    exact = w0.alpha_prime == 0.37 and w0.alpha_dprime == 0.37
    report(6, worst <= 1e-12 and exact,
           f"(max |half-deficit identity error| = {worst:.2e}; rho=0 identity exact: {exact})")


# -- 7. ascent monotonicity ------------------------------------------------------

def test_criterion_07_ascent_monotonicity(rng):
    n = 512
    d = gp.Affine1DDictionary(n)

    def random_seed_point():
        # in-buffer translation, interior scale: where ascent is well-posed
        return d.point(rng.uniform(0, n - 1),
                       math.exp(rng.uniform(math.log(1.5), math.log(100.0))))

    ok = True
    equalities = 0
    for i in range(100):
        if i < 5:
            lam0 = random_seed_point()
            residual = d.synthesize(lam0)  # engineered critical pair
        else:
            residual = unit(rng.standard_normal(n))
            lam0 = random_seed_point()
        s0 = gp.score(d, residual, lam0)
        res = gradient_ascent(d, residual, lam0, kappa=5)
        ok &= res.score >= s0
        if res.score == s0:
            equalities += 1
            # equality only at numerically critical / line-search-exhausted points
            try:
                info = gp.gradient(d, residual, d.clamp(lam0))
                ok &= (info.grad_norm <= 1e-3 * max(info.score, 1e-300)
                       or res.reason == "halvings")
            except (gp.DomainError, gp.DegenerateMetricError):
                ok &= res.reason == "degenerate"
        res0 = gradient_ascent(d, residual, lam0, kappa=0)
        ok &= np.array_equal(res0.lam.coords, lam0.coords) and res0.steps == 0
    report(7, ok, f"(100 pairs, {equalities} exact-equality cases, kappa=0 identity holds)")


# -- 8. off-grid recovery ----------------------------------------------------------

def test_criterion_08_off_grid_recovery():
    n = 512
    d = gp.Affine1DDictionary(n)
    grid = gp.tau_grid_for_signal(n, b0=2, log2_tau=0.5)
    # midpoint of two adjacent grid translations at the a=16 level (spacing 32)
    lam_star = d.point(272.0, 16.0)
    f = d.synthesize(lam_star)
    k, s_dmp = full_search(d, f, grid)
    res = gradient_ascent(d, f, k, kappa=10, chi=0.1)
    s_gmp = max(res.score, s_dmp)
    ratio = (1.0 - s_dmp) / max(1.0 - s_gmp, 1e-300)
    # regression baseline: ratio ~ 4.3e5 measured at development time
    report(8, s_gmp > s_dmp and ratio >= 2.0,
           f"(S_dmp={s_dmp:.6f}, S_gmp={s_gmp:.9f}, deficit ratio={ratio:.3g})")


# -- 9. residual-decay orderings ------------------------------------------------

def test_criterion_09_convergence_orderings():
    n = 2 ** 12
    trials = 10
    d = gp.Affine1DDictionary(n)
    dense = gp.experiment_grid(n, b0=1, log2_tau=0.25)
    coarse = gp.experiment_grid(n, b0=2, log2_tau=0.5)
    curves = {}
    for kind in ("gaussian", "rectangular"):
        spec = gp.BurstSignalSpec(n=n, n_bursts=100, kind=kind)
        for label, grid, mode in (("dmp_dense", dense, "dmp"), ("dmp_coarse", coarse, "dmp"),
                                  ("gmp_dense", dense, "gmp"), ("gmp_coarse", coarse, "gmp")):
            cfg = gp.PursuitConfig(mode=mode, kappa=10, max_iterations=12)
            cur = gp.convergence_curve(spec.sample, d, grid, cfg,
                                       trials=trials, m_max=12, master_seed=0)
            curves[(kind, label)] = cur.mean_energy[-1]
    checks = [
        curves[("gaussian", "gmp_dense")] < curves[("gaussian", "dmp_dense")],
        curves[("gaussian", "gmp_coarse")] < curves[("gaussian", "dmp_coarse")],
        curves[("rectangular", "gmp_dense")] < curves[("rectangular", "dmp_dense")],
        curves[("rectangular", "gmp_coarse")] < curves[("rectangular", "dmp_coarse")],
        curves[("gaussian", "dmp_dense")] < curves[("gaussian", "dmp_coarse")],
        all(curves[("gaussian", lbl)] < curves[("rectangular", lbl)]
            for lbl in ("dmp_dense", "dmp_coarse", "gmp_dense", "gmp_coarse")),
    ]
    detail = (f"(gauss E12: gmp_dense={curves[('gaussian', 'gmp_dense')]:.2e} "
              f"dmp_dense={curves[('gaussian', 'dmp_dense')]:.2e} "
              f"dmp_coarse={curves[('gaussian', 'dmp_coarse')]:.2e})")
    report(9, all(checks), detail)


# -- 10. NAE trends ---------------------------------------------------------------

def test_criterion_10_nae_trends():
    n = 2 ** 12
    trials = 100
    d = gp.Affine1DDictionary(n)
    spec = gp.BurstSignalSpec(n=n, n_bursts=100, kind="gaussian")
    taus = (0.25, 0.5, 0.75, 1.0)
    dmp, gmp = [], []
    for lt in taus:
        grid = gp.experiment_grid(n, b0=1, log2_tau=lt)
        dmp.append(gp.nae(spec.sample, d, grid, gp.PursuitConfig(mode="dmp"),
                          trials=trials, master_seed=0).mean)
        gmp.append(gp.nae(spec.sample, d, grid, gp.PursuitConfig(mode="gmp", kappa=10),
                          trials=trials, master_seed=0).mean)
    dominates = all(g >= dd for g, dd in zip(gmp, dmp))
    monotone = all(a >= b for a, b in zip(dmp, dmp[1:]))
    report(10, dominates and monotone,
           f"(dMP NAE {['%.4f' % v for v in dmp]}, gMP NAE {['%.4f' % v for v in gmp]})")


# -- 11. 2-D directional PSNR ------------------------------------------------------

def test_criterion_11_image_psnr_gain():
    img = gp.make_test_image(64, 64, seed=0)
    grid = gp.Grid2DSpec(nx=64, ny=64, j_scales=3, k_orients=4)
    rows = gp.image_harness(img, grid,
                            [gp.PursuitConfig(mode="dmp"),
                             gp.PursuitConfig(mode="gmp", kappa=10)],
                            n_atoms=100)
    gain = rows[1]["psnr_db"] - rows[0]["psnr_db"]
    report(11, gain >= 0.5,
           f"(dMP {rows[0]['psnr_db']:.2f} dB, gMP {rows[1]['psnr_db']:.2f} dB, gain {gain:+.2f} dB)")


# -- 12. density radius -------------------------------------------------------------

def test_criterion_12_density_radius(rng):
    n = 1024
    d = gp.Affine1DDictionary(n)
    dense = gp.tau_grid_for_signal(n, b0=1, log2_tau=0.25)
    coarse = gp.tau_grid_for_signal(n, b0=2, log2_tau=0.5)
    probes = [d.point(rng.uniform(0, n - 1),
                      math.exp(rng.uniform(math.log(1.3), math.log(200.0))))
              for _ in range(1000)]
    r_dense = gp.density_radius(d, dense, probes, segments=4)
    r_coarse = gp.density_radius(d, coarse, probes, segments=4)
    on_grid = gp.density_radius(d, dense, list(dense.points())[::37])
    report(12, r_dense < r_coarse and on_grid == 0.0,
           f"(rho dense={r_dense:.4f} < rho coarse={r_coarse:.4f}; on-grid rho={on_grid})")


# -- 13. determinism ----------------------------------------------------------------

def test_criterion_13_determinism(tmp_path):
    grid = gp.tau_grid_for_signal(512, b0=2, log2_tau=0.5)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(grid.to_json())

    sig = tmp_path / "s.bin"
    assert run_cli(["gen-signal", "--n", "512", "--seed", "5", "--out", str(sig)]).returncode == 0
    # the same commands twice, each run in its own interpreter
    blobs = []
    for tag in ("first", "second"):
        steps = tmp_path / f"steps_{tag}.jsonl"
        steps_csv = tmp_path / f"steps_{tag}.csv"
        curve = tmp_path / f"curve_{tag}.csv"
        assert run_cli(["decompose", "--mode", "gmp", "--kappa", "10", "--max-iters", "20",
                        "--grid", str(grid_path), "--in", str(sig), "--out", str(steps),
                        "--csv", str(steps_csv)]).returncode == 0
        assert run_cli(["curve", "--grid", str(grid_path), "--trials", "3", "--m-max", "6",
                        "--mode", "gmp", "--bursts", "30", "--out", str(curve)]).returncode == 0
        blobs.append([steps.read_bytes(), steps_csv.read_bytes(), curve.read_bytes()])
    report(13, blobs[0] == blobs[1] and all(blobs[0]),
           "(decompose jsonl/csv and curve csv byte-identical across two runs)")
