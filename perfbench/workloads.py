"""The benchmark's workloads.

Each workload builds its dictionary and grid in `setup` (what `setup_s`
times), makes a pool of inputs from the run seed, runs one operation on one
input through geopursuit's public API, and checks an operation's output.
Operations call the API through the module that defines each name, so the
tracer's rebinding of those names also covers the benchmark's own call sites.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from geopursuit import aniso2d, core, experiments, geometry, pursuit
from geopursuit.affine1d import Affine1DDictionary

N_1D = 8192
KAPPA = 10
GAP_TOL = 1e-10
ORACLE_SCORE_TOL = 1e-8

# decompose-1d: time to -20 dB on a fixed corpus of burst signals. Drawn per
# seed, atoms-to-target ranges over 14-50 and op_p50_s spreads ~25% between
# seeds; a fixed corpus keeps the difficulty mix of every run the same, and
# the seed only adds independent white noise at -60 dB.
DECOMPOSE_CORPUS = 6
DECOMPOSE_NOISE_REL = 1e-3  # noise norm relative to the unit-norm signal

IMAGE_SIZE = (64, 64)
IMAGE_J, IMAGE_K = 3, 4
IMAGE_ATOMS = 50

GEOMETRY_SAMPLES = 10
GEOMETRY_PROBES = 50
GEOMETRY_SEGMENTS = 4
GEOMETRY_BETA_CORPUS = 8
GEOMETRY_ALPHA = 1.0


def _spawn_ints(seed: int, count: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


@contextmanager
def capture_returns(module, name: str):
    """Collect what `module.name` returns while the block runs."""
    original = getattr(module, name)
    got = []

    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        got.append(result)
        return result

    setattr(module, name, capturing)
    try:
        yield got
    finally:
        setattr(module, name, original)


def _pursuit_checks(signal: core.SignalBuffer, decomposition, approx) -> list[str]:
    failures = []
    energies = decomposition.residual_energies()
    if not np.all(np.diff(energies) < 0):
        failures.append("residual energies do not strictly decrease")
    gap = signal.data - approx.data - decomposition.final_residual.data
    rel = float(np.linalg.norm(gap)) / signal.norm()
    if not rel <= GAP_TOL:
        failures.append(f"|f - reconstruct - residual|/|f| = {rel:.3e} > {GAP_TOL:g}")
    return failures


def _steps_equal(a, b) -> bool:
    if len(a.steps) != len(b.steps):
        return False
    for x, y in zip(a.steps, b.steps):
        if not (np.array_equal(x.lam, y.lam) and x.coeff == y.coeff
                and x.residual_energy == y.residual_energy
                and x.ascent_steps == y.ascent_steps):
            return False
    return np.array_equal(a.final_residual.data, b.final_residual.data)


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""
    pool_size = 1
    traced_ops = 1       # inputs a traced run replays, untraced then traced

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def warm(self, x) -> None:
        """Touch lazily initialised code paths before timing starts."""
        raise NotImplementedError

    def op(self, x):
        raise NotImplementedError

    def check(self, index: int, x, out) -> list[str]:
        raise NotImplementedError

    def quality(self, xs, outs) -> tuple[float, float]:
        """(atoms_to_target, psnr_db) over the pool, given one output per input."""
        raise NotImplementedError

    def same(self, a, b) -> bool:
        raise NotImplementedError


class Decompose1D(Workload):
    name = "decompose-1d"
    pool_size = DECOMPOSE_CORPUS
    traced_ops = 2

    def setup(self):
        self.dictionary = Affine1DDictionary(N_1D)
        self.grid = experiments.experiment_grid(N_1D, b0=2, log2_tau=0.5)
        self.config = pursuit.PursuitConfig(mode="gmp", kappa=KAPPA, max_iterations=200,
                                            energy_floor_rel=1e-2)

    def inputs(self, seed):
        spec = experiments.BurstSignalSpec(n=N_1D)
        out = []
        for i in range(self.pool_size):
            base = spec.sample(i).data
            noise = np.random.default_rng([seed, i]).standard_normal(N_1D)
            x = base + DECOMPOSE_NOISE_REL / math.sqrt(N_1D) * noise
            out.append(core.SignalBuffer(x / np.linalg.norm(x)))
        return out

    def warm(self, x):
        pursuit.full_search(self.dictionary, x, self.grid)

    def op(self, x):
        decomposition = pursuit.run(x, self.dictionary, self.grid, self.config)
        return decomposition, pursuit.reconstruct(decomposition, self.dictionary)

    def check(self, index, x, out):
        decomposition, approx = out
        failures = _pursuit_checks(x, decomposition, approx)
        energies = decomposition.residual_energies()
        if energies[-1] > self.config.energy_floor_rel * energies[0]:
            failures.append(f"did not reach -20 dB within {self.config.max_iterations} atoms")
        return failures

    def quality(self, xs, outs):
        atoms = [len(dec) for dec, _ in outs]
        psnrs = [core.psnr(x, approx) for x, (_, approx) in zip(xs, outs)]
        return float(np.mean(atoms)), float(np.mean(psnrs))

    def same(self, a, b):
        return _steps_equal(a[0], b[0]) and np.array_equal(a[1].data, b[1].data)


class Nae1D(Workload):
    name = "nae-1d"
    pool_size = 64
    traced_ops = 40
    oracle_inputs = (0,)

    def setup(self):
        self.dictionary = Affine1DDictionary(N_1D)
        self.grid = experiments.experiment_grid(N_1D, b0=2, log2_tau=0.5)
        self.config = pursuit.PursuitConfig(mode="dmp")
        self._oracle_cache = {}

    def inputs(self, seed):
        spec = experiments.BurstSignalSpec(n=N_1D, kind="rectangular")
        return [spec.sample(s) for s in np.random.SeedSequence(seed).spawn(self.pool_size)]

    def warm(self, x):
        pursuit.full_search(self.dictionary, x, self.grid)

    def op(self, x):
        return experiments.selection_score(self.dictionary, x, self.grid, self.config)

    def check(self, index, x, out):
        failures = []
        if not 0.0 < out <= 1.0 + 1e-12:
            failures.append(f"selection score {out!r} outside (0, 1] for a unit-norm signal")
        if index in self.oracle_inputs:
            if index not in self._oracle_cache:
                self._oracle_cache[index] = self._oracle(x)
            lam_fast, s_fast, lam_ref, s_ref = self._oracle_cache[index]
            if not np.array_equal(lam_fast.coords, lam_ref.coords):
                failures.append(f"full_search argmax {lam_fast} != oracle {lam_ref}")
            if not max(abs(s_fast - s_ref), abs(out - s_ref)) < ORACLE_SCORE_TOL:
                failures.append(f"score {out!r} / {s_fast!r} != oracle {s_ref!r}")
        return failures

    def _oracle(self, x):
        """full_search's pick and an exhaustive per-atom search's pick on `x`.

        The oracle synthesizes every grid atom; it runs once per input, and
        every operation on that input is compared with it."""
        best_lam, best_s = None, -1.0
        for lam in self.grid.points():
            s = core.inner_product(self.dictionary.synthesize(lam, x.shape), x) ** 2
            if s > best_s:
                best_lam, best_s = lam, s
        return (*pursuit.full_search(self.dictionary, x, self.grid), best_lam, best_s)

    def quality(self, xs, outs):
        # PSNR of the best one-atom approximation of a unit-norm signal, whose
        # residual energy is 1 - score (core.psnr's default peak, max |f|).
        psnrs = [10.0 * math.log10(float(np.max(np.abs(x.data))) ** 2 * x.size / (1.0 - s))
                 for x, s in zip(xs, outs)]
        return 1.0, float(np.mean(psnrs))

    def same(self, a, b):
        return a == b


class Image2D(Workload):
    name = "image-2d"
    pool_size = 3
    traced_ops = 1

    def setup(self):
        self.dictionary = aniso2d.Aniso2DDictionary(IMAGE_SIZE)
        self.grid = aniso2d.Grid2DSpec(*IMAGE_SIZE, j_scales=IMAGE_J, k_orients=IMAGE_K)
        self.config = pursuit.PursuitConfig(mode="gmp", kappa=KAPPA)

    def inputs(self, seed):
        return [experiments.make_test_image(*IMAGE_SIZE, seed=s)
                for s in _spawn_ints(seed, self.pool_size)]

    def warm(self, x):
        pursuit.full_search(self.dictionary, x, self.grid)

    def op(self, x):
        # image_harness keeps its decomposition to itself; capture it for the checks.
        with capture_returns(experiments, "run") as runs:
            rows = experiments.image_harness(x, self.grid, [self.config], n_atoms=IMAGE_ATOMS,
                                             dictionary=self.dictionary)
        return rows[0], runs[0]

    def check(self, index, x, out):
        row, decomposition = out
        approx = pursuit.reconstruct(decomposition, self.dictionary, x.shape)
        failures = _pursuit_checks(x, decomposition, approx)
        if row["atoms"] != IMAGE_ATOMS:
            failures.append(f"{row['atoms']} atoms, expected {IMAGE_ATOMS}")
        if row["psnr_db"] != core.psnr(x, approx):
            failures.append("harness PSNR differs from the PSNR of the reconstruction")
        return failures

    def quality(self, xs, outs):
        return (float(np.mean([row["atoms"] for row, _ in outs])),
                float(np.mean([row["psnr_db"] for row, _ in outs])))

    def same(self, a, b):
        keys = ("mode", "kappa", "atoms", "psnr_db")
        return all(a[0][k] == b[0][k] for k in keys) and _steps_equal(a[1], b[1])


class Geometry2D(Workload):
    name = "geometry-2d"
    pool_size = 3
    traced_ops = 1

    def setup(self):
        self.dictionary = aniso2d.Aniso2DDictionary(IMAGE_SIZE)
        self.grid = aniso2d.Grid2DSpec(*IMAGE_SIZE, j_scales=IMAGE_J, k_orients=IMAGE_K)

    def inputs(self, seed):
        return [self._report_inputs(s) for s in _spawn_ints(seed, self.pool_size)]

    def _report_inputs(self, seed):
        """Evaluation point, samples, probes and beta corpus as the CLI draws them."""
        d, (nx, ny) = self.dictionary, IMAGE_SIZE
        rng = np.random.default_rng(seed)
        scales = self.grid.scales()
        a_lo, a_hi = float(scales[0]), float(scales[-1])
        lam0 = d.point(nx / 2, ny / 2, 0.0, math.sqrt(a_lo * a_hi), math.sqrt(a_lo * a_hi))

        def rand_point():
            return d.point(
                rng.uniform(0.3 * nx, 0.7 * nx), rng.uniform(0.3 * ny, 0.7 * ny),
                rng.uniform(0, math.pi),
                math.exp(rng.uniform(math.log(a_lo * 1.05), math.log(a_hi * 0.95))),
                math.exp(rng.uniform(math.log(a_lo * 1.05), math.log(a_hi * 0.95))))

        samples = [rand_point() for _ in range(GEOMETRY_SAMPLES)]
        probes = [rand_point() for _ in range(GEOMETRY_PROBES)]
        corpus = [experiments.make_test_image(nx, ny, seed=s)
                  for s in _spawn_ints(seed, GEOMETRY_BETA_CORPUS)]
        return {"at": lam0, "samples": samples, "probes": probes, "corpus": corpus}

    def warm(self, x):
        geometry.metric(self.dictionary, x["at"])
        pursuit.full_search(self.dictionary, x["corpus"][0], self.grid)

    def op(self, x):
        d = self.dictionary
        g = geometry.metric(d, x["at"])
        gamma = geometry.christoffel(d, x["at"])
        k_hat = geometry.condition_bound(d, x["samples"])
        rho = geometry.density_radius(d, self.grid, x["probes"], segments=GEOMETRY_SEGMENTS)
        beta = experiments.beta_surrogate(d, self.grid, x["corpus"])
        report = geometry.weakness_factors(GEOMETRY_ALPHA, beta, k_hat, rho)
        return {"metric": g.matrix, "christoffel": gamma, "condition_bound": k_hat,
                "density_radius": rho, "weakness": report}

    def check(self, index, x, out):
        failures = []
        G = out["metric"]
        if not (np.array_equal(G, G.T) and np.linalg.eigvalsh(G)[0] > 0):
            failures.append("metric is not symmetric positive definite")
        if not out["condition_bound"] >= 1.0:
            failures.append(f"condition_bound {out['condition_bound']} < 1")
        w = out["weakness"]
        # alpha_prime/alpha_dprime are None, as documented, when the deficit exceeds 1
        if not (all(math.isfinite(v) for v in (w.alpha, w.beta, w.curvature, w.rho_d))
                and all(v is None or math.isfinite(v) for v in (w.alpha_prime, w.alpha_dprime))):
            failures.append(f"non-finite weakness field in {w}")
        if not np.all(np.isfinite(out["christoffel"])):
            failures.append("non-finite Christoffel symbols")
        return failures

    def _one_atom_psnr(self, image):
        unit = core.SignalBuffer(image.data / image.norm())
        lam, _ = pursuit.full_search(self.dictionary, unit, self.grid)
        atom = self.dictionary.synthesize(lam, image.shape)
        coeff = core.inner_product(atom, image)
        return core.psnr(image, core.SignalBuffer(coeff * atom.data))

    def quality(self, xs, outs):
        # The report picks one atom per beta-corpus image; psnr_db is the mean
        # PSNR of those one-atom approximations for the first report.
        psnrs = [self._one_atom_psnr(img) for img in xs[0]["corpus"]]
        return float(GEOMETRY_BETA_CORPUS), float(np.mean(psnrs))

    def same(self, a, b):
        wa, wb = a["weakness"], b["weakness"]
        return (np.array_equal(a["metric"], b["metric"])
                and np.array_equal(a["christoffel"], b["christoffel"])
                and a["condition_bound"] == b["condition_bound"]
                and a["density_radius"] == b["density_radius"] and wa == wb)


WORKLOADS = {w.name: w for w in (Decompose1D, Nae1D, Image2D, Geometry2D)}
