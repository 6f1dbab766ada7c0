"""Experiment protocols: burst-signal generators, residual-decay curves,
normalized atom energy, and the image PSNR harness.

All experiments are deterministic given a master seed: per-trial
generators (numpy's PCG64, a named, portable stream) are spawned from a
seed sequence, so results are identical regardless of how trials are
scheduled.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .aniso2d import Aniso2DDictionary, Grid2DSpec
from .core import SignalBuffer, psnr
from .dictionaries import Dictionary
# gradient_ascent is not called here; it stays an attribute of this module
# because the benchmark's tracer (perfbench/spans.py) rebinds it.
from .pursuit import (PursuitConfig, full_search, gradient_ascent,  # noqa: F401
                      reconstruct, run, select)

# burst width scale of the default signal class and of the experiment grid
BURST_ENVELOPE = 2.0 ** 8


@dataclass(frozen=True)
class BurstSignalSpec:
    """Random superposition of localized bursts, normalized to unit norm.

    Bursts are Gaussian windows (width = standard deviation) or rectangular
    windows (width = duration); widths are uniform in
    [envelope/2, 3*envelope/4], positions uniform, magnitudes uniform in
    [1/2, 1] with a random sign (an all-positive sum is dominated by its DC
    pedestal, which a zero-mean dictionary only reaches through
    boundary-truncated atoms).
    """

    n: int = 2 ** 13
    n_bursts: int = 100
    kind: str = "gaussian"
    envelope: float = BURST_ENVELOPE

    def __post_init__(self):
        if self.kind not in ("gaussian", "rectangular"):
            raise ValueError(f"unknown burst kind {self.kind!r}")
        if self.n < self.envelope:
            raise ValueError(f"signal length {self.n} too short for envelope "
                             f"{self.envelope}")

    def sample(self, seed) -> SignalBuffer:
        rng = np.random.default_rng(seed)
        t = np.arange(self.n, dtype=np.float64)
        x = np.zeros(self.n)
        w_lo, w_hi = 0.5 * self.envelope, 0.75 * self.envelope
        for _ in range(self.n_bursts):
            amp = rng.uniform(0.5, 1.0)
            if rng.random() < 0.5:
                amp = -amp
            width = rng.uniform(w_lo, w_hi)
            if self.kind == "gaussian":
                t0 = rng.uniform(0.0, self.n)
                x += amp * np.exp(-0.5 * ((t - t0) / width) ** 2)
            else:
                t0 = rng.uniform(0.0, self.n - width)
                x += amp * ((t >= t0) & (t < t0 + width))
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            raise ValueError("degenerate burst draw with zero energy")
        return SignalBuffer(x / nrm)


def _trial_seeds(master_seed: int, trials: int):
    return np.random.SeedSequence(master_seed).spawn(trials)


def experiment_grid(n: int, b0: float, log2_tau: float):
    """Tau-adic grid whose scales cover the default class band
    [1, 3*BURST_ENVELOPE] (capped at n/4).

    The matched-filter optimum for a Gaussian burst of width sigma sits
    near 2.2*sigma, so 3*BURST_ENVELOPE covers the whole width range with
    margin. Scales far above the class band only contribute
    boundary-envelope atoms whose alignment across tau values is
    arbitrary; excluding them keeps first-iteration statistics about the
    class, not the grid's top-of-range placement.
    """
    from .affine1d import tau_grid_for_signal

    return tau_grid_for_signal(n, b0=b0, log2_tau=log2_tau,
                               max_scale=min(3.0 * BURST_ENVELOPE, n / 4))


def selection_score(dictionary: Dictionary, residual: SignalBuffer, grid,
                    config: PursuitConfig) -> float:
    """Best score one pursuit iteration would achieve on `residual`."""
    return select(dictionary, residual, grid, config)[1]


@dataclass(frozen=True)
class NAEResult:
    """Mean best squared correlation of unit-normalized residuals, and its
    standard error over the trials."""

    mean: float
    stderr: float


def nae(signal_factory, dictionary: Dictionary, grid, config: PursuitConfig,
        trials: int, at_iteration: int = 1, master_seed: int = 0) -> NAEResult:
    """Normalized atom energy of a signal class at a pursuit iteration.

    One signal per trial comes from `signal_factory`, seeded off
    `master_seed`. For `at_iteration` > 1, each trial's residual comes from
    `at_iteration - 1` gMP iterations on the same grid (with `config`'s
    other settings); the unit-normalized residual is then scored by one
    selection under `config`. Only the statistics are returned.
    """
    if trials < 1 or at_iteration < 1:
        raise ValueError(f"need trials >= 1 and at_iteration >= 1, "
                         f"got {trials} and {at_iteration}")
    warm = replace(config, mode="gmp", max_iterations=at_iteration - 1)
    scores = []
    for seed in _trial_seeds(master_seed, trials):
        f = signal_factory(seed)
        residual = f
        if at_iteration > 1:
            residual = run(f, dictionary, grid, warm).final_residual
        nrm = residual.norm()
        if nrm == 0.0:
            scores.append(0.0)
            continue
        unit = SignalBuffer(residual.data / nrm)
        scores.append(selection_score(dictionary, unit, grid, config))
    arr = np.array(scores)
    stderr = float(arr.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return NAEResult(mean=float(arr.mean()), stderr=stderr)


@dataclass(frozen=True)
class CurveResult:
    """Residual-energy decay, averaged over trials."""

    mean_energy: np.ndarray         # mean ||R^m f||^2 for m = 0..m_max
    trial_energy: np.ndarray        # trials x (m_max + 1)


def convergence_curve(signal_factory, dictionary: Dictionary, grid,
                      config: PursuitConfig, trials: int, m_max: int = 12,
                      master_seed: int = 0) -> CurveResult:
    """||R^m f||^2, m = 0..m_max, per trial (one `signal_factory` signal
    seeded off `master_seed`) and averaged; early stops keep their energy."""
    if trials < 1 or m_max < 0:
        raise ValueError(f"need trials >= 1 and m_max >= 0, got {trials} and {m_max}")
    rows = []
    cfg = replace(config, max_iterations=m_max)
    for seed in _trial_seeds(master_seed, trials):
        f = signal_factory(seed)
        decomposition = run(f, dictionary, grid, cfg)
        energies = decomposition.residual_energies()
        if energies.size < m_max + 1:  # stopped early; energy stays put
            pad = np.full(m_max + 1 - energies.size, energies[-1])
            energies = np.concatenate([energies, pad])
        rows.append(energies)
    trial_energy = np.array(rows)
    return CurveResult(mean_energy=trial_energy.mean(axis=0),
                       trial_energy=trial_energy)


def beta_surrogate(dictionary: Dictionary, grid, signals) -> float:
    """Empirical stand-in for the greedy factor.

    Returns the minimum over the corpus of the best full-search correlation
    magnitude on the unit-normalized signal. This is a corpus statistic,
    not the worst case over a function space.
    """
    best = None
    for sig in signals:
        nrm = sig.norm()
        if nrm == 0.0:
            raise ValueError("zero signal in corpus")
        unit = SignalBuffer(sig.data / nrm)
        _, s = full_search(dictionary, unit, grid)
        val = math.sqrt(max(s, 0.0))
        best = val if best is None else min(best, val)
    if best is None:
        raise ValueError("empty corpus")
    return best


def image_harness(image: SignalBuffer, grid: Grid2DSpec, configs,
                  n_atoms: int, dictionary: Aniso2DDictionary | None = None) -> list[dict]:
    """Decompose an image under each config; report PSNR and wall time."""
    if image.ndim != 2:
        raise ValueError("image harness needs a 2-D buffer")
    if dictionary is None:
        dictionary = Aniso2DDictionary(image.shape)
    rows = []
    for config in configs:
        cfg = replace(config, max_iterations=n_atoms)
        start = time.perf_counter()
        decomposition = run(image, dictionary, grid, cfg)
        elapsed = time.perf_counter() - start
        approx = reconstruct(decomposition, dictionary)
        rows.append({
            "label": f"{cfg.mode}(kappa={cfg.kappa})",
            "mode": cfg.mode,
            "kappa": cfg.kappa,
            "atoms": len(decomposition),
            "psnr_db": psnr(image, approx),
            "wall_time_s": elapsed,
        })
    return rows


def make_test_image(nx: int = 64, ny: int = 64, seed: int = 0) -> SignalBuffer:
    """Deterministic 8-bit grayscale test image.

    A smooth background plus 30 randomly placed, oriented, anisotropic
    blob/ridge structures whose scales and orientations fall between any
    coarse parameter grid's samples.
    """
    rng = np.random.default_rng(seed)
    # blob scales reach 10 px and centres keep 4 px from the edges, both
    # relaxed on images too small for them
    dictionary = Aniso2DDictionary((nx, ny), scale_range=(0.5, float(max(nx, ny, 10))))
    xs = np.arange(nx)[:, None] / max(nx - 1, 1)
    ys = np.arange(ny)[None, :] / max(ny - 1, 1)
    img = 30.0 * xs + 20.0 * ys
    for _ in range(30):
        b1 = rng.uniform(min(4, (nx - 1) / 2), max(nx - 5, (nx - 1) / 2))
        b2 = rng.uniform(min(4, (ny - 1) / 2), max(ny - 5, (ny - 1) / 2))
        theta = rng.uniform(0.0, math.pi)
        a1 = math.exp(rng.uniform(math.log(1.5), math.log(10.0)))
        a2 = math.exp(rng.uniform(math.log(1.5), math.log(10.0)))
        amp = rng.uniform(0.35, 1.0) * rng.choice([-1.0, 1.0])
        atom = dictionary.synthesize(dictionary.point(b1, b2, theta, a1, a2))
        img = img + 60.0 * amp * atom.data
    img -= img.min()
    peak = img.max()
    if peak > 0:
        img *= 255.0 / peak
    return SignalBuffer(np.rint(img), peak_hint=255.0)
