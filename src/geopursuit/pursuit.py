"""Pursuit engines: greedy decomposition over a discrete parameter grid,
with optional manifold gradient-ascent refinement of the selected atom.

Each iteration scores the residual against the whole grid (FFT
cross-correlation along translation axes where the translations sit on the
integer sample lattice, windowed direct evaluation otherwise, both from a
search plan built once per dictionary and grid), subtracts the best atom,
and records the step. In `gmp` mode the best grid atom
seeds a gradient ascent on the parameter manifold before subtraction.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sp_fft

from .affine1d import MASS_RADIUS, Affine1DDictionary, TauAdicGrid, affine_jet
from .aniso2d import Aniso2DDictionary, Grid2DSpec
from .core import SignalBuffer, inner_product
from .dictionaries import Dictionary, DomainError, ParamPoint, grid_points
from .geometry import DegenerateMetricError, metric

# Kernel truncation radius in mother widths; values beyond are below 1e-18
# of the peak and invisible at the search tolerance.
KERNEL_RADIUS = 10.0

# Gradient ascent: a failed step is halved at most MAX_HALVINGS times, and
# the ascent stops once |grad| / score falls to GRAD_STOP_RATIO.
MAX_HALVINGS = 10
GRAD_STOP_RATIO = 1e-6

_LATTICE_TOL = 1e-10


@dataclass(frozen=True)
class PursuitConfig:
    """Knobs for a pursuit run.

    Selection is the exact grid argmax (weak matching pursuit with weakness
    factor 1). kappa/chi drive the gradient ascent in gmp mode, which
    refines the grid argmax.
    """

    mode: str = "dmp"
    kappa: int = 10
    chi: float = 0.1
    max_iterations: int = 100
    energy_floor_rel: float = 1e-12

    def __post_init__(self):
        if self.mode not in ("dmp", "gmp"):
            raise ValueError(f"mode must be 'dmp' or 'gmp', got {self.mode!r}")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if not self.chi > 0:
            raise ValueError("chi must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")


@dataclass
class DecompositionStep:
    """One extracted atom: parameters, coefficient, and bookkeeping."""

    m: int
    lam: np.ndarray
    coeff: float
    score: float
    residual_energy: float
    seed: np.ndarray | None = None
    ascent_steps: int = 0

    def to_record(self) -> dict:
        return {
            "m": self.m,
            "lambda": [float(v) for v in self.lam],
            "coeff": self.coeff,
            "score": self.score,
            "residual_energy": self.residual_energy,
            "seed_lambda": None if self.seed is None else [float(v) for v in self.seed],
            "ascent_steps": self.ascent_steps,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "DecompositionStep":
        seed = rec.get("seed_lambda")
        return cls(m=int(rec["m"]), lam=np.array(rec["lambda"], dtype=np.float64),
                   coeff=float(rec["coeff"]), score=float(rec["score"]),
                   residual_energy=float(rec["residual_energy"]),
                   seed=None if seed is None else np.array(seed, dtype=np.float64),
                   ascent_steps=int(rec.get("ascent_steps", 0)))


@dataclass
class Decomposition:
    """Ordered pursuit steps plus run-level bookkeeping."""

    steps: list[DecompositionStep] = field(default_factory=list)
    initial_energy: float = 0.0
    final_residual: SignalBuffer | None = None

    def __len__(self):
        return len(self.steps)

    def coefficients(self) -> np.ndarray:
        return np.array([s.coeff for s in self.steps])

    def residual_energies(self) -> np.ndarray:
        """Energy trajectory, starting with the initial signal energy."""
        return np.array([self.initial_energy] + [s.residual_energy for s in self.steps])

    def to_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for step in self.steps:
                fh.write(json.dumps(step.to_record()) + "\n")

    @classmethod
    def from_jsonl(cls, path, initial_energy: float | None = None) -> "Decomposition":
        """Read steps written by `to_jsonl`.

        Without `initial_energy`, it is recovered from the first step as
        residual_energy + coeff**2 (the energy the step removed from the
        signal); an empty file gives 0.0.
        """
        steps = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    steps.append(DecompositionStep.from_record(json.loads(line)))
        if initial_energy is None:
            initial_energy = (steps[0].residual_energy + steps[0].coeff ** 2
                              if steps else 0.0)
        return cls(steps=steps, initial_energy=initial_energy)

    def to_csv(self, path) -> None:
        P = len(self.steps[0].lam) if self.steps else 0
        header = (["m"] + [f"lambda_{i}" for i in range(P)]
                  + ["coeff", "score", "residual_energy"]
                  + [f"seed_{i}" for i in range(P)] + ["ascent_steps"])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for s in self.steps:
                seed = [""] * P if s.seed is None else [format(v, ".17g") for v in s.seed]
                writer.writerow([s.m] + [format(v, ".17g") for v in s.lam]
                                + [format(s.coeff, ".17g"), format(s.score, ".17g"),
                                   format(s.residual_energy, ".17g")]
                                + seed + [s.ascent_steps])


def score(dictionary: Dictionary, residual: SignalBuffer, lam: ParamPoint) -> float:
    """Squared correlation of the residual with the atom at `lam`."""
    return inner_product(dictionary.synthesize(lam), residual) ** 2


@dataclass(frozen=True)
class ScoreGradient:
    score: float
    partial: np.ndarray   # d_i of the score
    grad: np.ndarray      # metric-raised gradient G^(ij) d_j
    grad_norm: float      # manifold norm of the gradient


def gradient(dictionary: Dictionary, residual: SignalBuffer, lam: ParamPoint) -> ScoreGradient:
    """Score value, coordinate partials, and manifold gradient at `lam`."""
    g = metric(dictionary, lam)
    atom = dictionary.synthesize(lam)
    parts = dictionary.partials(lam)
    corr = inner_product(atom, residual)
    partial = 2.0 * corr * (parts.reshape(len(parts), -1) @ residual.data.ravel())
    grad = g.inverse @ partial
    grad_norm = math.sqrt(max(float(partial @ grad), 0.0))
    return ScoreGradient(score=corr * corr, partial=partial, grad=grad, grad_norm=grad_norm)


@dataclass(frozen=True)
class AscentResult:
    lam: ParamPoint
    score: float
    steps: int
    reason: str  # "kappa" | "gradient" | "halvings" | "degenerate"


def gradient_ascent(dictionary: Dictionary, residual: SignalBuffer, lam0: ParamPoint,
                    kappa: int = 10, chi: float = 0.1) -> AscentResult:
    """Step-halving gradient ascent of the score on the parameter manifold.

    Moves along the normalized manifold gradient with initial step `chi`,
    halving on failure to increase the score (up to MAX_HALVINGS times,
    then the ascent stops). Counts accepted steps against `kappa`; also
    stops early when |grad| / score drops to GRAD_STOP_RATIO. Never
    returns a score below score(lam0).
    """
    s0 = score(dictionary, residual, lam0)
    best_lam, best_s = lam0, s0
    lam = dictionary.clamp(lam0)
    s = score(dictionary, residual, lam)
    if s > best_s:
        best_lam, best_s = lam, s
    steps = 0
    reason = "kappa"
    while steps < kappa:
        try:
            info = gradient(dictionary, residual, lam)
        except (DomainError, DegenerateMetricError):
            reason = "degenerate"  # seed where the manifold machinery fails
            break
        if info.grad_norm <= GRAD_STOP_RATIO * info.score:
            reason = "gradient"
            break
        direction = info.grad / info.grad_norm
        t = chi
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            cand = dictionary.clamp_coords(lam.coords + t * direction)
            s_cand = score(dictionary, residual, cand)
            if s_cand > s:
                lam, s = cand, s_cand
                accepted = True
                break
            t /= 2
        if not accepted:
            reason = "halvings"
            break
        steps += 1
        if s > best_s:
            best_lam, best_s = lam, s
    return AscentResult(lam=best_lam, score=best_s, steps=steps, reason=reason)


# ---------------------------------------------------------------------------
# Full search over a grid
# ---------------------------------------------------------------------------

def full_search(dictionary: Dictionary, residual: SignalBuffer, grid):
    """Exhaustive argmax of the score over the grid.

    Equivalent to scoring every grid atom; ties break toward the smallest
    enumeration index. Returns (best point, best score).
    """
    best = None  # (score, to_point, index)
    for scores, to_point in _score_blocks(dictionary, residual, grid):
        k = int(np.argmax(scores))
        if best is None or scores[k] > best[0]:
            best = (float(scores[k]), to_point, k)
    if best is None:
        raise ValueError("grid is empty")
    return best[1](best[2]), best[0]


def grid_scores(dictionary: Dictionary, residual: SignalBuffer, grid) -> np.ndarray:
    """Scores of every grid atom, in enumeration order.

    Diagnostic companion to full_search; uses the same FFT/direct scoring
    machinery, so it also serves to audit the fast paths atom by atom.
    """
    blocks = [scores for scores, _ in _score_blocks(dictionary, residual, grid)]
    if not blocks:
        raise ValueError("grid is empty")
    return np.concatenate(blocks)


def _score_blocks(dictionary: Dictionary, residual: SignalBuffer, grid):
    """Flat score arrays covering the grid in enumeration order.

    The only place that branches on grid and dictionary type. Yields
    (scores, to_point) once per 1-D scale level, once per 2-D slab
    (positions row-major), or once for any other grid (per-atom scoring),
    where to_point(k) is the parameter point scored by scores[k]. Level and
    slab scores are corr**2 / norm2 from the grid's search plan, with 0
    where the atom has no samples in the buffer. Yields nothing for an
    empty grid. A residual whose shape is not the dictionary's raises
    ValueError: the FFT path would pad or truncate it.
    """
    dictionary.check_shape(residual.shape)
    if isinstance(grid, TauAdicGrid) and isinstance(dictionary, Affine1DDictionary):
        build = _affine_plan
    elif isinstance(grid, Grid2DSpec) and isinstance(dictionary, Aniso2DDictionary):
        build = _grid2d_plan
    else:
        points = grid_points(grid)
        if points:
            yield (np.array([score(dictionary, residual, lam) for lam in points]),
                   points.__getitem__)
        return
    plans = _PLANS.setdefault(dictionary, {})
    if grid not in plans:
        plans[grid] = build(dictionary, grid)
    for corr, norm2, to_point in plans[grid].correlations(residual.data):
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = np.where(norm2 > 0, corr * corr / norm2, 0.0)
        yield scores.ravel(), functools.partial(to_point, dictionary)


# Search plans per dictionary, keyed by grid. A plan holds no reference to
# its dictionary, so it is freed with it.
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class _FFTBlock:
    """A level or slab on the integer lattice: the conjugate spectrum of its
    centred template wrapped to the plan's FFT shape, the gather index of its
    positions there, and the in-buffer squared norms."""

    spectrum: np.ndarray
    gather: tuple
    norm2: np.ndarray
    to_point: object  # (dictionary, k) -> ParamPoint

    def correlate(self, u, u_hat, fft_shape):
        return sp_fft.irfftn(u_hat * self.spectrum, fft_shape)[self.gather]


@dataclass(frozen=True)
class _DirectBlock:
    """An off-lattice 1-D level: the residual window of each translation
    starts at `starts`; `kernel()` rebuilds the kernel rows over those
    windows at each search, and `norm2` holds their squared norms."""

    kernel: object  # () -> kernel rows, one per translation
    starts: np.ndarray
    norm2: np.ndarray
    to_point: object  # (dictionary, k) -> ParamPoint

    def correlate(self, u, u_hat, fft_shape):
        kernel = self.kernel()
        windows = sliding_window_view(u, kernel.shape[1])[self.starts]
        return np.einsum("nl,nl->n", kernel, windows)


@dataclass(frozen=True)
class _SearchPlan:
    """Everything a grid search needs that does not depend on the residual:
    one block per level or slab, in enumeration order, and the real-FFT
    shape the FFT blocks share (empty when there are none)."""

    fft_shape: tuple
    blocks: list

    def correlations(self, u: np.ndarray):
        """(corr, norm2, to_point) per block, from one FFT of `u`."""
        u_hat = sp_fft.rfftn(u, self.fft_shape) if self.fft_shape else None
        for block in self.blocks:
            yield block.correlate(u, u_hat, self.fft_shape), block.norm2, block.to_point

    @classmethod
    def build(cls, shape, entries) -> "_SearchPlan":
        """Plan from `entries` in enumeration order: direct blocks, and
        `_Lattice` specs turned into FFT blocks one template at a time."""
        lattices = [e for e in entries if isinstance(e, _Lattice)]
        fft_shape = ()
        if lattices:
            sizes = np.max([[size for size, _ in _lattice_axes(e, shape)] for e in lattices],
                           axis=0)
            fft_shape = tuple(sp_fft.next_fast_len(int(s), real=True) for s in sizes)
        blocks = [_fft_block(e, shape, fft_shape) if isinstance(e, _Lattice) else e
                  for e in entries]
        return cls(fft_shape, blocks)


class _Lattice(NamedTuple):
    """A level or slab scored on integer positions (one array per axis; 1-D
    positions may lie outside the buffer): `template()` builds its centred
    template, with half-widths `ms` (2m+1 samples per axis)."""

    ms: tuple
    positions: list
    template: object
    to_point: object


def _lattice_axes(lattice: _Lattice, shape):
    """Per axis (size, keep): keep is the template half-width that can meet
    the buffer, and at the circular-correlation length size = n + reach +
    keep, where reach is how far the positions lie outside the buffer,
    template offsets within keep never wrap onto a wanted position."""
    out = []
    for m, p, n in zip(lattice.ms, lattice.positions, shape):
        reach = max(0, -int(p.min()), int(p.max()) - (n - 1))
        keep = min(m, n - 1 + reach)
        out.append((n + reach + keep, keep))
    return out


def _fft_block(lattice: _Lattice, shape, fft_shape) -> _FFTBlock:
    w = lattice.template()
    # template offsets -keep..keep per axis, stored at offset mod the FFT length
    offsets = [np.arange(-keep, keep + 1) for _, keep in _lattice_axes(lattice, shape)]
    wrapped = np.zeros(fft_shape)
    wrapped[np.ix_(*(o % size for o, size in zip(offsets, fft_shape)))] = \
        w[np.ix_(*(o + m for o, m in zip(offsets, lattice.ms)))]
    gather = np.ix_(*(p % size for p, size in zip(lattice.positions, fft_shape)))
    return _FFTBlock(np.conj(sp_fft.rfftn(wrapped)), gather,
                     _lattice_norm2(w, lattice.positions, shape), lattice.to_point)


def _lattice_norm2(w: np.ndarray, positions, shape) -> np.ndarray:
    """Squared norms of the in-buffer part of the centred template `w` at
    the outer product of integer `positions`, from a prefix table of w**2."""
    ms = [(k - 1) // 2 for k in w.shape]
    w2 = w * w
    for axis in range(w.ndim):
        w2 = np.cumsum(w2, axis=axis)
    prefix = np.zeros(tuple(k + 1 for k in w.shape))
    prefix[(slice(1, None),) * w.ndim] = w2
    # per axis, the prefix-table bounds (past the last in-buffer offset, first one)
    bounds = [(np.minimum(n - 1 - p, m) + m + 1, np.maximum(-p, -m) + m)
              for p, m, n in zip(positions, ms, shape)]
    norm2 = 0.0
    for corner in itertools.product((0, 1), repeat=w.ndim):
        corner = corner[::-1]  # in 2-D: hi,hi - lo,hi - hi,lo + lo,lo
        term = prefix[np.ix_(*(b[c] for b, c in zip(bounds, corner)))]
        norm2 = norm2 - term if sum(corner) % 2 else norm2 + term
    return norm2


def _direct_starts(n: int, a: float, bs: np.ndarray):
    """Per off-lattice translation in `bs` at scale `a`: the first sample
    of the atom's truncated support [lo, lo + width), and the start of its
    window of min(width, n) in-buffer samples."""
    lo = np.ceil(bs - KERNEL_RADIUS * a).astype(np.int64)
    width = int(2 * math.ceil(KERNEL_RADIUS * a)) + 2
    return lo, width, np.clip(lo, 0, n - min(width, n))


def _direct_kernel(n: int, mother, a: float, bs: np.ndarray) -> np.ndarray:
    """Kernel rows for off-lattice translations `bs` at scale `a` over their
    windows, zero outside each atom's truncated support."""
    lo, width, starts = _direct_starts(n, a, bs)
    idx = starts[:, None] + np.arange(min(width, n))
    (kernel,) = affine_jet(mother, bs[:, None], a, idx)
    kernel[(idx < lo[:, None]) | (idx >= lo[:, None] + width)] = 0.0
    return kernel


def _direct_block(n: int, mother, a: float, bs: np.ndarray, to_point) -> _DirectBlock:
    kernel = functools.partial(_direct_kernel, n, mother, a, bs)
    w = kernel()
    return _DirectBlock(kernel, _direct_starts(n, a, bs)[2], np.einsum("nl,nl->n", w, w),
                        to_point)


def _level_point(bs: np.ndarray, a: float, dictionary: Affine1DDictionary, k: int):
    return dictionary.point(float(bs[k]), float(a))


def _level_template(mother, a: float, m: int) -> np.ndarray:
    """The atom at b = 0 over offsets -m..m."""
    return affine_jet(mother, 0.0, a, np.arange(-m, m + 1, dtype=np.float64))[0]


def _affine_plan(dictionary: Affine1DDictionary, grid: TauAdicGrid) -> _SearchPlan:
    """One block per level: an FFT block where the level's translations sit
    on the integer sample lattice, a direct block otherwise."""
    if dictionary.shape != (grid.n,):
        raise ValueError(f"grid N={grid.n} does not match the dictionary's "
                         f"sample grid {dictionary.shape}")
    _check_grid_scales(dictionary, *grid.scale_span())
    n = grid.n
    mother = dictionary.mother
    entries = []
    for _, a, step, n_lo, n_hi in grid.levels():
        bs = np.arange(n_lo, n_hi + 1, dtype=np.float64) * step
        b_round = np.rint(bs)
        to_point = functools.partial(_level_point, bs, a)
        if (abs(step - round(step)) < _LATTICE_TOL
                and np.max(np.abs(bs - b_round)) < _LATTICE_TOL):
            # the template reaches every translation the grid keeps
            m = int(min(math.ceil(KERNEL_RADIUS * a), n + math.ceil(MASS_RADIUS * a)))
            entries.append(_Lattice((m,), [b_round.astype(np.int64)],
                                    functools.partial(_level_template, mother, a, m), to_point))
        else:
            entries.append(_direct_block(n, mother, a, bs, to_point))
    return _SearchPlan.build(dictionary.shape, entries)


def _slab_halfwidths(dictionary: Aniso2DDictionary, theta: float, a1: float, a2: float):
    """Template half-widths per axis: KERNEL_RADIUS widths, clipped to the image."""
    nx, ny = dictionary.shape
    ct, st = abs(math.cos(theta)), abs(math.sin(theta))
    h1 = KERNEL_RADIUS * (a1 * ct + a2 * st)
    h2 = KERNEL_RADIUS * (a1 * st + a2 * ct)
    return int(min(math.ceil(h1), nx - 1)), int(min(math.ceil(h2), ny - 1))


def _slab_template(dictionary: Aniso2DDictionary, theta: float, a1: float, a2: float,
                   m1: int, m2: int):
    """Atom template on integer pixel offsets within the half-widths: the
    atom centred at (m1, m2) on a (2*m1 + 1) x (2*m2 + 1) image."""
    coords = np.array([m1, m2, theta, a1, a2], dtype=np.float64)
    return dictionary._jet(coords, (2 * m1 + 1, 2 * m2 + 1), 0)[0]


def _slab_point(ny: int, slab, dictionary: Aniso2DDictionary, k: int):
    return dictionary.point(*(float(b) for b in divmod(k, ny)), *slab)


def _grid2d_plan(dictionary: Aniso2DDictionary, grid: Grid2DSpec) -> _SearchPlan:
    """One FFT block per slab over all pixel positions."""
    if dictionary.shape != (grid.nx, grid.ny):
        raise ValueError(f"grid ({grid.nx}, {grid.ny}) does not match the dictionary's "
                         f"sample grid {dictionary.shape}")
    scales = grid.scales()
    _check_grid_scales(dictionary, float(scales[0]), float(scales[-1]))
    positions = [np.arange(grid.nx), np.arange(grid.ny)]
    entries = []
    for slab in grid.slabs():
        ms = _slab_halfwidths(dictionary, *slab)
        entries.append(_Lattice(
            ms, positions, functools.partial(_slab_template, dictionary, *slab, *ms),
            functools.partial(_slab_point, grid.ny, slab)))
    return _SearchPlan.build(dictionary.shape, entries)


def _check_grid_scales(dictionary: Dictionary, lo: float, hi: float) -> None:
    d_lo, d_hi = dictionary.scale_range
    if lo < d_lo - 1e-12 or hi > d_hi + 1e-12:
        raise DomainError(f"grid scales [{lo}, {hi}] exceed dictionary domain "
                          f"[{d_lo}, {d_hi}]")


# ---------------------------------------------------------------------------
# The pursuit loop
# ---------------------------------------------------------------------------

def select(dictionary: Dictionary, residual: SignalBuffer, grid, config: PursuitConfig
           ) -> tuple[ParamPoint, float, ParamPoint | None, int]:
    """One pursuit selection on `residual`: (lam, score, seed, ascent_steps).

    dmp takes the grid argmax, with seed None and 0 steps. gmp runs the
    gradient ascent from the grid argmax, reports it as the seed with the
    ascent's accepted steps, and keeps the grid atom unless the refinement
    scores at least as high, so it never selects below the grid best (the
    ascent re-scores its seed with a different summation order than the
    search). A zero grid score skips the ascent.
    """
    k_best, s_grid = full_search(dictionary, residual, grid)
    if config.mode == "dmp" or s_grid <= 0:
        return k_best, s_grid, None, 0
    ascent = gradient_ascent(dictionary, residual, k_best, kappa=config.kappa, chi=config.chi)
    lam = ascent.lam if ascent.score >= s_grid else k_best
    return lam, max(ascent.score, s_grid), k_best, ascent.steps


def run(signal: SignalBuffer, dictionary: Dictionary, grid,
        config: PursuitConfig | None = None) -> Decomposition:
    """Greedy decomposition of `signal` over the grid.

    Per iteration: one `select` (full grid search, plus gradient-ascent
    refinement in gmp), then a residual update orthogonal to the chosen
    atom. Stops at `max_iterations`, when the residual energy falls below
    `energy_floor_rel` times the initial energy, or when the best score is
    exactly zero. A signal of another shape than the dictionary's raises.
    """
    dictionary.check_shape(signal.shape)
    config = config or PursuitConfig()
    residual = signal
    initial_energy = signal.energy()
    energy = initial_energy
    decomposition = Decomposition(initial_energy=initial_energy)
    for m in range(config.max_iterations):
        if energy <= config.energy_floor_rel * initial_energy:
            break
        lam, s, seed, ascent_steps = select(dictionary, residual, grid, config)
        if s <= 0:
            break  # residual orthogonal to the whole grid
        atom = dictionary.synthesize(lam)
        coeff = inner_product(atom, residual)
        if coeff == 0.0:
            break
        residual = SignalBuffer(residual.data - coeff * atom.data)
        energy = residual.energy()
        decomposition.steps.append(DecompositionStep(
            m=m, lam=np.array(lam.coords), coeff=coeff, score=coeff * coeff,
            residual_energy=energy,
            seed=None if seed is None else np.array(seed.coords),
            ascent_steps=ascent_steps))
    decomposition.final_residual = residual
    return decomposition


def reconstruct(decomposition: Decomposition, dictionary: Dictionary,
                shape=None) -> SignalBuffer:
    """Sum of coefficient-weighted atoms recorded in the decomposition, on
    the dictionary's sample grid (zeros for no steps). A `shape` other than
    the dictionary's raises ValueError."""
    if shape is not None:
        dictionary.check_shape(shape)
    acc = np.zeros(dictionary.shape)
    for step in decomposition.steps:
        lam = ParamPoint(step.lam, dictionary.kinds)
        acc += step.coeff * dictionary.synthesize(lam).data
    return SignalBuffer(acc)
