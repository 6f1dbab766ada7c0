"""Pursuit engines: greedy decomposition over a discrete parameter grid,
with optional manifold gradient-ascent refinement of the selected atom.

Each iteration scores the residual against the whole grid (FFT
cross-correlation along translation axes where the translations sit on the
integer sample lattice, windowed direct evaluation otherwise), subtracts
the best atom, and records the step. In `gmp` mode the best grid atom
seeds a gradient ascent on the parameter manifold before subtraction.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import fftconvolve

from .affine1d import Affine1DDictionary, TauAdicGrid
from .aniso2d import Aniso2DDictionary, Grid2DSpec
from .core import SignalBuffer, inner_product
from .dictionaries import Dictionary, DomainError, ParamPoint
from .geometry import DegenerateMetricError, metric

# Kernel truncation radius in mother widths; values beyond are below 1e-18
# of the peak and invisible at the search tolerance.
KERNEL_RADIUS = 10.0

# Matches the grid's mass-intersection rule for boundary translations.
MASS_REACH = 4.0

_LATTICE_TOL = 1e-10


@dataclass(frozen=True)
class PursuitConfig:
    """Knobs for a pursuit run.

    Selection is the exact grid argmax (weak matching pursuit with weakness
    factor 1). kappa/chi/max_halvings/grad_stop_ratio drive the gradient
    ascent in gmp mode; optimize_scope says which grid atoms seed it.
    """

    mode: str = "dmp"
    kappa: int = 10
    chi: float = 0.1
    max_halvings: int = 10
    grad_stop_ratio: float = 1e-6
    max_iterations: int = 100
    optimize_scope: str = "best_only"
    energy_floor_rel: float = 1e-12

    def __post_init__(self):
        if self.mode not in ("dmp", "gmp"):
            raise ValueError(f"mode must be 'dmp' or 'gmp', got {self.mode!r}")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if not self.chi > 0:
            raise ValueError("chi must be positive")
        if self.optimize_scope not in ("best_only", "all_atoms"):
            raise ValueError(f"bad optimize_scope {self.optimize_scope!r}")


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
    shape: tuple = ()
    mode: str = "dmp"
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
    def from_jsonl(cls, path, initial_energy: float | None = None,
                   shape=()) -> "Decomposition":
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
        return cls(steps=steps, initial_energy=initial_energy, shape=tuple(shape))

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
    return inner_product(dictionary.synthesize(lam, residual.shape), residual) ** 2


@dataclass(frozen=True)
class ScoreGradient:
    score: float
    partial: np.ndarray   # d_i of the score
    grad: np.ndarray      # metric-raised gradient G^(ij) d_j
    grad_norm: float      # manifold norm of the gradient


def gradient(dictionary: Dictionary, residual: SignalBuffer, lam: ParamPoint) -> ScoreGradient:
    """Score value, coordinate partials, and manifold gradient at `lam`."""
    g = metric(dictionary, lam, residual.shape)
    atom = dictionary.synthesize(lam, residual.shape)
    parts = dictionary.partials(lam, residual.shape)
    corr = inner_product(atom, residual)
    partial = np.array([2.0 * corr * inner_product(p, residual) for p in parts])
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
                    kappa: int = 10, chi: float = 0.1, max_halvings: int = 10,
                    grad_stop_ratio: float = 1e-6) -> AscentResult:
    """Step-halving gradient ascent of the score on the parameter manifold.

    Moves along the normalized manifold gradient with initial step `chi`,
    halving on failure to increase the score (up to `max_halvings` times,
    then the ascent stops). Counts accepted steps against `kappa`; also
    stops early when |grad| / score drops below `grad_stop_ratio`. Never
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
        if info.grad_norm <= grad_stop_ratio * info.score:
            reason = "gradient"
            break
        direction = info.grad / info.grad_norm
        t = chi
        accepted = False
        for _ in range(max_halvings + 1):
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
    where to_point(k) is the parameter point scored by scores[k]. Yields
    nothing for an empty grid.
    """
    if isinstance(grid, TauAdicGrid) and isinstance(dictionary, Affine1DDictionary):
        yield from _affine_level_scores(dictionary, residual, grid)
    elif isinstance(grid, Grid2DSpec) and isinstance(dictionary, Aniso2DDictionary):
        yield from _grid2d_slab_scores(dictionary, residual, grid)
    else:
        points = list(grid.points() if hasattr(grid, "points") else grid)
        if points:
            yield (np.array([score(dictionary, residual, lam) for lam in points]),
                   points.__getitem__)


def _level_scores_fft(u: np.ndarray, mother, a: float, b_int: np.ndarray):
    """Correlations and in-bounds atom norms at integer-lattice translations."""
    n = u.size
    m = int(min(math.ceil(KERNEL_RADIUS * a), n + math.ceil(MASS_REACH * a)))
    offsets = np.arange(-m, m + 1, dtype=np.float64)
    w = mother.value(offsets / a) / math.sqrt(a)
    corr_full = fftconvolve(u, w[::-1], mode="full")
    corr = corr_full[b_int + m]
    prefix = np.concatenate(([0.0], np.cumsum(w * w)))
    lo = np.maximum(-b_int, -m) + m
    hi = np.minimum(n - 1 - b_int, m) + m
    norm2 = prefix[hi + 1] - prefix[lo]
    return corr, norm2


def _level_scores_direct(u: np.ndarray, mother, a: float, bs: np.ndarray):
    """Windowed direct correlations for off-lattice translations."""
    n = u.size
    reach = KERNEL_RADIUS * a
    lo = np.ceil(bs - reach).astype(np.int64)
    width = int(2 * math.ceil(reach)) + 2
    idx = lo[:, None] + np.arange(width)
    valid = (idx >= 0) & (idx < n)
    svals = (idx - bs[:, None]) / a
    w = mother.value(svals) / math.sqrt(a)
    w[~valid] = 0.0
    uw = u[np.clip(idx, 0, n - 1)]
    corr = np.einsum("nl,nl->n", w, uw)
    norm2 = np.einsum("nl,nl->n", w, w)
    return corr, norm2


def _affine_level_scores(dictionary: Affine1DDictionary, residual: SignalBuffer,
                         grid: TauAdicGrid):
    """Per-level score blocks, FFT where the level's translations sit on
    the integer sample lattice."""
    if residual.ndim != 1 or residual.shape[0] != grid.n:
        raise ValueError(f"residual shape {residual.shape} does not match grid N={grid.n}")
    _check_grid_scales(dictionary, *grid.scale_span())
    u = residual.data
    mother = dictionary.mother
    for _, a, step, n_lo, n_hi in grid.levels():
        bs = np.arange(n_lo, n_hi + 1, dtype=np.float64) * step
        b_round = np.rint(bs)
        if (abs(step - round(step)) < _LATTICE_TOL
                and np.max(np.abs(bs - b_round)) < _LATTICE_TOL):
            corr, norm2 = _level_scores_fft(u, mother, a, b_round.astype(np.int64))
        else:
            corr, norm2 = _level_scores_direct(u, mother, a, bs)
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = np.where(norm2 > 0, corr * corr / norm2, 0.0)
        yield scores, lambda k, bs=bs, a=a: dictionary.point(float(bs[k]), float(a))


def _slab_template(dictionary: Aniso2DDictionary, theta: float, a1: float, a2: float):
    """Atom template on integer pixel offsets, truncated where negligible."""
    nx, ny = dictionary.shape
    ct, st = math.cos(theta), math.sin(theta)
    h1 = KERNEL_RADIUS * (a1 * abs(ct) + a2 * abs(st))
    h2 = KERNEL_RADIUS * (a1 * abs(st) + a2 * abs(ct))
    m1 = int(min(math.ceil(h1), nx - 1))
    m2 = int(min(math.ceil(h2), ny - 1))
    d1 = np.arange(-m1, m1 + 1, dtype=np.float64)[:, None]
    d2 = np.arange(-m2, m2 + 1, dtype=np.float64)[None, :]
    uu = (ct * d1 + st * d2) / a1
    vv = (-st * d1 + ct * d2) / a2
    w = dictionary._mother_uv(uu, vv) / math.sqrt(a1 * a2)
    return w, m1, m2


def _slab_norm2(w2_prefix: np.ndarray, m1: int, m2: int, nx: int, ny: int):
    """In-bounds squared norms for every position via 2-D prefix sums."""
    b1 = np.arange(nx)
    b2 = np.arange(ny)
    lo1 = m1 - np.minimum(b1, m1)
    hi1 = np.minimum(nx - 1 - b1, m1) + m1
    lo2 = m2 - np.minimum(b2, m2)
    hi2 = np.minimum(ny - 1 - b2, m2) + m2
    S = w2_prefix
    return (S[np.ix_(hi1 + 1, hi2 + 1)] - S[np.ix_(lo1, hi2 + 1)]
            - S[np.ix_(hi1 + 1, lo2)] + S[np.ix_(lo1, lo2)])


def _grid2d_slab_scores(dictionary: Aniso2DDictionary, residual: SignalBuffer,
                        grid: Grid2DSpec):
    """Per-slab score blocks over all pixel positions, row-major."""
    if residual.shape != (grid.nx, grid.ny):
        raise ValueError(f"residual shape {residual.shape} does not match grid "
                         f"({grid.nx}, {grid.ny})")
    scales = grid.scales()
    _check_grid_scales(dictionary, float(scales[0]), float(scales[-1]))
    u = residual.data
    nx, ny = grid.nx, grid.ny
    for slab in grid.slabs():
        w, m1, m2 = _slab_template(dictionary, *slab)
        corr_full = fftconvolve(u, w[::-1, ::-1], mode="full")
        corr = corr_full[m1:m1 + nx, m2:m2 + ny]
        w2 = w * w
        prefix = np.zeros((w2.shape[0] + 1, w2.shape[1] + 1))
        prefix[1:, 1:] = np.cumsum(np.cumsum(w2, axis=0), axis=1)
        norm2 = _slab_norm2(prefix, m1, m2, nx, ny)
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = np.where(norm2 > 0, corr * corr / norm2, 0.0)
        yield scores.ravel(), lambda k, slab=slab: dictionary.point(
            *(float(b) for b in divmod(k, ny)), *slab)


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
    gradient ascent from the grid argmax ("best_only") or from every grid
    atom ("all_atoms"; ties go to the earliest seed), reports the best
    refinement's seed and accepted steps, and keeps the grid atom unless
    that refinement scores at least as high, so it never selects below the
    grid best (the ascent re-scores its seed with a different summation
    order than the search). A zero grid score skips the ascent.
    """
    k_best, s_grid = full_search(dictionary, residual, grid)
    if config.mode == "dmp" or s_grid <= 0:
        return k_best, s_grid, None, 0
    seeds = [k_best] if config.optimize_scope == "best_only" else grid.points()
    best = best_seed = None
    for seed in seeds:
        result = gradient_ascent(dictionary, residual, seed,
                                 kappa=config.kappa, chi=config.chi,
                                 max_halvings=config.max_halvings,
                                 grad_stop_ratio=config.grad_stop_ratio)
        if best is None or result.score > best.score:
            best, best_seed = result, seed
    lam = best.lam if best.score >= s_grid else k_best
    return lam, max(best.score, s_grid), best_seed, best.steps


def run(signal: SignalBuffer, dictionary: Dictionary, grid,
        config: PursuitConfig | None = None) -> Decomposition:
    """Greedy decomposition of `signal` over the grid.

    Per iteration: one `select` (full grid search, plus gradient-ascent
    refinement in gmp), then a residual update orthogonal to the chosen
    atom. Stops at `max_iterations`, when the residual energy falls below
    `energy_floor_rel` times the initial energy, or when the best score is
    exactly zero.
    """
    config = config or PursuitConfig()
    residual = signal
    initial_energy = signal.energy()
    energy = initial_energy
    decomposition = Decomposition(initial_energy=initial_energy,
                                  shape=signal.shape, mode=config.mode)
    for m in range(config.max_iterations):
        if energy <= config.energy_floor_rel * initial_energy:
            break
        lam, s, seed, ascent_steps = select(dictionary, residual, grid, config)
        if s <= 0:
            break  # residual orthogonal to the whole grid
        atom = dictionary.synthesize(lam, residual.shape)
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
    """Sum of coefficient-weighted atoms recorded in the decomposition."""
    shape = tuple(shape) if shape else tuple(decomposition.shape)
    if not shape:
        raise ValueError("no target shape available")
    acc = np.zeros(shape)
    for step in decomposition.steps:
        lam = ParamPoint(step.lam, dictionary.kinds)
        acc += step.coeff * dictionary.synthesize(lam, shape).data
    return SignalBuffer(acc)
