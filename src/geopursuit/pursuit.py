"""Pursuit engines: greedy decomposition over a discrete parameter grid,
with optional manifold gradient-ascent refinement of the selected atom.

Each iteration finds the best atom of the whole grid, subtracts it, and
records the step. The search works from a plan built once per dictionary
and grid, of one of two kinds, which `_search_plan` alone chooses. A slab
plan scores a 2-D grid over the anisotropic dictionary whole, one FFT
cross-correlation per slab. A window plan scores a tau-adic grid over the
affine dictionary on residual windows, by an exact branch and bound: an
atom's upper bound is the residual energy in its window (from one prefix
sum of the squared residual), and a level scores only the translations
whose bound can still reach the best. A level on the integer sample
lattice scores them with its one centred template; a level off it builds
each kernel row at its first use and keeps it for the plan's life. A plan
holds only what does not depend on the residual: each search allocates its
own padded residual, or its spectrum and FFT scratch. In
`gmp` mode the best grid atom seeds a gradient ascent on the parameter
manifold before subtraction.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .affine1d import MASS_RADIUS, Affine1DDictionary, TauAdicGrid, affine_jet
from .aniso2d import Aniso2DDictionary, Grid2DSpec
from .core import SignalBuffer, inner_product
from .dictionaries import Dictionary, DomainError, ParamPoint, spec_number
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
        for name in ("kappa", "max_iterations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        if not 0 < self.chi < math.inf:
            raise ValueError(f"chi must be positive and finite, got {self.chi!r}")
        if not 0 <= self.energy_floor_rel < math.inf:
            raise ValueError("energy_floor_rel must be finite and nonnegative, "
                             f"got {self.energy_floor_rel!r}")


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
        """The step of a `to_record` dict; a missing or malformed key raises
        ValueError naming it. Values are JSON numbers as `spec_number` reads
        them: `m` and `ascent_steps` integral, the rest (and every entry of
        `lambda` and `seed_lambda`) finite; all but `coeff` and the points
        nonnegative."""
        if not isinstance(rec, dict):
            raise ValueError(f"expected a JSON object, got {type(rec).__name__}")

        def value(key, parse):
            if key not in rec:
                raise ValueError(f"missing key {key!r}")
            try:
                return parse(rec[key])
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"malformed {key!r}: {rec[key]!r}") from None

        def nonnegative(x):
            if x < 0:
                raise ValueError
            return x

        def count(v):
            return nonnegative(spec_number([v], 0, integral=True))

        def real(v):
            return float(spec_number([v], 0, finite=True))

        def energy(v):
            return nonnegative(real(v))

        def reals(v):
            if not isinstance(v, list):
                raise TypeError
            return np.array([real(x) for x in v])

        return cls(m=value("m", count), lam=value("lambda", reals),
                   coeff=value("coeff", real), score=value("score", energy),
                   residual_energy=value("residual_energy", energy),
                   seed=value("seed_lambda", lambda v: None if v is None else reals(v)),
                   ascent_steps=value("ascent_steps", count))


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
    def from_steps(cls, steps: list) -> "Decomposition":
        """The decomposition of recorded `steps`. The initial energy is
        recovered from the first step as residual_energy + coeff**2 (the
        energy the step removed from the signal); no steps give 0.0."""
        initial_energy = steps[0].residual_energy + steps[0].coeff ** 2 if steps else 0.0
        return cls(steps=steps, initial_energy=initial_energy)

    @classmethod
    def from_jsonl(cls, path) -> "Decomposition":
        """Read steps written by `to_jsonl`; a line that is not such a step
        raises ValueError naming the file and the line."""
        return cls.from_steps([step for _, step in jsonl_steps(path)])

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


def jsonl_steps(path):
    """(line number, step) for each non-blank line of a `to_jsonl` file,
    split where text mode splits lines; a line that is not a step in UTF-8
    raises ValueError naming the file and the line."""
    for number, line in enumerate(Path(path).read_bytes().splitlines(), 1):
        try:
            line = line.decode().strip()
            if line:
                yield number, DecompositionStep.from_record(json.loads(line))
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from None


def score(dictionary: Dictionary, residual: SignalBuffer, lam: ParamPoint) -> float:
    """Squared correlation of the residual with the atom at `lam`."""
    return _correlation(dictionary.jet(lam)[0], residual) ** 2


def _correlation(atom: np.ndarray, residual: SignalBuffer) -> float:
    """<atom, residual>, the float `inner_product` gives, for a jet's atom,
    which is read-only and finite already: no buffer is built around it."""
    if atom.shape != residual.shape:
        raise ValueError(f"shape mismatch: {atom.shape} vs {residual.shape}")
    return float(np.dot(atom.ravel(), residual.data.ravel()))


@dataclass(frozen=True)
class ScoreGradient:
    score: float
    partial: np.ndarray   # d_i of the score
    grad: np.ndarray      # metric-raised gradient G^(ij) d_j
    grad_norm: float      # manifold norm of the gradient


def gradient(dictionary: Dictionary, residual: SignalBuffer, lam: ParamPoint) -> ScoreGradient:
    """Score value, coordinate partials, and manifold gradient at `lam`."""
    g = metric(dictionary, lam)
    # metric() just took the order-1 jet at lam: both calls below read its memo
    atom = dictionary.jet(lam)[0]
    parts = dictionary.partials(lam)
    corr = _correlation(atom, residual)
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
    lam = dictionary.clamp_coords(lam0.coords)
    s = score(dictionary, residual, lam)
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
    # accepted steps only raise s, so (lam, s) is the best point after the seed
    if s <= s0:
        lam, s = lam0, s0
    return AscentResult(lam=lam, score=s, steps=steps, reason=reason)


# ---------------------------------------------------------------------------
# Full search over a grid
# ---------------------------------------------------------------------------

def full_search(dictionary: Dictionary, residual: SignalBuffer, grid):
    """Exact argmax of the score over the grid.

    Equivalent to scoring every grid atom; ties break toward the smallest
    enumeration index. Returns (best point, best score).
    """
    plan = _search_plan(dictionary, residual, grid)
    best, index = plan.argmax(residual.data)
    positions, others = plan.factors
    s, p = divmod(index, len(positions))
    return ParamPoint(np.concatenate([positions[p], others[s]])), best


def grid_scores(dictionary: Dictionary, residual: SignalBuffer, grid) -> np.ndarray:
    """Scores of every grid atom, in enumeration order.

    Diagnostic companion to full_search; uses the same scoring machinery
    but scores every atom, so it also serves to audit the fast paths and
    the search's pruning atom by atom.
    """
    plan = _search_plan(dictionary, residual, grid)
    transform = plan.transform(residual.data)
    return np.concatenate([block.scores(transform) for block in plan.blocks])


def _search_plan(dictionary: Dictionary, residual: SignalBuffer, grid):
    """The grid's search plan, built on first use.

    The only place that branches on grid and dictionary type: a tau-adic
    grid over an affine dictionary and a 2-D grid over an anisotropic one
    are planned, and any other pair raises TypeError. A residual whose
    shape is not the dictionary's raises ValueError first: the search
    would pad or truncate it. A new plan checks the grid once: its shape
    against the dictionary's (ValueError), its scale span against the
    scale range (DomainError).
    """
    dictionary.check_shape(residual.shape)
    if isinstance(grid, TauAdicGrid) and isinstance(dictionary, Affine1DDictionary):
        plan = _WindowPlan
    elif isinstance(grid, Grid2DSpec) and isinstance(dictionary, Aniso2DDictionary):
        plan = _SlabPlan
    else:
        raise TypeError(f"no grid search plan for a {type(grid).__name__} grid with "
                        f"a {type(dictionary).__name__}")
    plans = _PLANS.setdefault(dictionary, {})
    if grid not in plans:
        dictionary.check_shape(grid.shape)
        dictionary.check_scales(grid.scale_span(), problem="of the grid outside")
        plans[grid] = plan.build(dictionary, grid)
    return plans[grid]


def _scores(corr: np.ndarray, norm2: np.ndarray) -> np.ndarray:
    """Flat corr**2 / norm2, with 0 where the atom has no samples in the
    buffer, computed in place in `corr`, which must be a fresh array."""
    positive = norm2 > 0
    corr *= corr
    np.divide(corr, norm2, out=corr, where=positive)
    corr[~positive] = 0.0
    return corr.ravel()


# Search plans per dictionary, keyed by grid. A plan holds no reference to
# its dictionary, so it is freed with it.
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# Pruning margin relative to the residual energy, which bounds every score:
# far above the rounding of the prefix-sum bounds and of the scores.
_BOUND_MARGIN = 1e-9


@dataclass(frozen=True)
class _FFTBlock:
    """A 2-D slab: its centred template's conjugate spectrum wrapped to the
    plan's real-FFT shape, and the in-buffer squared norm at every pixel."""

    conj: np.ndarray
    norm2: np.ndarray

    def scores(self, transform):
        return _scores(self.correlate(transform), self.norm2)

    def correlate(self, transform) -> np.ndarray:
        """The inverse FFT of u_hat * conj at every pixel, as a fresh array,
        from a search's `transform`: the spectrum u_hat and the product and
        inverse buffers it overwrites."""
        u_hat, product, inverse = transform
        nx, ny = self.norm2.shape
        np.multiply(u_hat, self.conj, out=product)
        # irfftn's passes in its order, all unscaled, then one scaling by
        # 1/prod(shape), where pocketfft's irfftn applies it, so the floats
        # are its floats for any lengths; the real pass reads only the
        # leading rows, the pixel rows
        np.fft.ifft(product, axis=0, norm="forward", out=product)
        np.fft.irfft(product[:nx], inverse.shape[-1], norm="forward", out=inverse[:nx])
        return inverse[:nx, :ny] * (1.0 / inverse.size)

    @classmethod
    def build(cls, dictionary: Aniso2DDictionary, slab, ms, fft_shape) -> "_FFTBlock":
        w = _template(dictionary, slab, ms)
        # template offsets -m..m per axis, stored at offset mod the FFT length
        wrapped = np.zeros(fft_shape)
        wrapped[np.ix_(*(np.arange(-m, m + 1) % k for m, k in zip(ms, fft_shape)))] = w
        return cls(np.conj(np.fft.rfftn(wrapped)), _slab_norm2(w, dictionary.shape))


@dataclass(frozen=True)
class _LatticeBlock:
    """A 1-D level on the integer lattice: its centred template `w`, of
    2m + 1 samples, scores the window [b - m, b + m] of each integer
    position b. The positions are `step` samples apart, so a run of
    consecutive rows reads its windows as one strided view of the padded
    residual, with no copy. `norm2` holds each position's in-buffer squared
    norm, a sum of the template's squares at its in-buffer samples: unlike
    a difference of prefix sums, it cannot cancel when only a far tail is
    inside."""

    starts: np.ndarray
    length: int
    step: int
    w: np.ndarray
    norm2: np.ndarray

    def scores(self, u, rows=slice(None)):
        (stride,) = u.strides
        windows = as_strided(u[self.starts[0]:], (self.starts.size, self.length),
                             (self.step * stride, stride), writeable=False)
        rows = np.arange(self.starts.size)[rows]
        # the runs of consecutive rows, each a slice of the windows
        cuts = [0, *(np.flatnonzero(np.diff(rows) != 1) + 1).tolist(), rows.size]
        row = rows.tolist()
        corr = [np.vecdot(windows[row[i]:row[j - 1] + 1], self.w)
                for i, j in zip(cuts, cuts[1:])]
        return _scores(np.concatenate(corr), self.norm2[rows])

    @classmethod
    def build(cls, dictionary: Affine1DDictionary, a: float, bs: np.ndarray, m: int,
              pad: int) -> "_LatticeBlock":
        w = _template(dictionary, (a,), (m,))
        samples = bs[:, None] + np.arange(-m, m + 1)
        inside = (samples >= 0) & (samples < dictionary.shape[0])
        step = int(bs[1] - bs[0]) if bs.size > 1 else 1
        return cls(bs - m + pad, w.size, step, w, np.vecdot(inside, w * w))


@dataclass(frozen=True)
class _DirectBlock:
    """An off-lattice 1-D level of `mother` at scale `a` and translations
    `bs`, in a buffer of n samples.

    `kernel_rows` maps a translation's index to its kernel row and the
    row's squared norm, for every row a search has asked for. A row depends
    only on n, the mother, a and b, so it is built once, at its first use,
    and later searches read the same floats; the plan build builds none.
    The cache only grows, and it is freed with the plan. At worst it holds
    every direct row of the grid, which one `grid_scores` call reaches:
    0.91 M samples, 7.2 MB, on the n=8192
    `experiment_grid(b0=2, log2_tau=0.5)` grid.
    """

    starts: np.ndarray
    length: int
    n: int
    mother: object
    a: float
    bs: np.ndarray
    kernel_rows: dict = field(default_factory=dict, repr=False, compare=False)

    def scores(self, u, rows=slice(None)):
        rows = np.arange(self.bs.size)[rows]
        new = [r for r in rows.tolist() if r not in self.kernel_rows]
        if new:
            kernel = _direct_kernel(self.n, self.mother, self.a, self.bs[new])
            kernel.setflags(write=False)
            norm2 = np.vecdot(kernel, kernel).tolist()
            self.kernel_rows.update(zip(new, zip(kernel, norm2)))
        kernel, norm2 = zip(*map(self.kernel_rows.__getitem__, rows.tolist()))
        corr = [np.dot(w, u[s:s + self.length])
                for w, s in zip(kernel, self.starts[rows].tolist())]
        return _scores(np.array(corr), np.array(norm2))

    @classmethod
    def build(cls, dictionary: Affine1DDictionary, a: float, bs: np.ndarray,
              pad: int) -> "_DirectBlock":
        (n,) = dictionary.shape
        _, _, starts, length = _direct_windows(n, a, bs)
        return cls(starts + pad, length, n, dictionary.mother, a, bs)


@dataclass(frozen=True)
class _WindowPlan:
    """The search plan of a tau-adic grid over an affine dictionary: a block
    per level, in enumeration order, each block's first enumeration index,
    and the grid's `factors()`, which map an index to its point. A block
    scores row r on the window [starts[r], starts[r] + length) of the
    residual zero-padded by `pad` samples at each end, by one dot product
    per row: unlike a matrix product's, a row's float does not depend on
    which rows share the call. The plan holds no buffers: each search pads
    its own residual, and the scores it returns are fresh arrays."""

    pad: int
    blocks: list
    offsets: list
    factors: tuple

    def transform(self, u: np.ndarray) -> np.ndarray:
        """What one search hands its blocks: `u` zero-padded."""
        return np.pad(u, self.pad)

    def bounds(self, u_pad: np.ndarray) -> list:
        """Upper bounds on the scores of every translation, one array per
        block: the energy of the padded residual `u_pad` in each row's
        window, which bounds (sum u w)**2 / |w|**2 by Cauchy-Schwarz, as the
        difference of two entries of one prefix sum of u_pad**2."""
        prefix = np.zeros(u_pad.size + 1)
        np.cumsum(u_pad * u_pad, out=prefix[1:])
        return [prefix[b.starts + b.length] - prefix[b.starts] for b in self.blocks]

    def argmax(self, u: np.ndarray) -> tuple[float, int]:
        """(score, enumeration index) of the grid's first best atom.
        Scores, block by descending largest bound, only the translations
        whose bound reaches the running best, or a threshold set first from
        the score of the first block's largest-bound row. A skipped atom
        scores below the best, and a row's score does not depend on the rows
        scored with it, so the result is the exhaustive one, bit for bit."""
        u_pad = self.transform(u)
        bounds = self.bounds(u_pad)
        order = sorted(range(len(bounds)), key=lambda i: -bounds[i].max())
        # a threshold before the first block is scored, from its largest-bound
        # row; never the best, which comes only from scoring passing rows
        first, top = order[0], int(np.argmax(bounds[order[0]]))
        threshold = float(self.blocks[first].scores(u_pad, [top])[0])
        margin = _BOUND_MARGIN * float(np.vdot(u, u))
        best = (-math.inf, 0)  # (score, -index): the max is the first best
        for i in order:
            rows = np.flatnonzero(bounds[i] >= max(best[0], threshold) - margin)
            if not rows.size:
                break  # the blocks left have lower bounds still
            scores = self.blocks[i].scores(u_pad, rows)
            j = int(np.argmax(scores))
            best = max(best, (float(scores[j]), -self.offsets[i] - int(rows[j])))
        return best[0], -best[1]

    @classmethod
    def build(cls, dictionary: Affine1DDictionary, grid: TauAdicGrid) -> "_WindowPlan":
        """One block per level, one template at a time: a lattice block
        where the level's translations sit on the integer sample lattice,
        a direct block where they do not."""
        (n,) = dictionary.shape
        pad, builds = 0, []
        for _, a, step, n_lo, n_hi in grid.levels():
            bs = np.arange(n_lo, n_hi + 1, dtype=np.float64) * step
            b_round = np.rint(bs)
            if (abs(step - round(step)) < _LATTICE_TOL
                    and np.max(np.abs(bs - b_round)) < _LATTICE_TOL):
                # the template reaches every translation the grid keeps
                m = int(min(math.ceil(KERNEL_RADIUS * a), n + math.ceil(MASS_RADIUS * a)))
                bs = b_round.astype(np.int64)
                # the padding holds every lattice window [b - m, b + m]
                pad = max(pad, m + max(-int(bs.min()), int(bs.max()) - (n - 1)))
                builds.append(functools.partial(_LatticeBlock.build, dictionary, a, bs, m))
            else:
                # a direct window lies in the buffer
                builds.append(functools.partial(_DirectBlock.build, dictionary, a, bs))
        blocks = [build(pad=pad) for build in builds]
        offsets = list(itertools.accumulate((b.starts.size for b in blocks[:-1]), initial=0))
        return cls(pad, blocks, offsets, grid.factors())


@dataclass(frozen=True)
class _SlabPlan:
    """The search plan of a 2-D grid over an anisotropic dictionary: one FFT
    block per slab, in enumeration order, at one real-FFT shape, and the
    grid's `factors()`, which map an index to its point. Every slab scores
    every pixel, so the first atom of slab i has index i * nx * ny.

    A plan holds no buffers: each search takes its own `transform`, and the
    scores it returns are fresh arrays."""

    fft_shape: tuple
    blocks: list
    factors: tuple

    def transform(self, u: np.ndarray):
        """What one search hands its blocks: (u_hat, product, inverse), the
        spectrum of `u` zero-padded to the FFT shape and a product and an
        inverse buffer that every block of the search overwrites in turn."""
        u_hat = np.fft.rfftn(u, s=self.fft_shape, axes=(0, 1))
        return u_hat, np.empty_like(u_hat), np.empty(self.fft_shape)

    def argmax(self, u: np.ndarray) -> tuple[float, int]:
        """(score, enumeration index) of the grid's first best atom, from
        the scores of every atom."""
        transform = self.transform(u)
        best = (-math.inf, 0)  # (score, -index): the max is the first best
        for i, block in enumerate(self.blocks):
            scores = block.scores(transform)
            k = int(np.argmax(scores))
            best = max(best, (float(scores[k]), -i * scores.size - k))
        return best[0], -best[1]

    @classmethod
    def build(cls, dictionary: Aniso2DDictionary, grid: Grid2DSpec) -> "_SlabPlan":
        """One FFT block per slab, one template at a time."""
        slabs = list(grid.slabs())
        ms = [_slab_halfwidths(dictionary, *slab) for slab in slabs]
        # at n + m samples per axis, template offsets -m..m (m < n) never
        # wrap onto a pixel position
        fft_shape = tuple(_next_fast_len(n + max(axis_ms))
                          for n, axis_ms in zip(dictionary.shape, zip(*ms)))
        blocks = [_FFTBlock.build(dictionary, slab, m, fft_shape) for slab, m in zip(slabs, ms)]
        return cls(fft_shape, blocks, grid.factors())


def _next_fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= n: the real-FFT lengths that
    pocketfft transforms fastest."""
    best = 1 << (n - 1).bit_length()  # the power of two in [n, 2n)
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _slab_norm2(w: np.ndarray, shape) -> np.ndarray:
    """Squared norms of the in-buffer part of the centred 2-D template `w`
    at every pixel of a buffer of `shape`, from a prefix table of w**2."""
    ms = [(k - 1) // 2 for k in w.shape]
    # per axis and pixel p, the template indices [lo, hi) of the in-buffer part
    (hi0, lo0), (hi1, lo1) = [(np.minimum(n - 1 - p, m) + m + 1, np.maximum(-p, -m) + m)
                              for m, n in zip(ms, shape) for p in [np.arange(n)]]
    prefix = np.zeros(tuple(k + 1 for k in w.shape))
    prefix[1:, 1:] = np.cumsum(np.cumsum(w * w, axis=0), axis=1)
    return (prefix[np.ix_(hi0, hi1)] - prefix[np.ix_(lo0, hi1)] - prefix[np.ix_(hi0, lo1)]
            + prefix[np.ix_(lo0, lo1)])


def _direct_windows(n: int, a: float, bs: np.ndarray):
    """For off-lattice translations `bs` at scale `a`: each atom's truncated
    support [lo, lo + width), and its residual window [start, start +
    length), the min(width, n) in-buffer samples that hold the support's
    in-buffer part. Returns (lo, width, starts, length)."""
    lo = np.ceil(bs - KERNEL_RADIUS * a).astype(np.int64)
    width = int(2 * math.ceil(KERNEL_RADIUS * a)) + 2
    length = min(width, n)
    return lo, width, np.clip(lo, 0, n - length), length


def _direct_kernel(n: int, mother, a: float, bs: np.ndarray) -> np.ndarray:
    """Kernel rows for off-lattice translations `bs` at scale `a` over their
    `_direct_windows`, zero outside the support."""
    lo, width, starts, length = _direct_windows(n, a, bs)
    idx = starts[:, None] + np.arange(length)
    (kernel,), _ = affine_jet(mother, bs[:, None], a, idx)
    kernel[(idx < lo[:, None]) | (idx >= lo[:, None] + width)] = 0.0
    return kernel


def _template(dictionary: Dictionary, others, ms) -> np.ndarray:
    """The dictionary's own raw atom at the non-translation coordinates
    `others`, centred on a canvas of 2m + 1 samples per axis for the
    half-widths `ms`: every lattice template, 1-D level or 2-D slab."""
    coords = np.array([*ms, *others], dtype=np.float64)
    return dictionary._jet(coords, tuple(2 * m + 1 for m in ms), 0, 0, None)[0][0]


def _slab_halfwidths(dictionary: Aniso2DDictionary, theta: float, a1: float, a2: float):
    """Template half-widths per axis: KERNEL_RADIUS widths, clipped to the image."""
    nx, ny = dictionary.shape
    ct, st = abs(math.cos(theta)), abs(math.sin(theta))
    h1 = KERNEL_RADIUS * (a1 * ct + a2 * st)
    h2 = KERNEL_RADIUS * (a1 * st + a2 * ct)
    return int(min(math.ceil(h1), nx - 1)), int(min(math.ceil(h2), ny - 1))


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
    exactly zero. A signal of another shape than the dictionary's, or a grid
    and dictionary pair that the search does not plan, raises before any step.
    """
    _search_plan(dictionary, signal, grid)
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
        lam = ParamPoint(step.lam)
        acc += step.coeff * dictionary.synthesize(lam).data
    return SignalBuffer(acc)
