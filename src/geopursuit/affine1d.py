"""1-D affine (wavelet-like) dictionary: translated and dilated mother atoms.

Atoms take the form g_(b,a)(t) = a^(-1/2) g((t-b)/a) before boundary
renormalization, with a Mexican Hat mother by default. A mother is one
`jet`: its profile and, up to order 2, its derivatives from a single
exponential. `affine_jet` calls it once and is the one evaluation of the
atom formula, with its partials, for both 1-D dictionaries and the grid
search's templates. Grids are tau-adic:
k_(j,n) = (n*b0*tau^j, a0*tau^j).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dictionaries import SCALE, TRANSLATION, Dictionary, ParamPoint, spec_number

# Atom mass within 4 standard widths is treated as "intersecting" the
# signal: grid translations near the boundary, the search template's reach
# and the clamp of b all stop at MASS_RADIUS * a outside the buffer.
MASS_RADIUS = 4.0

_GRID_TOL = 1e-9


@dataclass(frozen=True)
class MotherFunction:
    """Unit-norm mother profile: `jet(s, order)` returns [g], [g, g'] or
    [g, g', g''] sampled at `s`, all from one exponential."""

    name: str
    jet: callable


_MH_C = 2.0 / (math.sqrt(3.0) * math.pi ** 0.25)


def _mh_jet(s, order):
    e = np.exp(-0.5 * s * s)
    out = [_MH_C * (1.0 - s * s) * e]
    if order >= 1:
        out.append(_MH_C * (s * s * s - 3.0 * s) * e)
    if order >= 2:
        out.append(_MH_C * (-(s * s * s * s) + 6.0 * s * s - 3.0) * e)
    return out


_GS_C = math.pi ** -0.25


def _gauss_jet(s, order):
    e = np.exp(-0.5 * s * s)
    out = [_GS_C * e]
    if order >= 1:
        out.append(-_GS_C * s * e)
    if order >= 2:
        out.append(_GS_C * (s * s - 1.0) * e)
    return out


MEXICAN_HAT = MotherFunction("mexican_hat", _mh_jet)
GAUSSIAN = MotherFunction("gaussian", _gauss_jet)
MOTHERS = {m.name: m for m in (MEXICAN_HAT, GAUSSIAN)}


def mexican_hat_norm_constant() -> float:
    """Closed-form unit-norm constant 2/(sqrt(3) pi^(1/4))."""
    return _MH_C


def affine_jet(mother: MotherFunction, b, a: float, t, order: int = 0) -> tuple:
    """The raw atom a^(-1/2) g((t-b)/a) sampled at `t` and, up to `order`,
    its partials in (b, a), stacked along leading axes, from one mother jet.

    Returns (raw,), (raw, d1) or (raw, d1, d2): d1 = [d_b, d_a] and d2 the
    symmetric 2 x 2 stack of second partials. `b` and `t` broadcast, so
    one call evaluates a row of atoms (b a column, t the sample offsets).
    """
    s = (t - b) / a
    g = mother.jet(s, order)  # g[k]: the k-th derivative of the mother at s
    raw = g[0] / math.sqrt(a)
    if order == 0:
        return (raw,)
    inv = a ** -1.5
    d1 = np.stack([-inv * g[1], -inv * (0.5 * g[0] + s * g[1])])
    if order == 1:
        return raw, d1
    inv = a ** -2.5
    d_ba = inv * (1.5 * g[1] + s * g[2])
    d2 = np.stack([np.stack([inv * g[2], d_ba]),
                   np.stack([d_ba, inv * (0.75 * g[0] + 3.0 * s * g[1] + s * s * g[2])])])
    return raw, d1, d2


class Affine1DDictionary(Dictionary):
    """Translation-dilation dictionary on a length-n sample grid."""

    def __init__(self, n: int, scale_range: tuple[float, float] | None = None,
                 mother: str | MotherFunction = "mexican_hat"):
        if n < 2:
            raise ValueError("signal length must be at least 2")
        self.n = int(n)
        self.shape = (self.n,)
        self.kinds = (TRANSLATION, SCALE)
        self.mother = MOTHERS[mother] if isinstance(mother, str) else mother
        if scale_range is None:
            scale_range = (0.5, self.n / 2)
        lo, hi = scale_range
        if not 0 < lo < hi:
            raise ValueError(f"bad scale range {scale_range}")
        self.scale_range = (float(lo), float(hi))

    def point(self, b: float, a: float) -> ParamPoint:
        return ParamPoint((b, a), self.kinds)

    def clamp_coords(self, coords) -> ParamPoint:
        """As `Dictionary.clamp_coords`, except that b clamps to
        [-MASS_RADIUS*a, n-1 + MASS_RADIUS*a] at the clamped scale a, the
        translations a tau-adic grid keeps, so a grid atom is its own clamp."""
        b = float(coords[0])
        a = float(super().clamp_coords(coords).coords[1])
        reach = MASS_RADIUS * a
        return self.point(min(max(b, -reach), self.n - 1 + reach), a)

    def _jet(self, coords, shape, order):
        b, a = coords
        return affine_jet(self.mother, b, a, np.arange(shape[0], dtype=np.float64), order)


class TranslationDictionary(Dictionary):
    """One-parameter dictionary: a fixed-scale mother under translation only."""

    def __init__(self, n: int, scale: float = 1.0,
                 mother: str | MotherFunction = "gaussian"):
        self.n = int(n)
        self.shape = (self.n,)
        self.kinds = (TRANSLATION,)
        self.scale = float(scale)
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        self.mother = MOTHERS[mother] if isinstance(mother, str) else mother
        self.scale_range = (self.scale, self.scale)  # no scale coordinate

    def point(self, b: float) -> ParamPoint:
        return ParamPoint((b,), self.kinds)

    def _jet(self, coords, shape, order):
        jet = affine_jet(self.mother, coords[0], self.scale,
                         np.arange(shape[0], dtype=np.float64), order)
        # the translation rows only: the scale is fixed
        return tuple(d[(slice(0, 1),) * k] for k, d in enumerate(jet))


@dataclass(frozen=True)
class TauAdicGrid:
    """Tau-adic discretization of the (translation, scale) plane.

    Grid points are k_(j,n) = (n*b0*tau^j, a0*tau^j) for j in
    [j_min, j_max], keeping only translations whose atom mass intersects
    the signal: |b - clamp(b, 0, n-1)| <= 4a. Enumeration is ascending j,
    then ascending n.
    """

    b0: float
    a0: float
    tau: float
    j_min: int
    j_max: int
    n: int

    def __post_init__(self):
        if not (0 < self.b0 < math.inf and 0 < self.a0 < math.inf):
            raise ValueError("b0 and a0 must be positive and finite")
        if not 1 < self.tau < math.inf:
            raise ValueError("tau must be finite and exceed 1")
        if self.j_min > self.j_max:
            raise ValueError("empty scale index range")
        if self.n < 1:
            raise ValueError("signal length must be positive")

    def levels(self):
        """Yield (j, scale, translation step, n_lo, n_hi) per scale level."""
        for j in range(self.j_min, self.j_max + 1):
            factor = self.tau ** j
            a = self.a0 * factor
            step = self.b0 * factor
            reach = MASS_RADIUS * a
            n_lo = math.ceil((-reach) / step - _GRID_TOL)
            n_hi = math.floor((self.n - 1 + reach) / step + _GRID_TOL)
            if n_lo > n_hi:
                continue
            yield j, a, step, n_lo, n_hi

    @property
    def count(self) -> int:
        return sum(hi - lo + 1 for _, _, _, lo, hi in self.levels())

    def points(self):
        """Deterministically ordered grid points."""
        kinds = (TRANSLATION, SCALE)
        for row in self.coords():
            yield ParamPoint(row, kinds)

    def coords(self) -> np.ndarray:
        """Grid point coordinates, one (b, a) row per point in enumeration order."""
        rows = [np.column_stack([np.arange(n_lo, n_hi + 1) * step, np.full(n_hi - n_lo + 1, a)])
                for _, a, step, n_lo, n_hi in self.levels()]
        return np.concatenate(rows) if rows else np.empty((0, 2))

    def scale_span(self) -> tuple[float, float]:
        return (self.a0 * self.tau ** self.j_min, self.a0 * self.tau ** self.j_max)

    def to_json(self) -> str:
        return json.dumps({"b0": self.b0, "a0": self.a0, "tau": self.tau,
                           "jmin": self.j_min, "jmax": self.j_max, "N": self.n})

    @classmethod
    def from_json(cls, text: str) -> "TauAdicGrid":
        d = json.loads(text)
        return cls(b0=spec_number(d, "b0"), a0=spec_number(d, "a0"),
                   tau=spec_number(d, "tau"), j_min=spec_number(d, "jmin", True),
                   j_max=spec_number(d, "jmax", True), n=spec_number(d, "N", True))


def tau_grid_for_signal(n: int, b0: float, log2_tau: float, a0: float = 1.0,
                        max_scale: float | None = None) -> TauAdicGrid:
    """Grid whose scale levels cover [a0, max_scale] (default n/4)."""
    if max_scale is None:
        max_scale = n / 4
    tau = 2.0 ** log2_tau
    j_max = math.floor(math.log(max_scale / a0) / math.log(tau) + _GRID_TOL)
    return TauAdicGrid(b0=b0, a0=a0, tau=tau, j_min=0, j_max=j_max, n=n)
