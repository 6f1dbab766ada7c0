"""1-D affine (wavelet-like) dictionary: translated and dilated mother atoms.

Atoms take the form g_(b,a)(t) = a^(-1/2) g((t-b)/a) before boundary
renormalization, with a Mexican Hat mother by default. Grids are tau-adic:
k_(j,n) = (n*b0*tau^j, a0*tau^j).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dictionaries import SCALE, TRANSLATION, Dictionary, ParamPoint

# Atom mass within 4 standard widths is treated as "intersecting" the
# signal: grid translations near the boundary, the search template's reach
# and the clamp of b all stop at MASS_RADIUS * a outside the buffer.
MASS_RADIUS = 4.0

_GRID_TOL = 1e-9


@dataclass(frozen=True)
class MotherFunction:
    """Unit-norm mother profile with first and second derivatives."""

    name: str
    value: callable
    d1: callable
    d2: callable


_MH_C = 2.0 / (math.sqrt(3.0) * math.pi ** 0.25)


def _mh(s):
    return _MH_C * (1.0 - s * s) * np.exp(-0.5 * s * s)


def _mh_d1(s):
    return _MH_C * (s * s * s - 3.0 * s) * np.exp(-0.5 * s * s)


def _mh_d2(s):
    return _MH_C * (-(s * s * s * s) + 6.0 * s * s - 3.0) * np.exp(-0.5 * s * s)


_GS_C = math.pi ** -0.25


def _gauss(s):
    return _GS_C * np.exp(-0.5 * s * s)


def _gauss_d1(s):
    return -_GS_C * s * np.exp(-0.5 * s * s)


def _gauss_d2(s):
    return _GS_C * (s * s - 1.0) * np.exp(-0.5 * s * s)


MEXICAN_HAT = MotherFunction("mexican_hat", _mh, _mh_d1, _mh_d2)
GAUSSIAN = MotherFunction("gaussian", _gauss, _gauss_d1, _gauss_d2)
MOTHERS = {m.name: m for m in (MEXICAN_HAT, GAUSSIAN)}


def mexican_hat_norm_constant() -> float:
    """Closed-form unit-norm constant 2/(sqrt(3) pi^(1/4))."""
    return _MH_C


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

    def translation_extent(self, i, shape):
        return (0.0, float(shape[0] - 1))

    def clamp_coords(self, coords) -> ParamPoint:
        """As `Dictionary.clamp_coords`, except that b clamps to
        [-MASS_RADIUS*a, n-1 + MASS_RADIUS*a] at the clamped scale a, the
        translations a tau-adic grid keeps, so a grid atom is its own clamp."""
        b = float(coords[0])
        a = float(super().clamp_coords(coords).coords[1])
        reach = MASS_RADIUS * a
        return self.point(min(max(b, -reach), self.n - 1 + reach), a)

    def _grid_s(self, coords, shape):
        b, a = coords
        return (np.arange(shape[0], dtype=np.float64) - b) / a

    def _raw(self, coords, shape):
        b, a = coords
        return self.mother.value(self._grid_s(coords, shape)) / math.sqrt(a)

    def _raw_partials(self, coords, shape):
        b, a = coords
        s = self._grid_s(coords, shape)
        inv = a ** -1.5
        d_b = -inv * self.mother.d1(s)
        d_a = -inv * (0.5 * self.mother.value(s) + s * self.mother.d1(s))
        return [d_b, d_a]

    def _raw_second_partials(self, coords, shape):
        b, a = coords
        s = self._grid_s(coords, shape)
        g, g1, g2 = self.mother.value(s), self.mother.d1(s), self.mother.d2(s)
        inv = a ** -2.5
        d_bb = inv * g2
        d_ba = inv * (1.5 * g1 + s * g2)
        d_aa = inv * (0.75 * g + 3.0 * s * g1 + s * s * g2)
        return [[d_bb, d_ba], [d_ba, d_aa]]


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

    def translation_extent(self, i, shape):
        return (0.0, float(shape[0] - 1))

    def require_interior(self, lam):  # translations have no boundary
        return None

    def _grid_s(self, coords, shape):
        return (np.arange(shape[0], dtype=np.float64) - coords[0]) / self.scale

    def _raw(self, coords, shape):
        return self.mother.value(self._grid_s(coords, shape)) / math.sqrt(self.scale)

    def _raw_partials(self, coords, shape):
        s = self._grid_s(coords, shape)
        return [-self.mother.d1(s) * self.scale ** -1.5]

    def _raw_second_partials(self, coords, shape):
        s = self._grid_s(coords, shape)
        return [[self.mother.d2(s) * self.scale ** -2.5]]


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
        if not (self.b0 > 0 and self.a0 > 0):
            raise ValueError("b0 and a0 must be positive")
        if not self.tau > 1:
            raise ValueError("tau must exceed 1")
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
        return cls(b0=d["b0"], a0=d["a0"], tau=d["tau"],
                   j_min=int(d["jmin"]), j_max=int(d["jmax"]), n=int(d["N"]))


def tau_grid_for_signal(n: int, b0: float, log2_tau: float, a0: float = 1.0,
                        max_scale: float | None = None) -> TauAdicGrid:
    """Grid whose scale levels cover [a0, max_scale] (default n/4)."""
    if max_scale is None:
        max_scale = n / 4
    tau = 2.0 ** log2_tau
    j_max = math.floor(math.log(max_scale / a0) / math.log(tau) + _GRID_TOL)
    return TauAdicGrid(b0=b0, a0=a0, tau=tau, j_min=0, j_max=j_max, n=n)
