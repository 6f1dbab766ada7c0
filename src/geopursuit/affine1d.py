"""1-D affine (wavelet-like) dictionary: translated and dilated mother atoms.

Atoms take the form g_(b,a)(t) = a^(-1/2) g((t-b)/a) before boundary
renormalization, with a Mexican Hat mother by default. A mother is its
`jet` alone: its profile and, up to order 2, its derivatives from a single
exponential; the grid search bounds scores without it. `affine_jet` calls
it and is the one evaluation of the atom formula, with its partials, for
the dictionary's atoms (the grid search's templates among them) and the
search's off-lattice kernel rows; it returns its frame, the sample offsets
s, their exponential and the mother's derivatives, so that a higher order
at the same atom continues from it.
Grids are tau-adic: k_(j,n) = (n*b0*tau^j, a0*tau^j).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dictionaries import SCALE, TRANSLATION, Dictionary, ParamPoint, check_spec_keys, spec_number

# Atom mass within 4 standard widths is treated as "intersecting" the
# signal: grid translations near the boundary, the search template's reach
# and the clamp of b all stop at MASS_RADIUS * a outside the buffer.
MASS_RADIUS = 4.0

_GRID_TOL = 1e-9


@dataclass(frozen=True)
class MotherFunction:
    """Unit-norm mother profile: `jet(s, e, start, order)` returns its
    derivatives of orders start..order (at most 2) sampled at `s`, all from
    the one exponential e = exp(-s*s/2) that the caller computed."""

    name: str
    jet: callable


_MH_C = 2.0 / (math.sqrt(3.0) * math.pi ** 0.25)


def _mh_jet(s, e, start, order):
    out = []
    if start == 0:
        out.append(_MH_C * (1.0 - s * s) * e)
    if start <= 1 <= order:
        out.append(_MH_C * (s * s * s - 3.0 * s) * e)
    if order >= 2:
        out.append(_MH_C * (-(s * s * s * s) + 6.0 * s * s - 3.0) * e)
    return out


_GS_C = math.pi ** -0.25


def _gauss_jet(s, e, start, order):
    out = []
    if start == 0:
        out.append(_GS_C * e)
    if start <= 1 <= order:
        out.append(-_GS_C * s * e)
    if order >= 2:
        out.append(_GS_C * (s * s - 1.0) * e)
    return out


MEXICAN_HAT = MotherFunction("mexican_hat", _mh_jet)
GAUSSIAN = MotherFunction("gaussian", _gauss_jet)
MOTHERS = {m.name: m for m in (MEXICAN_HAT, GAUSSIAN)}


def affine_jet(mother: MotherFunction, b, a: float, t, order: int = 0,
               start: int = 0, frame=None) -> tuple:
    """The raw atom a^(-1/2) g((t-b)/a) sampled at `t` and, up to `order`,
    its partials in (b, a), stacked along leading axes, from one mother jet.

    Returns (parts, frame). The parts are those of orders start..order:
    raw, d1 = [d_b, d_a] and d2, the symmetric 2 x 2 stack of second
    partials. The frame, (s, e, g) with s = (t-b)/a, its exponential and
    the mother's derivatives so far, is what a later call at the same b, a
    and t continues from: `start` is 0 and `frame` None for a fresh
    evaluation, else the order after the earlier call's and its frame. `b`
    and `t` broadcast, so one call evaluates a row of atoms (b a column, t
    the sample offsets).
    """
    if frame is None:
        # s = (t - b) / a and e = exp(-0.5 * s * s), each in one array
        s = np.subtract(t, b)
        s /= a
        e = np.multiply(-0.5, s)
        e *= s
        np.exp(e, out=e)
        g = []
    else:
        s, e, g = frame
    g = g + mother.jet(s, e, start, order)  # g[k]: the k-th derivative of the mother at s
    parts = []
    if start == 0:
        parts.append(g[0] / math.sqrt(a))
    if start <= 1 <= order:
        inv = a ** -1.5
        parts.append(np.stack([-inv * g[1], -inv * (0.5 * g[0] + s * g[1])]))
    if order >= 2:
        inv = a ** -2.5
        d_ba = inv * (1.5 * g[1] + s * g[2])
        parts.append(np.stack([np.stack([inv * g[2], d_ba]),
                               np.stack([d_ba, inv * (0.75 * g[0] + 3.0 * s * g[1]
                                                      + s * s * g[2])])]))
    return tuple(parts), (s, e, g)


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
        self._t = np.arange(self.n, dtype=np.float64)  # the sample positions of every atom
        self._t.setflags(write=False)

    def clamp_coords(self, coords) -> ParamPoint:
        """As `Dictionary.clamp_coords`, except that b clamps to
        [-MASS_RADIUS*a, n-1 + MASS_RADIUS*a] at the clamped scale a, the
        translations a tau-adic grid keeps, so a grid atom is its own clamp."""
        b, a = float(coords[0]), self.clamp_scale(float(coords[1]))
        reach = MASS_RADIUS * a
        return self.point(min(max(b, -reach), self.n - 1 + reach), a)

    def _jet(self, coords, shape, order, start, frame):
        b, a = coords
        t = self._t if tuple(shape) == self.shape else np.arange(shape[0], dtype=np.float64)
        return affine_jet(self.mother, b, a, t, order, start, frame)


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
        """Yield (j, scale, translation step, n_lo <= 0, n_hi >= 0) per scale level."""
        for j in range(self.j_min, self.j_max + 1):
            factor = self.tau ** j
            a = self.a0 * factor
            step = self.b0 * factor
            reach = MASS_RADIUS * a
            n_lo = math.ceil((-reach) / step - _GRID_TOL)
            n_hi = math.floor((self.n - 1 + reach) / step + _GRID_TOL)
            yield j, a, step, n_lo, n_hi

    @property
    def shape(self) -> tuple[int]:
        """The sample shape of the signals the grid is searched over."""
        return (self.n,)

    @property
    def count(self) -> int:
        return sum(hi - lo + 1 for _, _, _, lo, hi in self.levels())

    def points(self):
        """Deterministically ordered grid points: the (b, a) rows of `factors()`."""
        for row in self.factors()[1]:
            yield ParamPoint(row)

    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The grid as `Grid2DSpec.factors` gives it: no translation columns, all (b, a) rows."""
        rows = [np.column_stack([np.arange(n_lo, n_hi + 1, dtype=np.float64) * step,
                                 np.full(n_hi - n_lo + 1, a, dtype=np.float64)])
                for _, a, step, n_lo, n_hi in self.levels()]
        return np.zeros((1, 0)), np.concatenate(rows)

    def scale_span(self) -> tuple[float, float]:
        """The smallest and the largest scale of the grid."""
        return (self.a0 * self.tau ** self.j_min, self.a0 * self.tau ** self.j_max)

    def to_json(self) -> str:
        return json.dumps({"b0": self.b0, "a0": self.a0, "tau": self.tau,
                           "jmin": self.j_min, "jmax": self.j_max, "N": self.n})

    @classmethod
    def from_json(cls, text: str) -> "TauAdicGrid":
        d = json.loads(text)
        check_spec_keys(d, ("b0", "a0", "tau", "jmin", "jmax", "N"))
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
