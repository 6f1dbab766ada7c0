"""Parametric dictionary interface: atom synthesis and parameter derivatives.

A dictionary maps a P-dimensional parameter point to a unit-norm atom on a
fixed sample grid. Atoms are renormalized on the grid (boundary
renormalization), so truncated atoms are still valid unit-norm atoms and
the identities <d_i g, g> = 0 and <d_ij g, g> = -G_ij hold exactly in the
discrete inner product. Derivatives are therefore derivatives of the
*renormalized* synthesis map: every dictionary gives the first and second
partials of its raw atom in closed form, and the quotient rule carries them
through the renormalization.
"""

from __future__ import annotations

import numpy as np

from .core import SignalBuffer

TRANSLATION = "translation"
SCALE = "scale"
ANGLE = "angle"

# Scales this close (relatively) to the domain boundary count as
# non-interior, so derivatives are taken only where a small step in any
# direction stays in the domain; clamping pulls slightly further in so that
# a clamped point is always interior.
INTERIOR_MARGIN = 2e-3
CLAMP_MARGIN = 4e-3

_MIN_ATOM_NORM = 1e-9

# Scales produced as a0 * tau**j carry float fuzz; the domain check allows it.
_DOMAIN_TOL = 1e-9


class DomainError(ValueError):
    """Parameter outside the dictionary's domain (or atom without support)."""


class ParamPoint:
    """A point in the continuous parameter space of a dictionary."""

    __slots__ = ("coords", "kinds")

    def __init__(self, coords, kinds):
        arr = np.array(coords, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ValueError("coords must be a flat vector")
        kinds = tuple(kinds)
        if len(kinds) != arr.size:
            raise ValueError(f"{arr.size} coords but {len(kinds)} kinds")
        for k in kinds:
            if k not in (TRANSLATION, SCALE, ANGLE):
                raise ValueError(f"unknown coordinate kind {k!r}")
        if not np.isfinite(arr).all():
            raise DomainError("non-finite parameter coordinates")
        for x, k in zip(arr, kinds):
            if k == SCALE and not x > 0:
                raise DomainError(f"scale coordinate must be positive, got {x}")
        arr.setflags(write=False)
        self.coords = arr
        self.kinds = kinds

    def __len__(self):
        return self.coords.size

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self):
        vals = ", ".join(format(v, ".6g") for v in self.coords)
        return f"ParamPoint({vals})"


def grid_points(grid) -> list[ParamPoint]:
    """The points of a grid: its `points()`, or the grid itself when it is
    a plain iterable of ParamPoints."""
    return list(grid.points() if hasattr(grid, "points") else grid)


def grid_coords(grid) -> np.ndarray:
    """The coordinates of a grid's points, one row per point in enumeration
    order: its `coords()`, or the stacked coordinates of its points."""
    if hasattr(grid, "coords"):
        return grid.coords()
    points = grid_points(grid)
    return np.array([p.coords for p in points]).reshape(len(points), -1)


class Dictionary:
    """Base class for parametric dictionaries.

    Concrete dictionaries provide `_raw` (continuum-normalized samples of
    the atom) and its first and second partials `_raw_partials` /
    `_raw_second_partials` in closed form; synthesis and derivatives of the
    renormalized atom follow from these.
    """

    kinds: tuple[str, ...]
    shape: tuple[int, ...]
    scale_range: tuple[float, float]

    @property
    def P(self) -> int:
        return len(self.kinds)

    # -- to be overridden ------------------------------------------------
    def point(self, *coords) -> ParamPoint:
        return ParamPoint(coords, self.kinds)

    def _raw(self, coords: np.ndarray, shape) -> np.ndarray:
        raise NotImplementedError

    def _raw_partials(self, coords: np.ndarray, shape) -> list[np.ndarray]:
        raise NotImplementedError

    def _raw_second_partials(self, coords: np.ndarray, shape) -> list[list[np.ndarray]]:
        raise NotImplementedError

    def translation_extent(self, i: int, shape) -> tuple[float, float]:
        """Clamping range for translation coordinate i."""
        raise NotImplementedError

    # -- domain handling --------------------------------------------------
    def _check_domain(self, lam: ParamPoint) -> None:
        lo, hi = self.scale_range
        for x, k in zip(lam.coords, lam.kinds):
            if k == SCALE and not (lo * (1 - _DOMAIN_TOL) <= x <= hi * (1 + _DOMAIN_TOL)):
                raise DomainError(f"scale {x} outside [{lo}, {hi}]")

    def require_interior(self, lam: ParamPoint) -> None:
        """Reject points too close to the scale bounds for derivatives."""
        lo, hi = self.scale_range
        for x, k in zip(lam.coords, lam.kinds):
            if k == SCALE and not (lo * (1 + INTERIOR_MARGIN) <= x <= hi * (1 - INTERIOR_MARGIN)):
                raise DomainError(
                    f"scale {x} not strictly interior to [{lo}, {hi}]; "
                    "one-sided derivatives unsupported")

    def clamp(self, lam: ParamPoint) -> ParamPoint:
        return self.clamp_coords(lam.coords)

    def clamp_coords(self, coords) -> ParamPoint:
        """Pull raw coordinates into the interior of the domain.

        Translations clamp to the buffer extent, scales to a margin inside
        the scale range, angles wrap modulo pi. Accepts coordinates outside
        the valid region (e.g. negative scales from an overshot step).
        """
        lo, hi = self.scale_range
        coords = np.array(coords, dtype=np.float64, copy=True)
        for i, k in enumerate(self.kinds):
            if k == SCALE:
                coords[i] = min(max(coords[i], lo * (1 + CLAMP_MARGIN)), hi * (1 - CLAMP_MARGIN))
            elif k == ANGLE:
                coords[i] = coords[i] % np.pi
            else:
                t_lo, t_hi = self.translation_extent(i, self.shape)
                coords[i] = min(max(coords[i], t_lo), t_hi)
        return ParamPoint(coords, self.kinds)

    # -- synthesis & derivatives -------------------------------------------
    def synthesize(self, lam: ParamPoint, shape=None) -> SignalBuffer:
        """Unit-norm atom at `lam`, renormalized on the sample grid."""
        shape = shape or self.shape
        self._check_domain(lam)
        raw = self._raw(lam.coords, shape)
        nrm = np.linalg.norm(raw)
        if not nrm > _MIN_ATOM_NORM:
            raise DomainError("atom has no effective support in the buffer")
        return SignalBuffer(raw / nrm)

    def partials(self, lam: ParamPoint, shape=None) -> list[SignalBuffer]:
        """First partials of the renormalized atom, one buffer per coordinate."""
        shape = shape or self.shape
        self._check_domain(lam)
        self.require_interior(lam)
        parts = _renormalized_partials(self._raw(lam.coords, shape),
                                       self._raw_partials(lam.coords, shape))
        return [SignalBuffer(p) for p in parts]

    def second_partials(self, lam: ParamPoint, shape=None) -> list[list[SignalBuffer]]:
        """Symmetric P x P matrix of second partials of the renormalized atom."""
        shape = shape or self.shape
        self._check_domain(lam)
        self.require_interior(lam)
        mat = _renormalized_second_partials(self._raw(lam.coords, shape),
                                            self._raw_partials(lam.coords, shape),
                                            self._raw_second_partials(lam.coords, shape))
        return [[SignalBuffer(m) for m in row] for row in mat]


def _renormalized_partials(raw: np.ndarray, draws):
    """Partials of raw/||raw|| given raw and its partials (quotient rule)."""
    nrm = np.linalg.norm(raw)
    if not nrm > _MIN_ATOM_NORM:
        raise DomainError("atom has no effective support in the buffer")
    ghat = raw / nrm
    flat = ghat.ravel()
    out = []
    for d in draws:
        proj = float(np.dot(flat, d.ravel()))
        out.append((d - proj * ghat) / nrm)
    return out


def _renormalized_second_partials(raw: np.ndarray, draws, ddraws):
    """Second partials of raw/||raw|| from raw derivatives; exact quotient rule."""
    nrm = np.linalg.norm(raw)
    if not nrm > _MIN_ATOM_NORM:
        raise DomainError("atom has no effective support in the buffer")
    ghat = raw / nrm
    gflat = ghat.ravel()
    P = len(draws)
    dn = [float(np.dot(gflat, d.ravel())) for d in draws]  # d_i ||raw||
    mat = [[None] * P for _ in range(P)]
    for i in range(P):
        for j in range(i, P):
            dii = ddraws[i][j]
            ddn = (float(np.dot(draws[j].ravel(), draws[i].ravel()))
                   + float(np.dot(raw.ravel(), dii.ravel()))) / nrm - dn[i] * dn[j] / nrm
            term = (dii / nrm
                    - (draws[i] * dn[j] + draws[j] * dn[i]) / nrm**2
                    - raw * ddn / nrm**2
                    + 2 * raw * dn[i] * dn[j] / nrm**3)
            mat[i][j] = mat[j][i] = term
    return mat
