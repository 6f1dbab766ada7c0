"""2-D dictionary: translated, rotated, anisotropically dilated atoms (P=5).

The mother function is a separable Mexican Hat (x) times Gaussian (y),
g(x, y) = sqrt(4/(3*pi)) * (1 - x^2) * exp(-(x^2+y^2)/2), of unit L2 norm.
An atom with parameters (b1, b2, theta, a1, a2) evaluates the mother at
(u, v) = diag(a1,a2)^-1 * R(-theta) * (x - b1, y - b2) scaled by
(a1*a2)^(-1/2), sampled at pixel centers (integer coordinates). The mother
is even in x, so orientation is pi-periodic and theta is canonicalized to
[0, pi).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dictionaries import ANGLE, SCALE, TRANSLATION, Dictionary, ParamPoint

DEFAULT_MIN_SCALE = 0.7

_C2D = math.sqrt(4.0 / (3.0 * math.pi))


class Aniso2DDictionary(Dictionary):
    """Five-parameter dictionary (b1, b2, theta, a1, a2) on a pixel grid."""

    def __init__(self, shape: tuple[int, int],
                 scale_range: tuple[float, float] | None = None):
        nx, ny = shape
        if nx < 2 or ny < 2:
            raise ValueError(f"image must be at least 2x2, got {shape}")
        self.shape = (int(nx), int(ny))
        self.kinds = (TRANSLATION, TRANSLATION, ANGLE, SCALE, SCALE)
        if scale_range is None:
            scale_range = (DEFAULT_MIN_SCALE, float(min(self.shape)))
        lo, hi = scale_range
        if not 0 < lo < hi:
            raise ValueError(f"bad scale range {scale_range}")
        self.scale_range = (float(lo), float(hi))

    def point(self, b1: float, b2: float, theta: float, a1: float, a2: float) -> ParamPoint:
        return ParamPoint((b1, b2, theta % math.pi, a1, a2), self.kinds)

    def translation_extent(self, i, shape):
        return (0.0, float(shape[i] - 1))

    def _frame(self, coords, shape):
        """Rotated, dilated offset coordinates (u, v) on the pixel grid."""
        b1, b2, theta, a1, a2 = coords
        dx = np.arange(shape[0], dtype=np.float64)[:, None] - b1
        dy = np.arange(shape[1], dtype=np.float64)[None, :] - b2
        ct, st = math.cos(theta), math.sin(theta)
        u = (ct * dx + st * dy) / a1
        v = (-st * dx + ct * dy) / a2
        return u, v

    @staticmethod
    def _mother_uv(u, v):
        return _C2D * (1.0 - u * u) * np.exp(-0.5 * (u * u + v * v))

    def _raw(self, coords, shape):
        b1, b2, theta, a1, a2 = coords
        u, v = self._frame(coords, shape)
        return self._mother_uv(u, v) / math.sqrt(a1 * a2)

    def _raw_partials(self, coords, shape):
        b1, b2, theta, a1, a2 = coords
        u, v = self._frame(coords, shape)
        ct, st = math.cos(theta), math.sin(theta)
        env = np.exp(-0.5 * (u * u + v * v))
        G = _C2D * (1.0 - u * u) * env
        Gu = _C2D * (u ** 3 - 3.0 * u) * env  # d/du of the mother
        Gv = -v * G
        s = 1.0 / math.sqrt(a1 * a2)
        d_b1 = s * (Gu * (-ct / a1) + Gv * (st / a2))
        d_b2 = s * (Gu * (-st / a1) + Gv * (-ct / a2))
        d_th = s * (Gu * (a2 * v / a1) - Gv * (a1 * u / a2))
        d_a1 = -(s / a1) * (0.5 * G + u * Gu)
        d_a2 = -(s / a2) * (0.5 * G + v * Gv)
        return [d_b1, d_b2, d_th, d_a1, d_a2]

    def oversampled_atom(self, lam: ParamPoint, factor: int = 4) -> np.ndarray:
        """Atom evaluated on a `factor`-times finer lattice (for diagnostics)."""
        nx, ny = self.shape
        b1, b2, theta, a1, a2 = lam.coords
        dx = (np.arange(nx * factor) / factor)[:, None] - b1
        dy = (np.arange(ny * factor) / factor)[None, :] - b2
        ct, st = math.cos(theta), math.sin(theta)
        u = (ct * dx + st * dy) / a1
        v = (-st * dx + ct * dy) / a2
        vals = self._mother_uv(u, v) / math.sqrt(a1 * a2)
        return vals / np.linalg.norm(vals)


@dataclass(frozen=True)
class Grid2DSpec:
    """Regular 2-D parameter grid: all pixel positions, J log-spaced scales
    per axis in [a_min, a_max], K orientations evenly spaced in [0, pi).

    Enumeration order: scale index j (first axis), then j' (second axis),
    then orientation index, then positions row-major. Atom count is
    J^2 * K * Nx * Ny.
    """

    nx: int
    ny: int
    j_scales: int
    k_orients: int
    min_scale: float = DEFAULT_MIN_SCALE
    max_scale: float | None = None

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("zero-sized image")
        if self.j_scales < 1 or self.k_orients < 1:
            raise ValueError("J and K must be at least 1")

    def _max_scale(self) -> float:
        return float(min(self.nx, self.ny)) if self.max_scale is None else self.max_scale

    def scales(self) -> np.ndarray:
        lo, hi = self.min_scale, self._max_scale()
        if self.j_scales == 1:
            return np.array([lo])
        exponents = np.arange(self.j_scales) / (self.j_scales - 1)
        return lo * (hi / lo) ** exponents

    def thetas(self) -> np.ndarray:
        return np.arange(self.k_orients) * (math.pi / self.k_orients)

    @property
    def count(self) -> int:
        return self.j_scales ** 2 * self.k_orients * self.nx * self.ny

    def slabs(self):
        """Yield (theta, a1, a2) in enumeration order (positions vary fastest)."""
        scales = self.scales()
        thetas = self.thetas()
        for a1 in scales:
            for a2 in scales:
                for theta in thetas:
                    yield float(theta), float(a1), float(a2)

    def points(self):
        kinds = (TRANSLATION, TRANSLATION, ANGLE, SCALE, SCALE)
        for theta, a1, a2 in self.slabs():
            for b1 in range(self.nx):
                for b2 in range(self.ny):
                    yield ParamPoint((b1, b2, theta, a1, a2), kinds)

    def to_json(self) -> str:
        """JSON spec; the scale bounds are written only where they differ
        from the defaults, so default grids keep their four-key form."""
        spec = {"Nx": self.nx, "Ny": self.ny, "J": self.j_scales, "K": self.k_orients}
        if self.min_scale != DEFAULT_MIN_SCALE:
            spec["min_scale"] = self.min_scale
        if self.max_scale is not None:
            spec["max_scale"] = self.max_scale
        return json.dumps(spec)

    @classmethod
    def from_json(cls, text: str) -> "Grid2DSpec":
        d = json.loads(text)
        return cls(nx=int(d["Nx"]), ny=int(d["Ny"]),
                   j_scales=int(d["J"]), k_orients=int(d["K"]),
                   min_scale=float(d.get("min_scale", DEFAULT_MIN_SCALE)),
                   max_scale=d.get("max_scale"))
