"""2-D dictionary: translated, rotated, anisotropically dilated atoms (P=5).

The mother function is a separable Mexican Hat (x) times Gaussian (y),
g(x, y) = sqrt(4/(3*pi)) * (1 - x^2) * exp(-(x^2+y^2)/2), of unit L2 norm.
An atom with parameters (b1, b2, theta, a1, a2) evaluates the mother at
(u, v) = diag(a1,a2)^-1 * R(-theta) * (x - b1, y - b2) scaled by
(a1*a2)^(-1/2), sampled at pixel centers (integer coordinates). The mother
is even in x, so orientation is pi-periodic and theta is canonicalized to
[0, pi). `Aniso2DDictionary._jet` is the one evaluation of the atom: it
builds the rotated frame and the Gaussian envelope once, in a scratch block
of its own call, and returns the atom with its first and second partials in
closed form, stacked along leading axes, with that block, from which a
higher order at the same atom continues. The grid search's slab templates
are atoms from it too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dictionaries import (ANGLE, SCALE, TRANSLATION, Dictionary, ParamPoint, check_spec_keys,
                           spec_number)

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
        return ParamPoint((b1, b2, theta % math.pi, a1, a2))

    def _jet(self, coords, shape, order, start, frame):
        """The atom s * G(u, v), s = (a1*a2)^(-1/2), and its partials by the
        chain rule: d_i = s_i G + s G_i and
        d_ij = s_ij G + s_i G_j + s_j G_i + s G_ij, where G_i = G_u u_i + G_v v_i
        and G_ij = G_uu u_i u_j + G_uv (u_i v_j + u_j v_i) + G_vv v_i v_j
        + G_u u_ij + G_v v_ij. Index order is (b1, b2, theta, a1, a2).

        The frame, u, v, env, uu and G (and, once order 1 is done, G_u and
        G_v), is one scratch block of the fresh call, built in place; a
        later call continues from it. The parts are views of another block."""
        b1, b2, theta, a1, a2 = coords
        if frame is None:
            frame = np.empty((8, *shape))
        u, v, env, uu, G, Gu, Gv, tmp = frame
        block = np.empty((sum((1, 5, 25)[start:order + 1]), *shape))
        parts = []
        ct, st = math.cos(theta), math.sin(theta)
        s = 1.0 / math.sqrt(a1 * a2)
        if start == 0:
            raw = block[0]
            dx = np.arange(shape[0], dtype=np.float64)[:, None] - b1
            dy = np.arange(shape[1], dtype=np.float64)[None, :] - b2
            # u = (ct dx + st dy) / a1, v = (-st dx + ct dy) / a2,
            # env = exp(-0.5 (u u + v v)), G = _C2D (1 - u u) env, raw = G / sqrt(a1 a2)
            np.divide(np.add(ct * dx, st * dy, out=u), a1, out=u)
            np.divide(np.add(-st * dx, ct * dy, out=v), a2, out=v)
            np.multiply(u, u, out=uu)
            np.add(uu, np.multiply(v, v, out=env), out=env)
            np.exp(np.multiply(-0.5, env, out=env), out=env)
            np.multiply(np.multiply(_C2D, np.subtract(1.0, uu, out=G), out=G), env, out=G)
            np.divide(G, math.sqrt(a1 * a2), out=raw)
            parts.append(raw)
        if start <= 1 <= order:
            d1 = block[len(parts):len(parts) + 5]
            # d/du of the mother, _C2D * (uu * u - 3.0 * u) * env
            np.subtract(np.multiply(uu, u, out=Gu), np.multiply(3.0, u, out=tmp), out=Gu)
            np.multiply(np.multiply(_C2D, Gu, out=Gu), env, out=Gu)
            np.multiply(np.negative(v, out=Gv), G, out=Gv)
            # s * (Gu * (-ct / a1) + Gv * (st / a2)), and its b2 twin
            for row, cu, cv in ((d1[0], -ct / a1, st / a2), (d1[1], -st / a1, -ct / a2)):
                np.add(np.multiply(Gu, cu, out=row), np.multiply(Gv, cv, out=tmp), out=row)
                np.multiply(s, row, out=row)
            # s * (Gu * (a2 * v / a1) - Gv * (a1 * u / a2))
            np.multiply(Gu, np.divide(np.multiply(a2, v, out=tmp), a1, out=tmp), out=d1[2])
            np.multiply(Gv, np.divide(np.multiply(a1, u, out=tmp), a2, out=tmp), out=tmp)
            np.multiply(s, np.subtract(d1[2], tmp, out=d1[2]), out=d1[2])
            # -(s / a1) * (0.5 * G + u * Gu), and its a2 twin
            for row, a, w, Gw in ((d1[3], a1, u, Gu), (d1[4], a2, v, Gv)):
                np.add(np.multiply(0.5, G, out=row), np.multiply(w, Gw, out=tmp), out=row)
                np.multiply(-(s / a), row, out=row)
            parts.append(d1)
        if order < 2:
            return tuple(parts), frame
        # first derivatives of u, v and s
        du = [-ct / a1, -st / a1, a2 * v / a1, -u / a1, 0.0]
        dv = [st / a2, -ct / a2, -a1 * u / a2, 0.0, -v / a2]
        ds = [0.0, 0.0, 0.0, -0.5 * s / a1, -0.5 * s / a2]
        dG = [Gu * du[i] + Gv * dv[i] for i in range(5)]
        Guu = _C2D * (-(uu * uu) + 6.0 * uu - 3.0) * env
        Guv = -v * Gu
        Gvv = (v * v - 1.0) * G
        # the nonzero second derivatives of u, v and s (i <= j)
        ddu = {(0, 2): st / a1, (0, 3): ct / (a1 * a1), (1, 2): -ct / a1,
               (1, 3): st / (a1 * a1), (2, 2): -u, (2, 3): -a2 * v / (a1 * a1),
               (3, 3): 2.0 * u / (a1 * a1)}
        ddv = {(0, 2): ct / a2, (0, 4): -st / (a2 * a2), (1, 2): st / a2,
               (1, 4): ct / (a2 * a2), (2, 2): -v, (2, 4): a1 * u / (a2 * a2),
               (4, 4): 2.0 * v / (a2 * a2)}
        dds = {(3, 3): 0.75 * s / (a1 * a1), (3, 4): 0.25 * s / (a1 * a2),
               (4, 4): 0.75 * s / (a2 * a2)}
        d2 = block[-25:].reshape((5, 5, *shape))
        for i in range(5):
            for j in range(i, 5):
                d2G = (Guu * (du[i] * du[j]) + Guv * (du[i] * dv[j] + du[j] * dv[i])
                       + Gvv * (dv[i] * dv[j])
                       + Gu * ddu.get((i, j), 0.0) + Gv * ddv.get((i, j), 0.0))
                d2[i, j] = d2[j, i] = (dds.get((i, j), 0.0) * G + ds[i] * dG[j]
                                       + ds[j] * dG[i] + s * d2G)
        return (*parts, d2), frame


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
        if not 0 < self.min_scale <= self._max_scale() < math.inf:
            raise ValueError("scale bounds must satisfy 0 < min_scale <= max_scale < inf, "
                             f"got {self.min_scale} and {self._max_scale()}")

    def _max_scale(self) -> float:
        return float(min(self.nx, self.ny)) if self.max_scale is None else self.max_scale

    def scales(self) -> np.ndarray:
        lo, hi = self.min_scale, self._max_scale()
        if self.j_scales == 1:
            return np.array([lo])
        exponents = np.arange(self.j_scales) / (self.j_scales - 1)
        return lo * (hi / lo) ** exponents

    def scale_span(self) -> tuple[float, float]:
        """The smallest and the largest scale of the grid."""
        scales = self.scales()
        return (float(scales[0]), float(scales[-1]))

    def thetas(self) -> np.ndarray:
        return np.arange(self.k_orients) * (math.pi / self.k_orients)

    @property
    def shape(self) -> tuple[int, int]:
        """The sample shape of the images the grid is searched over."""
        return (self.nx, self.ny)

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
        """Grid points in enumeration order: the rows of the `factors()` product."""
        positions, slabs = self.factors()
        rows = np.hstack([np.tile(positions, (len(slabs), 1)),
                          np.repeat(slabs, len(positions), axis=0)])
        for row in rows:
            yield ParamPoint(row)

    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The grid as a product: (positions, slabs), one (b1, b2) row per
        pixel row-major and one (theta, a1, a2) row per slab in enumeration
        order; point (s, p) of the enumeration is positions[p] + slabs[s]."""
        b1, b2 = np.divmod(np.arange(self.nx * self.ny), self.ny)
        positions = np.column_stack([b1, b2]).astype(np.float64)
        return positions, np.array(list(self.slabs())).reshape(-1, 3)

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
        d = {"min_scale": DEFAULT_MIN_SCALE, **json.loads(text)}
        check_spec_keys(d, ("Nx", "Ny", "J", "K", "min_scale", "max_scale"))
        return cls(nx=spec_number(d, "Nx", True), ny=spec_number(d, "Ny", True),
                   j_scales=spec_number(d, "J", True), k_orients=spec_number(d, "K", True),
                   min_scale=float(spec_number(d, "min_scale")),
                   max_scale=None if d.get("max_scale") is None
                   else float(spec_number(d, "max_scale")))
