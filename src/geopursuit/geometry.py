"""Riemannian toolkit on the dictionary parameter space.

The parameter space carries the pullback metric G_ij = <d_i g, d_j g>
(Gram matrix of atom partials), which induces path lengths, curvature
estimates, a grid density radius, and the effective weakness factors that
relate discrete pursuit to a weakened continuous pursuit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionaries import ANGLE, Dictionary, ParamPoint, grid_coords

_METRIC_COND_LIMIT = 1e12
_CURVATURE_SLACK = 1e-3
# density_radius refines this many proxy-nearest grid points per probe.
_PATH_CANDIDATES = 6


class DegenerateMetricError(ValueError):
    """Metric is numerically singular (dictionary degenerate at this point)."""


@dataclass(frozen=True)
class MetricTensor:
    """Pullback metric at a parameter point, with its inverse."""

    lam: ParamPoint
    matrix: np.ndarray
    inverse: np.ndarray

    @property
    def P(self) -> int:
        return self.matrix.shape[0]

    def norm(self, xi: np.ndarray) -> float:
        """Length of a tangent vector in this metric."""
        xi = np.asarray(xi, dtype=np.float64)
        return math.sqrt(max(float(xi @ self.matrix @ xi), 0.0))


def _gram(buffers) -> np.ndarray:
    flats = [b.data.ravel() for b in buffers]
    P = len(flats)
    G = np.empty((P, P))
    for i in range(P):
        for j in range(i, P):
            G[i, j] = G[j, i] = float(np.dot(flats[i], flats[j]))
    return G


def metric(dictionary: Dictionary, lam: ParamPoint, shape=None) -> MetricTensor:
    """Gram matrix of atom partials at `lam`; symmetric positive definite."""
    parts = dictionary.partials(lam, shape)
    G = _gram(parts)
    G = (G + G.T) / 2
    eigvals = np.linalg.eigvalsh(G)
    if eigvals[0] <= 0 or eigvals[-1] / eigvals[0] > _METRIC_COND_LIMIT:
        raise DegenerateMetricError(
            f"metric at {lam} is numerically singular (eigenvalues {eigvals})")
    return MetricTensor(lam=lam, matrix=G, inverse=np.linalg.inv(G))


def christoffel(dictionary: Dictionary, lam: ParamPoint, shape=None) -> np.ndarray:
    """Connection coefficients Gamma[k, i, j] = G^(kl) <d_ij g, d_l g>."""
    g = metric(dictionary, lam, shape)
    parts = dictionary.partials(lam, shape)
    second = dictionary.second_partials(lam, shape)
    P = g.P
    A = np.empty((P, P, P))  # A[i, j, l] = <d_ij g, d_l g>
    flats = [p.data.ravel() for p in parts]
    for i in range(P):
        for j in range(P):
            sec = second[i][j].data.ravel()
            for l in range(P):
                A[i, j, l] = float(np.dot(sec, flats[l]))
    return np.einsum("kl,ijl->kij", g.inverse, A)


def curvature_bracket(dictionary: Dictionary, lam: ParamPoint, shape=None) -> float:
    """Contraction <d_ij g, d_kl g> G^(ik) G^(jl) at one point."""
    g = metric(dictionary, lam, shape)
    second = dictionary.second_partials(lam, shape)
    P = g.P
    H = np.empty((P, P, P, P))
    flats = [[second[i][j].data.ravel() for j in range(P)] for i in range(P)]
    for i in range(P):
        for j in range(P):
            for k in range(P):
                for l in range(P):
                    H[i, j, k, l] = float(np.dot(flats[i][j], flats[k][l]))
    return float(np.einsum("ijkl,ik,jl->", H, g.inverse, g.inverse))


def condition_bound(dictionary: Dictionary, lam_samples, shape=None) -> float:
    """Upper bound on the principal-curvature supremum over the samples.

    Returns max over samples of the square root of the second-derivative
    contraction; always at least 1 for a valid dictionary.
    """
    samples = list(lam_samples)
    if not samples:
        raise ValueError("need at least one sample point")
    worst = 0.0
    for lam in samples:
        worst = max(worst, math.sqrt(max(curvature_bracket(dictionary, lam, shape), 0.0)))
    if worst < 1.0 - _CURVATURE_SLACK:
        raise ArithmeticError(
            f"curvature bound {worst} fell below its unit lower bound; "
            "derivative machinery is inconsistent")
    return worst


def path_length(dictionary: Dictionary, lam_a: ParamPoint, lam_b: ParamPoint,
                segments: int = 16, shape=None) -> float:
    """Length of the straight parameter segment from lam_a to lam_b.

    Riemann sum of sqrt(d_lambda^T G d_lambda) with the metric evaluated at
    segment midpoints; an upper bound on the geodesic distance that refines
    as `segments` grows. Raises if the segment leaves the domain.
    """
    if segments < 1:
        raise ValueError("segment count must be at least 1")
    start = np.asarray(lam_a.coords, dtype=np.float64)
    delta = (np.asarray(lam_b.coords, dtype=np.float64) - start) / segments
    if not np.any(delta):
        return 0.0
    total = 0.0
    for k in range(segments):
        mid = start + (k + 0.5) * delta
        g = metric(dictionary, ParamPoint(mid, lam_a.kinds), shape)
        total += g.norm(delta)
    return total


def density_radius(dictionary: Dictionary, grid, probes,
                   segments: int = 4, shape=None) -> float:
    """Monte-Carlo estimate of the covering radius of a grid.

    For each probe, finds the nearest grid points under the local quadratic
    proxy d^2 ~ (k - lambda)^T G(lambda) (k - lambda), refines the best few
    with path lengths, and returns the max over probes of the min distance.
    Angles are pi-periodic, so each grid point is measured at its
    representative whose angles lie within pi/2 of the probe's. A lower
    bound on the true sup-inf, since probes sample the domain.
    """
    coords = grid_coords(grid)
    if not len(coords):
        raise ValueError("grid is empty")
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe")
    angles = [i for i, kind in enumerate(dictionary.kinds) if kind == ANGLE]
    worst = 0.0
    n_cand = min(_PATH_CANDIDATES, len(coords))
    for probe in probes:
        g = metric(dictionary, probe, shape)
        deltas = coords - probe.coords
        turns = np.floor(deltas[:, angles] / math.pi + 0.5) * math.pi
        deltas[:, angles] -= turns
        proxy = np.einsum("np,np->n", deltas @ g.matrix, deltas)
        nearest = np.argpartition(proxy, n_cand - 1)[:n_cand]
        best = math.inf
        for idx in sorted(nearest):
            if proxy[idx] == 0.0:
                best = 0.0
                break
            target = coords[idx].copy()
            target[angles] -= turns[idx]
            best = min(best, path_length(dictionary, probe,
                                         ParamPoint(target, dictionary.kinds), segments, shape))
        worst = max(worst, best)
    return worst


@dataclass(frozen=True)
class WeaknessReport:
    """Effective weakness factors induced by a discretization.

    `alpha_prime` applies to plain discrete pursuit, `alpha_dprime` to the
    gradient-refined variant (its squared deficit is exactly half). Both
    are None when the deficit exceeds 1; `density_ok` requires the strict
    density condition rho_d < beta / sqrt(1 + K).
    """

    alpha: float
    beta: float
    curvature: float
    rho_d: float
    alpha_prime: float | None
    alpha_dprime: float | None
    density_ok: bool


def weakness_factors(alpha: float, beta: float, curvature: float, rho_d: float) -> WeaknessReport:
    """Effective weakness factors for a grid of density radius rho_d."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if not 0 < beta <= 1:
        raise ValueError("beta must lie in (0, 1]")
    if curvature < 1:
        raise ValueError("curvature bound is at least 1")
    if rho_d < 0:
        raise ValueError("density radius is nonnegative")
    deficit = (rho_d / beta) ** 2 * (1.0 + curvature)
    density_ok = rho_d < beta / math.sqrt(1.0 + curvature)
    alpha_prime = alpha * math.sqrt(1.0 - deficit) if deficit <= 1.0 else None
    alpha_dprime = alpha * math.sqrt(1.0 - 0.5 * deficit) if 0.5 * deficit <= 1.0 else None
    return WeaknessReport(alpha=alpha, beta=beta, curvature=curvature, rho_d=rho_d,
                          alpha_prime=alpha_prime, alpha_dprime=alpha_dprime,
                          density_ok=density_ok)
