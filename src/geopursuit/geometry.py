"""Riemannian toolkit on the dictionary parameter space.

The parameter space carries the pullback metric G_ij = <d_i g, d_j g>
(Gram matrix of atom partials), which induces path lengths, curvature
estimates, a grid density radius, and the effective weakness factors that
relate discrete pursuit to a weakened continuous pursuit, all measured on
the dictionary's own sample grid. Inner products of partials are matrix
products of the dictionary's stacked partials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dictionaries import ANGLE, Dictionary, ParamPoint

_METRIC_COND_LIMIT = 1e12
_CURVATURE_SLACK = 1e-3
# density_radius refines this many proxy-nearest grid points per probe.
_PATH_CANDIDATES = 6
# A slab bound's rounding margin, relative to the slab's d_o^T G_oo d_o (= q).
# The bound's Schur term (at most q) is rounded by a few eps * cond(G_pp), and
# cond(G_pp) <= cond(G) <= _METRIC_COND_LIMIT, so by a few 2.2e-4 of q at most;
# the proxy near its minimum by a few eps of q.
_BOUND_RTOL = 1e-3


class DegenerateMetricError(ValueError):
    """Metric is numerically singular (dictionary degenerate at this point)."""


@dataclass(frozen=True)
class MetricTensor:
    """Pullback metric at a parameter point, with its inverse."""

    matrix: np.ndarray

    @cached_property
    def inverse(self) -> np.ndarray:
        """The inverse metric, computed on first read."""
        return np.linalg.inv(self.matrix)

    @property
    def P(self) -> int:
        return self.matrix.shape[0]

    def norm(self, xi: np.ndarray) -> float:
        """Length of a tangent vector in this metric."""
        xi = np.asarray(xi, dtype=np.float64)
        return math.sqrt(max(float(xi @ self.matrix @ xi), 0.0))


def metric(dictionary: Dictionary, lam: ParamPoint) -> MetricTensor:
    """Gram matrix of atom partials at `lam`; symmetric positive definite."""
    return _gram(lam, dictionary.partials(lam))


def _gram(lam: ParamPoint, parts: np.ndarray) -> MetricTensor:
    """The metric at `lam` from its first partials (P, *shape)."""
    F = parts.reshape(len(parts), -1)  # one flattened partial per row
    G = F @ F.T
    G = (G + G.T) / 2
    eigvals = np.linalg.eigvalsh(G)
    if eigvals[0] <= 0 or eigvals[-1] / eigvals[0] > _METRIC_COND_LIMIT:
        raise DegenerateMetricError(
            f"metric at {lam} is numerically singular (eigenvalues {eigvals})")
    return MetricTensor(matrix=G)


def christoffel(dictionary: Dictionary, lam: ParamPoint) -> np.ndarray:
    """Connection coefficients Gamma[k, i, j] = G^(kl) <d_ij g, d_l g>, from one jet."""
    _, d1, d2 = dictionary.jet(lam, 2)
    g = _gram(lam, d1)
    P = g.P
    A = (d2.reshape(P * P, -1) @ d1.reshape(P, -1).T).reshape(P, P, P)  # <d_ij g, d_l g>
    return np.einsum("kl,ijl->kij", g.inverse, A)


def curvature_bracket(dictionary: Dictionary, lam: ParamPoint) -> float:
    """Contraction <d_ij g, d_kl g> G^(ik) G^(jl) at one point, from one jet."""
    _, d1, d2 = dictionary.jet(lam, 2)
    g = _gram(lam, d1)
    P = g.P
    S = d2.reshape(P * P, -1)
    H = (S @ S.T).reshape(P, P, P, P)  # H[i, j, k, l] = <d_ij g, d_kl g>
    return float(np.einsum("ijkl,ik,jl->", H, g.inverse, g.inverse))


def condition_bound(dictionary: Dictionary, lam_samples) -> float:
    """Upper bound on the principal-curvature supremum over the samples.

    Returns max over samples of the square root of the second-derivative
    contraction; always at least 1 for a valid dictionary.
    """
    samples = list(lam_samples)
    if not samples:
        raise ValueError("need at least one sample point")
    worst = 0.0
    for lam in samples:
        worst = max(worst, math.sqrt(max(curvature_bracket(dictionary, lam), 0.0)))
    if worst < 1.0 - _CURVATURE_SLACK:
        raise ArithmeticError(
            f"curvature bound {worst} fell below its unit lower bound; "
            "derivative machinery is inconsistent")
    return worst


def path_length(dictionary: Dictionary, lam_a: ParamPoint, lam_b: ParamPoint,
                segments: int = 16) -> float:
    """Length of the straight parameter segment from lam_a to lam_b.

    Riemann sum of sqrt(d_lambda^T G d_lambda) with the metric evaluated at
    segment midpoints; an upper bound on the geodesic distance that refines
    as `segments` grows. Raises if the segment leaves the domain.
    """
    if segments < 1:
        raise ValueError("segment count must be at least 1")
    if not len(lam_a) == len(lam_b) == dictionary.P:
        raise ValueError(f"a path between points of {len(lam_a)} and {len(lam_b)} "
                         f"coordinates on a dictionary of {dictionary.P} parameters")
    start = np.asarray(lam_a.coords, dtype=np.float64)
    delta = (np.asarray(lam_b.coords, dtype=np.float64) - start) / segments
    if not np.any(delta):
        return 0.0
    total = 0.0
    for k in range(segments):
        mid = start + (k + 0.5) * delta
        g = metric(dictionary, ParamPoint(mid))
        total += g.norm(delta)
    return total


def density_radius(dictionary: Dictionary, grid, probes, segments: int = 4) -> float:
    """Monte-Carlo estimate of the covering radius of a grid.

    For each probe, finds the nearest grid points under the local quadratic
    proxy d^2 ~ (k - lambda)^T G(lambda) (k - lambda), refines the best few
    with path lengths, and returns the max over probes of the min distance.
    Angles are pi-periodic, so each grid point is measured at its
    representative whose angles lie within pi/2 of the probe's. A lower
    bound on the true sup-inf, since probes sample the domain.

    The grid comes as its `factors()`, a product of positions and slabs of
    other coordinates. A slab's proxy over continuous positions is at least
    d_o^T (G_oo - G_op G_pp^-1 G_po) d_o, the Schur complement of the
    position block, so a probe builds the proxy (`_block_proxy`) only for
    the slabs whose bound, less a rounding margin, reaches the
    `_PATH_CANDIDATES`-th smallest proxy, visiting them by ascending bound
    (`_candidates`): no point of another slab can be a candidate. With no
    position columns (a `TauAdicGrid`) each slab is one point and its bound
    is its proxy.

    The max-min is pruned exactly: every probe's candidates are found
    first, then the probes are refined farthest first (in descending order
    of their nearest candidate's proxy, ties to the lower probe index),
    each probe's candidates nearest first by proxy (ties to the lower grid
    index), and a probe stops once its running min is at most the running
    max, since it can no longer raise the result. The radius equals that of
    refining every candidate, bit for bit, but a candidate path that cannot
    change it is never evaluated, so a `DomainError` such a path would raise
    does not abort the estimate; which paths are skipped follows this
    order. `segments` must be at least 1.
    """
    positions, others = grid.factors()
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe")
    if segments < 1:
        raise ValueError("segment count must be at least 1")
    t = positions.shape[1]
    # angle columns of `others`: translations lead every dictionary's coordinates
    angles = [i - t for i, kind in enumerate(dictionary.kinds) if kind == ANGLE]
    n_cand = min(_PATH_CANDIDATES, len(positions) * len(others))
    found = [_candidates(metric(dictionary, probe).matrix, positions, others, probe.coords,
                         angles, n_cand) for probe in probes]
    worst = 0.0
    # farthest first: `worst` rises early, so later probes stop at their first path
    for i in sorted(range(len(probes)), key=lambda i: (-found[i][0][0], i)):
        best = math.inf
        for proxy, target in zip(*found[i]):
            if proxy == 0.0:
                best = 0.0
                break
            best = min(best, path_length(dictionary, probes[i], ParamPoint(target), segments))
            if best <= worst:  # this probe can no longer raise the max
                break
        worst = max(worst, best)
    return worst


def _candidates(G: np.ndarray, positions: np.ndarray, others: np.ndarray, x: np.ndarray,
                angles, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The `count` grid points nearest to `x` by proxy, nearest first with
    ties to the lower grid index, as their proxies and their coordinate rows
    (angles wrapped as `_block_proxy` wraps them). Slabs are built by
    ascending bound in two rounds: the fewest slabs of lowest bound that
    hold `count` points, then every other slab whose bound reaches the
    `count`-th smallest proxy so far. A slab whose bound exceeds it cannot
    hold a candidate, and the running `count`-th proxy only falls."""
    t, n_pos = positions.shape[1], len(positions)
    do, _ = _offsets(others, x[t:], angles)
    low = _slab_bounds(G, t, do)
    built = np.zeros(len(others), dtype=bool)
    wrapped = np.empty_like(others)
    proxies, index = np.empty(0), np.empty(0, dtype=np.intp)
    first = -(-count // n_pos)
    todo = np.argpartition(low, first - 1)[:first]
    while len(todo):
        block, wrapped[todo] = _block_proxy(G, positions, others[todo], x, angles)
        built[todo] = True
        k = min(count, block.size) - 1
        keep = np.flatnonzero(block <= np.partition(block, k, axis=None)[k])  # ties included
        proxies = np.concatenate([proxies, block.ravel()[keep]])
        index = np.concatenate([index, todo[keep // n_pos] * n_pos + keep % n_pos])
        top = np.lexsort((index, proxies))[:count]
        proxies, index = proxies[top], index[top]
        todo = np.flatnonzero((low <= proxies[-1]) & ~built)
    slab, pos = np.divmod(index, n_pos)
    return proxies, np.hstack([positions[pos], wrapped[slab]])


def _offsets(others: np.ndarray, x: np.ndarray, angles) -> tuple[np.ndarray, np.ndarray]:
    """`others` less the probe's coordinates `x`, and `others` itself, with
    the `angles` columns moved by whole turns of pi to within pi/2 of `x`."""
    do = others - x
    turns = np.floor(do[:, angles] / math.pi + 0.5) * math.pi
    do[:, angles] -= turns
    wrapped = others.copy()
    wrapped[:, angles] -= turns
    return do, wrapped


def _slab_bounds(G: np.ndarray, t: int, do: np.ndarray) -> np.ndarray:
    """A lower bound on every proxy `_block_proxy` computes in each slab, whose
    offsets from the probe are the rows of `do`: the proxy's minimum over
    continuous positions, d_o^T G_oo d_o - w^T G_pp^-1 w with w = G_po d_o,
    less `_BOUND_RTOL` times d_o^T G_oo d_o for rounding."""
    q = np.einsum("nq,nq->n", do @ G[t:, t:], do)
    w = do @ G[t:, :t]
    return q - np.einsum("nt,tn->n", w, np.linalg.solve(G[:t, :t], w.T)) - _BOUND_RTOL * q


def _block_proxy(G: np.ndarray, positions: np.ndarray, others: np.ndarray, x: np.ndarray,
                 angles) -> tuple[np.ndarray, np.ndarray]:
    """The quadratic proxy (k - x)^T G (k - x) of every grid point k of the
    product `positions` x `others`, as an (others, positions) array, with
    `others` angle-wrapped to within pi/2 of the probe `x` (the `angles`
    index its columns). With d = (d_p, d_o) the proxy is
    d_p^T G_pp d_p + 2 d_o^T G_op d_p + d_o^T G_oo d_o. Each row is the same
    floats whatever other rows come with it: the cross term is a sum of
    outer products, one per position column, not a matrix product, whose
    BLAS kernel (and rounding) changes with the number of rows."""
    t = positions.shape[1]
    dp = positions - x[:t]
    do, wrapped = _offsets(others, x[t:], angles)
    c = do @ G[t:, :t]
    proxy = np.zeros((len(others), len(positions)))
    for j in range(t):
        proxy += np.multiply.outer(c[:, j], dp[:, j])
    proxy *= 2.0
    proxy += np.einsum("np,np->n", dp @ G[:t, :t], dp)
    proxy += np.einsum("nq,nq->n", do @ G[t:, t:], do)[:, None]
    return proxy, wrapped


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
