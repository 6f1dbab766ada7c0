"""Shared oracles and helpers, independent of the library's fast paths."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geopursuit as gp
from geopursuit import geometry
from geopursuit.affine1d import MOTHERS, affine_jet

# The directory holding the geopursuit package this session imported.
PACKAGE_ROOT = Path(gp.__file__).resolve().parents[1]


class TranslationDictionary(gp.Dictionary):
    """One-parameter dictionary: a fixed-scale mother under translation
    only, a flat manifold for closed-form geometry checks. No grid search
    takes it."""

    def __init__(self, n, scale=1.0, mother="gaussian"):
        self.n = int(n)
        self.shape = (self.n,)
        self.kinds = (gp.TRANSLATION,)
        self.scale = float(scale)
        self.mother = MOTHERS[mother]
        self.scale_range = (self.scale, self.scale)  # no scale coordinate

    def _jet(self, coords, shape, order):
        jet = affine_jet(self.mother, coords[0], self.scale,
                         np.arange(shape[0], dtype=np.float64), order)
        # the translation rows only: the scale is fixed
        return tuple(d[(slice(0, 1),) * k] for k, d in enumerate(jet))


def naive_search(dictionary, residual, grid):
    """Exhaustive reference search: per-atom synthesis and inner products.

    Ties break toward the smallest enumeration index (strict > updates).
    """
    best_p, best_s = None, -1.0
    for lam in grid.points():
        atom = dictionary.synthesize(lam)
        s = gp.inner_product(atom, residual) ** 2
        if s > best_s:
            best_p, best_s = lam, s
    return best_p, best_s


def mexican_hat(s):
    c = 2.0 / (math.sqrt(3.0) * math.pi ** 0.25)
    return c * (1.0 - s * s) * np.exp(-0.5 * s * s)


def quad_inner_product(fn_u, fn_v, lo, hi, oversample=16):
    """Rectangle-rule quadrature of the renormalized product of fn_u, fn_v."""
    dt = 1.0 / oversample
    t = np.arange(lo, hi, dt)
    u = fn_u(t)
    v = fn_v(t)
    u = u / math.sqrt(np.sum(u * u) * dt)
    v = v / math.sqrt(np.sum(v * v) * dt)
    return float(np.sum(u * v) * dt)


def interior_affine_points(dictionary, rng, count, margin_widths=10.0,
                           scale_lo=2.0, scale_hi=None):
    """Random (b, a) whose atom support stays inside the buffer."""
    n = dictionary.shape[0]
    if scale_hi is None:
        scale_hi = n / (4 * margin_widths)
    pts = []
    for _ in range(count):
        a = math.exp(rng.uniform(math.log(scale_lo), math.log(scale_hi)))
        b = rng.uniform(margin_widths * a, n - 1 - margin_widths * a)
        pts.append(dictionary.point(b, a))
    return pts


# Finite-difference steps of the derivative oracle per coordinate kind:
# absolute samples for translations and radians for angles, relative for
# scales. Second-order stencils shrink the step to keep the O(h^2)
# truncation below the tolerances of the tests that use them.
FD_STEP = {gp.TRANSLATION: 1e-3, gp.SCALE: 1e-3, gp.ANGLE: 1e-3}
SECOND_FD_SHRINK = 0.25


def fd_steps(dictionary, lam, order=1):
    """Oracle step per coordinate of `lam` for first (1) or second (2) differences."""
    steps = []
    for x, kind in zip(lam.coords, dictionary.kinds):
        h = FD_STEP[kind] * (SECOND_FD_SHRINK if order > 1 else 1.0)
        steps.append(h * x if kind == gp.SCALE else h)
    return steps


def central_differences(fn, coords, steps):
    """(fn(x + h_i e_i) - fn(x - h_i e_i)) / 2h_i at x = `coords`, stacked
    with one row per coordinate."""
    out = []
    for i, h in enumerate(steps):
        e = np.zeros(len(coords))
        e[i] = h
        out.append((fn(coords + e) - fn(coords - e)) / (2 * h))
    return np.array(out)


def _synthesized(dictionary):
    """The renormalized atom as a function of raw coordinates."""
    return lambda coords: dictionary.synthesize(gp.ParamPoint(coords)).data


def fd_partials(dictionary, lam):
    """Derivative oracle: central differences of the renormalized synthesis."""
    return central_differences(_synthesized(dictionary), lam.coords,
                               fd_steps(dictionary, lam))


def fd_second_partials(dictionary, lam):
    """Second-derivative oracle: three-point and four-point central stencils
    on the renormalized synthesis, as a symmetric (P, P, *shape) stack."""
    atom = _synthesized(dictionary)
    x = lam.coords
    steps = fd_steps(dictionary, lam, order=2)
    basis = np.diag(steps)
    P = len(steps)
    g0 = atom(x)
    mat = np.empty((P, P) + g0.shape)
    for i in range(P):
        hi, ei = steps[i], basis[i]
        mat[i, i] = (atom(x + ei) - 2 * g0 + atom(x - ei)) / (hi * hi)
        for j in range(i + 1, P):
            hj, ej = steps[j], basis[j]
            mat[i, j] = mat[j, i] = (atom(x + ei + ej) - atom(x + ei - ej)
                                     - atom(x - ei + ej) + atom(x - ei - ej)) / (4 * hi * hj)
    return mat


def dense_proxy(dictionary, grid, probe, matrix):
    """Density-proxy oracle: (k - x)^T G (k - x) for every point k of the
    grid's enumeration, one full coordinate row per point, with each row's
    angle differences wrapped into [-pi/2, pi/2) (angles are pi-periodic)."""
    coords = np.array([p.coords for p in grid.points()])
    angles = [i for i, kind in enumerate(dictionary.kinds) if kind == gp.ANGLE]
    deltas = coords - probe.coords
    deltas[:, angles] -= np.floor(deltas[:, angles] / math.pi + 0.5) * math.pi
    return np.einsum("np,np->n", deltas @ matrix, deltas)


def exhaustive_density_radius(dictionary, grid, probes, segments=4):
    """Density-radius oracle without pruning: for every probe, refine every
    one of its `_PATH_CANDIDATES` proxy-nearest grid points by a path
    length, in grid order, and return the max over probes of the min."""
    positions, others = grid.factors()
    t = positions.shape[1]
    angles = [i - t for i, kind in enumerate(dictionary.kinds) if kind == gp.ANGLE]
    n_cand = min(geometry._PATH_CANDIDATES, len(positions) * len(others))
    worst = 0.0
    for probe in probes:
        g = gp.metric(dictionary, probe)
        proxy, wrapped = geometry._block_proxy(g.matrix, positions, others, probe.coords,
                                               angles)
        nearest = np.argpartition(proxy, n_cand - 1, axis=None)[:n_cand]
        best = math.inf
        for idx in sorted(nearest):
            s, p = divmod(int(idx), len(positions))
            if proxy[s, p] == 0.0:
                best = 0.0
                break
            target = gp.ParamPoint(np.concatenate([positions[p], wrapped[s]]))
            best = min(best, gp.path_length(dictionary, probe, target, segments))
        worst = max(worst, best)
    return worst


def child_env(env=None):
    """Environment for a child interpreter that imports the same geopursuit
    package as this session, from any working directory and whether or not
    the package is installed: PACKAGE_ROOT goes first on its PYTHONPATH,
    ahead of any inherited entries. `env` holds extra variables laid over
    the current environment.
    """
    out = {**os.environ, **(env or {})}
    out["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), out.get("PYTHONPATH")]))
    return out


def run_cli(args, cwd=None, env=None):
    """Run `python -m geopursuit.cli *args` in a child interpreter with
    `child_env(env)`, from `cwd`."""
    out = subprocess.run([sys.executable, "-m", "geopursuit.cli", *args],
                         cwd=cwd, env=child_env(env), capture_output=True, text=True)
    if "No module named 'geopursuit" in out.stderr:
        pytest.fail(f"child interpreter could not import geopursuit:\n{out.stderr}")
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
