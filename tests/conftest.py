"""Shared oracles and helpers, independent of the library's fast paths."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geopursuit as gp

# The directory holding the geopursuit package this session imported.
PACKAGE_ROOT = Path(gp.__file__).resolve().parents[1]


def naive_search(dictionary, residual, grid):
    """Exhaustive reference search: per-atom synthesis and inner products.

    Ties break toward the smallest enumeration index (strict > updates).
    """
    best_p, best_s = None, -1.0
    for lam in grid.points():
        atom = dictionary.synthesize(lam, residual.shape)
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
