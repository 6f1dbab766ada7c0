"""Matching pursuit over continuously parametrized dictionaries.

Discrete pursuit runs an exact full search over a parameter grid: an FFT
correlation per slab of a 2-D grid, a pruned windowed correlation per
level of a 1-D grid. The geometrically refined variant polishes each
selected atom by gradient ascent on the dictionary's parameter manifold.
A geometry toolkit (pullback metric, connection coefficients, curvature
bound, density radius, effective weakness factors) quantifies what a
given discretization costs.
"""

from .affine1d import (GAUSSIAN, MEXICAN_HAT, Affine1DDictionary, MotherFunction,
                       TauAdicGrid, tau_grid_for_signal)
from .aniso2d import Aniso2DDictionary, Grid2DSpec
from .core import (PSNR_CAP, SignalBuffer, inner_product, load_signal, psnr,
                   save_signal)
from .dictionaries import (ANGLE, SCALE, TRANSLATION, Dictionary, DomainError,
                           ParamPoint)
from .experiments import (BurstSignalSpec, CurveResult, NAEResult, beta_surrogate,
                          convergence_curve, experiment_grid, image_harness,
                          make_test_image, nae, selection_score)
from .geometry import (DegenerateMetricError, MetricTensor, WeaknessReport,
                       christoffel, condition_bound, curvature_bracket,
                       density_radius, metric, path_length, weakness_factors)
from .pursuit import (AscentResult, Decomposition, DecompositionStep, PursuitConfig,
                      ScoreGradient, full_search, gradient, gradient_ascent,
                      grid_scores, reconstruct, run, score, select)

__version__ = "0.1.0"

__all__ = [
    "ANGLE", "Affine1DDictionary", "Aniso2DDictionary", "AscentResult",
    "BurstSignalSpec", "CurveResult", "Decomposition", "DecompositionStep",
    "DegenerateMetricError", "Dictionary", "DomainError", "GAUSSIAN",
    "Grid2DSpec", "MEXICAN_HAT", "MetricTensor", "MotherFunction", "NAEResult",
    "PSNR_CAP", "ParamPoint", "PursuitConfig", "SCALE", "ScoreGradient",
    "SignalBuffer", "TRANSLATION", "TauAdicGrid",
    "WeaknessReport", "beta_surrogate", "christoffel", "condition_bound",
    "convergence_curve", "curvature_bracket", "density_radius",
    "experiment_grid", "full_search",
    "gradient", "gradient_ascent", "grid_scores", "image_harness", "inner_product",
    "load_signal", "make_test_image", "metric",
    "nae", "path_length", "psnr", "reconstruct", "run", "save_signal", "score",
    "select", "selection_score", "tau_grid_for_signal", "weakness_factors",
]
