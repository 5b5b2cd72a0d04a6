"""Detection and characterization of near multicollinearity in linear
regression design matrices.

Measures: pairwise correlations and the determinant of the correlation
matrix, variance inflation factors, condition numbers with and without
the intercept, Stewart collinearity indexes with the
essential/nonessential split, coefficients of variation, dummy
proportions, a simple-linear-model bundle, OLS inference with the
joint-vs-individual significance contradiction, and a Monte Carlo
perturbation experiment for coefficient stability.
"""

from . import dataset, diagnostics, fixtures, linalg, ols, perturb
from .dataset import *  # noqa: F403 -- each module's __all__ is its public API
from .diagnostics import *  # noqa: F403
from .fixtures import *  # noqa: F403
from .linalg import *  # noqa: F403
from .ols import *  # noqa: F403
from .perturb import *  # noqa: F403

__version__ = "1.0.0"

__all__ = [name for module in (dataset, diagnostics, fixtures, linalg, ols, perturb)
           for name in module.__all__] + ["__version__"]
