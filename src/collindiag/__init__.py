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

from .dataset import (
    Column,
    ColumnRole,
    Dataset,
    DesignMatrix,
    design_matrix,
    load_csv,
    response_vector,
)
from .diagnostics import (
    DEFAULT_THRESHOLDS,
    CnReport,
    CorrelationReport,
    DiagnosticsReport,
    SlmReport,
    StewartReport,
    Thresholds,
    cn_severity,
    cns,
    coefficient_of_variation,
    coefficients_of_variation,
    condition_number,
    correlation_matrix,
    multicol,
    proportion_of_ones,
    slm,
    stewart_index,
    vif,
)
from .fixtures import FIXTURE_NAMES, fixture
from .linalg import SingularMatrixError, least_squares, unit_length_scale
from .ols import (
    ContradictionVerdict,
    OLSFit,
    f_cdf,
    ols_fit,
    significance_contradiction,
    t_cdf,
)
from .perturb import (
    PerturbConfig,
    PerturbResult,
    SummaryStats,
    perturb_column,
    perturb_n,
    perturb_once,
)

__version__ = "1.0.0"

__all__ = [
    "Column",
    "ColumnRole",
    "Dataset",
    "DesignMatrix",
    "design_matrix",
    "load_csv",
    "response_vector",
    "DEFAULT_THRESHOLDS",
    "CnReport",
    "CorrelationReport",
    "DiagnosticsReport",
    "SlmReport",
    "StewartReport",
    "Thresholds",
    "cn_severity",
    "cns",
    "coefficient_of_variation",
    "coefficients_of_variation",
    "condition_number",
    "correlation_matrix",
    "multicol",
    "proportion_of_ones",
    "slm",
    "stewart_index",
    "vif",
    "FIXTURE_NAMES",
    "fixture",
    "SingularMatrixError",
    "least_squares",
    "unit_length_scale",
    "ContradictionVerdict",
    "OLSFit",
    "f_cdf",
    "ols_fit",
    "significance_contradiction",
    "t_cdf",
    "PerturbConfig",
    "PerturbResult",
    "SummaryStats",
    "perturb_column",
    "perturb_n",
    "perturb_once",
    "__version__",
]
