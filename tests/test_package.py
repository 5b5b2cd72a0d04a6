"""The package namespace: every name in a module's __all__, re-exported."""

import collindiag
from collindiag import dataset, diagnostics, fixtures, linalg, ols, perturb

MODULES = (dataset, diagnostics, fixtures, linalg, ols, perturb)

# collindiag.__all__ when it was a hand-written list; each name must stay
EARLIER_PUBLIC_NAMES = (
    "ColumnRole", "Dataset", "DesignMatrix", "design_matrix", "load_csv",
    "response_vector",
    "DEFAULT_THRESHOLDS", "CnReport", "CorrelationReport", "DiagnosticsReport", "SlmReport",
    "StewartReport", "Thresholds", "cn_severity", "cns", "coefficient_of_variation",
    "coefficients_of_variation", "condition_number", "correlation_matrix", "multicol",
    "proportion_of_ones", "slm", "stewart_index", "vif",
    "FIXTURE_NAMES", "fixture",
    "SingularMatrixError", "least_squares", "unit_length_scale",
    "ContradictionVerdict", "OLSFit", "f_cdf", "ols_fit", "significance_contradiction", "t_cdf",
    "PerturbConfig", "PerturbResult", "SummaryStats", "perturb_column", "perturb_n",
    "perturb_once",
    "__version__",
)


def test_all_is_the_modules_lists():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert collindiag.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_each_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(collindiag, name) is getattr(module, name), (module.__name__, name)


def test_earlier_public_names_stay():
    for name in EARLIER_PUBLIC_NAMES:
        assert name in collindiag.__all__ and hasattr(collindiag, name), name
