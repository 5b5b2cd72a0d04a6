"""Near-multicollinearity detection measures with thresholds and verdicts.

Variable roles drive what enters each measure: the correlation matrix,
VIFs and the Stewart index use quantitative regressors only, the
condition number uses every column including intercept and dummies, and
dummies get a proportion-of-ones summary instead of a coefficient of
variation.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dataset import DesignMatrix, _not_utf8

__all__ = [
    "Thresholds",
    "DEFAULT_THRESHOLDS",
    "CorrelationReport",
    "CnReport",
    "StewartReport",
    "SlmReport",
    "DiagnosticsReport",
    "correlation_matrix",
    "vif",
    "condition_number",
    "cns",
    "cn_severity",
    "stewart_index",
    "coefficient_of_variation",
    "coefficients_of_variation",
    "proportion_of_ones",
    "slm",
    "multicol",
]

NEED_TWO_QUANTITATIVE = (
    "At least two quantitative independent variables are needed (excluding the intercept)"
)
NEED_ONE_QUANTITATIVE = (
    "At least one quantitative independent variable is needed (excluding the intercept)"
)
NEED_ONE_DUMMY = (
    "At least one qualitative independent variable is needed (excluding the intercept)"
)
SLM_NEEDS_TWO_COLUMNS = "Only 2 independent variables are needed (including the intercept)"
NEED_INTERCEPT = "an intercept column is needed for the with/without intercept comparison"
CENTERED_CV_MESSAGE = (
    "CV undefined: the variable is centered, so nonessential collinearity is impossible"
)


class _Inapplicable(ValueError):
    """The design lacks the columns a measure needs; multicol notes it."""


@dataclass(frozen=True)
class Thresholds:
    """Decision thresholds for every measure; defaults are the customary ones.

    The det(R) cutoff is the affine function
    det_r_intercept_a + det_r_n_coef * n - det_r_k_coef * k
    evaluated at the number of observations n and the number of
    quantitative regressors k.
    """

    pairwise_corr: float = 0.9486833
    det_r_intercept_a: float = 0.1013
    det_r_n_coef: float = 0.00008626
    det_r_k_coef: float = 0.01384
    vif_limit: float = 10.0
    cn_moderate: float = 20.0
    cn_severe: float = 30.0
    cv_limit: float = 0.1002506

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"threshold {f.name} must be finite")
            if getattr(self, f.name) <= 0:
                raise ValueError(f"threshold {f.name} must be positive")
        if self.cn_moderate >= self.cn_severe:
            raise ValueError("cn_moderate must be below cn_severe")

    @classmethod
    def from_file(cls, path) -> "Thresholds":
        """The defaults with the overrides in a file of `name = value` lines,
        each name at most once; '#' starts a comment.  Errors name the file and line."""
        valid = {f.name for f in dataclasses.fields(cls)}
        overrides: dict[str, float] = {}
        set_on: dict[str, int] = {}  # name -> the line that set it
        try:
            with open(path, encoding="utf-8-sig") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError:
            raise _not_utf8(path, "utf-8-sig") from None
        for lineno, line in enumerate(lines, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep or not key:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            if key not in valid:
                raise ValueError(f"{path}:{lineno}: unknown threshold {key!r}")
            if key in set_on:
                raise ValueError(
                    f"{path}:{lineno}: threshold {key!r} already set on line {set_on[key]}")
            set_on[key] = lineno
            try:
                overrides[key] = float(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {value!r}") from None
        try:
            return cls(**overrides)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def det_r_threshold(self, n: int, n_quantitative: int) -> float:
        return self.det_r_intercept_a + self.det_r_n_coef * n - self.det_r_k_coef * n_quantitative


DEFAULT_THRESHOLDS = Thresholds()


@dataclass(frozen=True)
class CorrelationReport:
    """Pairwise correlations among quantitative regressors and det(R)."""

    labels: tuple[str, ...]
    r: np.ndarray
    det_r: float
    det_threshold: float
    flagged_pairs: tuple[tuple[str, str, float], ...]
    problematic_pairs: bool
    problematic_det: bool

    @property
    def problematic(self) -> bool:
        return self.problematic_pairs or self.problematic_det


@dataclass(frozen=True)
class CnReport:
    cn_without: float
    cn_with: float
    increase_pct: float


@dataclass(frozen=True)
class StewartReport:
    """Stewart collinearity indexes k_i^2 and the essential split.

    k2 carries one entry per column of the intercept-plus-quantitative
    submatrix (intercept first when present), labels the design's labels
    of those columns.  essential_pct and nonessential_pct cover the
    quantitative entries only, the last ones, and are None without an
    intercept or when fewer than two quantitative regressors exist.
    """

    labels: tuple[str, ...]
    k2: np.ndarray
    essential_pct: np.ndarray | None
    nonessential_pct: np.ndarray | None


@dataclass(frozen=True)
class SlmReport:
    """Diagnostics for a model with an intercept and a single regressor."""

    label: str
    is_dummy: bool
    cn: float
    cv: float | None = None
    vif: float | None = None
    k2: tuple[float, float] | None = None
    ones_pct: float | None = None


@dataclass(frozen=True)
class DiagnosticsReport:
    """Bundle of every applicable measure for one design matrix.

    Inapplicable sections are None, with the guidance text recorded in
    notes under the section name.
    """

    cv: tuple[tuple[str, float | None], ...] | None
    dummy_pct: tuple[tuple[str, float], ...] | None
    correlation: CorrelationReport | None
    vifs: tuple[tuple[str, float], ...] | None
    cn: CnReport | None
    stewart: StewartReport | None
    notes: dict[str, str]


def _once(fn):
    """fn(X, *args), computed once per design and kept read-only in
    X._shared.  An exception is not kept: the next call raises it again."""
    def shared(X: DesignMatrix, *args):
        key = (fn.__name__, *args)
        if key not in X._shared:
            value = fn(X, *args)
            for a in value if isinstance(value, tuple) else (value,):
                a.flags.writeable = False
            X._shared[key] = value
        return X._shared[key]
    return shared


@_once
def _block_svd(X: DesignMatrix, cols: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Scaled SVD (s, Vt) of the columns cols of X.factors, past the cut."""
    return linalg.scaled_svd(X.factors.take(cols, axis=1), X.n)


@_once
def _quant_stats(X: DesignMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient of variation and centered flag (see _cvs) of each
    quantitative column, from one copy of them."""
    return _cvs(X.X.T[list(X.quantitative_idx)])


def _centered_factor(X: DesignMatrix) -> np.ndarray:
    """T with T'T = C'C, C the centered quantitative columns: their block of
    X.factors below its first row (see DesignMatrix.factors)."""
    return X.factors[1:, list(X.quantitative_idx)]


@_once
def _centered_svd(X: DesignMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Scaled SVD (s, Vt) of the centered factor T, past the cut.  The ones
    column (see DesignMatrix.factors) and the quantitative columns must pass
    too, so that the VIFs keep the rank rule of every other measure."""
    _block_svd(X, (0 if X.intercept_present else X.k, *X.quantitative_idx))
    return linalg.scaled_svd(_centered_factor(X), X.n)


def _pearson(T: np.ndarray) -> tuple[np.ndarray, float]:
    """Correlation matrix and its determinant from the centered factor.

    A T with fewer rows than columns leaves R singular by its shape, so
    its det(R) is exactly 0, not rounding noise of either sign.
    """
    U = T / linalg._norms(T.T)
    R = U.T @ U
    np.fill_diagonal(R, 1.0)
    R = (R + R.T) / 2.0
    return R, 0.0 if len(T) < T.shape[1] else float(np.linalg.det(R))


def correlation_matrix(X: DesignMatrix, thresholds: Thresholds = DEFAULT_THRESHOLDS) -> CorrelationReport:
    """Correlation matrix over the quantitative regressors, with det(R).

    Intercept and dummy columns never enter.  Pairs with |r| above
    thresholds.pairwise_corr are flagged; det(R) below the affine cutoff
    evaluated at (n, number of quantitative regressors) is flagged too.
    """
    labels = X.quantitative_labels
    if len(labels) < 2:
        raise _Inapplicable(NEED_TWO_QUANTITATIVE)
    R, det_r = _pearson(_centered_factor(X))
    det_threshold = thresholds.det_r_threshold(X.n, len(labels))
    flagged = tuple(
        (labels[i], labels[j], float(R[i, j]))
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
        if abs(R[i, j]) > thresholds.pairwise_corr
    )
    return CorrelationReport(
        labels=labels,
        r=R,
        det_r=det_r,
        det_threshold=det_threshold,
        flagged_pairs=flagged,
        problematic_pairs=bool(flagged),
        problematic_det=det_r < det_threshold,
    )


def vif(X: DesignMatrix) -> tuple[tuple[str, float], ...]:
    """Variance inflation factors: diagonal of the inverted correlation
    matrix of the quantitative regressors, from the SVD of the
    unit-scaled centered block.  Past the singular cut it raises
    linalg.scaled_svd's SingularMatrixError, as every measure does: no pair is named."""
    labels = X.quantitative_labels
    if len(labels) < 2:
        raise _Inapplicable(NEED_TWO_QUANTITATIVE)
    return tuple(zip(labels, linalg._inverse_diag(*_centered_svd(X)).tolist()))


def condition_number(X: DesignMatrix, include_intercept: bool = True) -> float:
    """Condition number s_max / s_min of X after scaling every column to
    unit length, from the singular values of the same block of X.factors.

    Dummy columns are included.  include_intercept=False drops the
    intercept column before scaling.
    """
    cols = tuple(range(X.k)) if include_intercept else X.non_intercept_idx
    if not cols:
        raise ValueError("no columns left for the condition number")
    s, _ = _block_svd(X, cols)
    return float(s[0] / s[-1])


def cns(X: DesignMatrix) -> CnReport:
    """Condition numbers with and without the intercept and the
    percentage increase 100 * (with - without) / with."""
    if not X.intercept_present:
        raise _Inapplicable(NEED_INTERCEPT)
    cn_with = condition_number(X, include_intercept=True)
    cn_without = condition_number(X, include_intercept=False)
    return CnReport(
        cn_without=cn_without,
        cn_with=cn_with,
        increase_pct=100.0 * (cn_with - cn_without) / cn_with,
    )


def cn_severity(cn: float, thresholds: Thresholds = DEFAULT_THRESHOLDS) -> str:
    """Three-level verdict for a condition number: none, moderate, severe."""
    if cn > thresholds.cn_severe:
        return "severe"
    if cn >= thresholds.cn_moderate:
        return "moderate"
    return "none"


def stewart_index(X: DesignMatrix) -> StewartReport:
    """Stewart indexes k_i^2 = ||x_i||^2 [(X'X)^-1]_ii over the
    intercept-plus-quantitative submatrix, from the SVD of its
    unit-scaled block of X.factors.

    Dummies are excluded throughout.  With an intercept and at least two
    quantitative regressors, the essential percentage 100 * VIF(i) / k_i^2
    and its complement are reported per quantitative regressor, from the
    CVs: VIF(i) / k_i^2 = ||q_i - mean(q_i)||^2 / ||q_i||^2 = CV^2 / (1 + CV^2),
    as both divide by the residual sum of the same auxiliary regression.
    """
    q_labels = X.quantitative_labels
    if len(q_labels) < 1:
        raise _Inapplicable(NEED_ONE_QUANTITATIVE)
    cols = (0, *X.quantitative_idx) if X.intercept_present else X.quantitative_idx
    k2 = linalg._inverse_diag(*_block_svd(X, cols))

    essential = nonessential = None
    if len(q_labels) >= 2 and X.intercept_present:
        essential = 100.0 / (1.0 + _quant_stats(X)[0] ** -2.0)  # a zero-mean column: 100
        nonessential = 100.0 - essential
    return StewartReport(labels=tuple(X.labels[i] for i in cols), k2=k2,
                         essential_pct=essential, nonessential_pct=nonessential)


def coefficient_of_variation(col) -> float:
    """Coefficient of variation: standard deviation (divisor n) over the
    absolute mean.  Values below the cv_limit threshold signal
    nonessential collinearity.  A centered column has no CV."""
    x = np.asarray(col, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("expected a nonempty vector")
    linalg._check_columns(x[:, None], ["col"])
    (cv,), (centered,) = _cvs(x[None].copy())
    if centered:
        raise ValueError(CENTERED_CV_MESSAGE)
    return float(cv)


def _cvs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient of variation of each row of rows, which it overwrites,
    and whether the row is centered (its CV is then meaningless)."""
    _, mean = linalg._center(rows.T, out=rows.T)
    sd = linalg._norms(rows) / math.sqrt(rows.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        return sd / np.abs(mean), (mean == 0.0) | (np.abs(mean) < 1e-12 * sd)


def coefficients_of_variation(X: DesignMatrix) -> tuple[tuple[str, float | None], ...]:
    """(label, coefficient of variation) for each quantitative regressor
    of X, in column order; None for a centered regressor, whose CV is
    undefined."""
    if not X.quantitative_idx:
        raise _Inapplicable(NEED_ONE_QUANTITATIVE)
    return tuple((label, None if c else float(v))
                 for label, v, c in zip(X.quantitative_labels, *_quant_stats(X)))


def proportion_of_ones(col) -> float:
    """Percentage of ones in a 0/1 column."""
    x = np.asarray(col, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("expected a nonempty vector")
    if not np.all(np.isin(x, (0.0, 1.0))):
        raise ValueError("column contains values other than 0 and 1")
    return float(100.0 * np.count_nonzero(x == 1.0) / x.size)


def slm(X: DesignMatrix) -> SlmReport:
    """Diagnostics for the simple linear model: intercept plus exactly
    one regressor.

    A quantitative regressor gets CV (None when it is centered), VIF
    (identically 1), CN and the Stewart pair; a dummy gets the proportion
    of ones and CN.
    """
    if X.k != 2 or not X.intercept_present:
        raise ValueError(SLM_NEEDS_TWO_COLUMNS)
    label = X.labels[1]
    cn = condition_number(X, include_intercept=True)
    if X.dummy_idx:
        ((_, ones_pct),) = _dummy_pcts(X)
        return SlmReport(label=label, is_dummy=True, cn=cn, ones_pct=ones_pct)
    ((_, cv),) = coefficients_of_variation(X)
    k2 = stewart_index(X).k2
    return SlmReport(
        label=label,
        is_dummy=False,
        cn=cn,
        cv=cv,
        vif=1.0,
        k2=(float(k2[0]), float(k2[1])),
    )


def _dummy_pcts(X: DesignMatrix) -> tuple[tuple[str, float], ...]:
    """(label, percentage of ones) for each dummy regressor of X."""
    if not X.dummy_idx:
        raise _Inapplicable(NEED_ONE_DUMMY)
    return tuple((X.labels[i], proportion_of_ones(X.X[:, i])) for i in X.dummy_idx)


def multicol(X: DesignMatrix, thresholds: Thresholds = DEFAULT_THRESHOLDS):
    """Every applicable measure for X in one report.

    Dispatches to slm for an intercept-plus-one-regressor design.  A
    section whose measure finds the design lacks the columns it needs is
    set to None, with the measure's message in notes.
    """
    if X.k == 2 and X.intercept_present:
        return slm(X)

    notes: dict[str, str] = {}

    def section(key, compute):
        try:
            return compute(X)
        except _Inapplicable as exc:
            notes[key] = str(exc)
            return None

    return DiagnosticsReport(  # computed in this order, so the same error is raised first
        cv=section("cv", coefficients_of_variation),
        dummy_pct=section("dummy_pct", _dummy_pcts),
        correlation=section("correlation", lambda X: correlation_matrix(X, thresholds)),
        vifs=section("vif", vif),
        cn=section("cn", cns),
        stewart=section("stewart", stewart_index),
        notes=notes,
    )
