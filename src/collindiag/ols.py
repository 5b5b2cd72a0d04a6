"""Ordinary least squares with the inference summary regression tables
need: coefficient standard errors, t and F statistics with p-values, and
the joint-vs-individual significance contradiction that flags
problematic near multicollinearity.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dataset import DesignMatrix

__all__ = [
    "OLSFit",
    "ContradictionVerdict",
    "ols_fit",
    "significance_contradiction",
    "t_cdf",
    "f_cdf",
]


@dataclass(frozen=True)
class OLSFit:
    labels: tuple[str, ...]
    beta: np.ndarray
    se: np.ndarray
    t: np.ndarray
    p: np.ndarray
    sigma: float
    df_resid: int
    r2: float
    adj_r2: float
    f_stat: float
    f_p: float
    residuals: np.ndarray


@dataclass(frozen=True)
class ContradictionVerdict:
    contradiction: bool
    alpha: float
    f_p: float
    min_coef_p: float
    description: str


# ---------------------------------------------------------------------------
# Regularized incomplete beta function and the CDFs built on it.

_BETA_EPS = 3e-16
_BETA_FPMIN = 1e-300
_BETA_MAXIT = 500


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function, evaluated by
    the modified Lentz method."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAXIT + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),  # the even, then the odd step
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _BETA_FPMIN:
                d = _BETA_FPMIN
            c = 1.0 + aa / c
            if abs(c) < _BETA_FPMIN:
                c = _BETA_FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b).  Its relative error grows
    with the shape parameters: for the two-sided t p-value at t = 3,
    against 50-digit mpmath, it is ~1e-13 at df = 1e3, 2.1e-11 at
    df = 1e5, 5.3e-10 at df = 1e6 and 2.3e-9 at df = 1e7.  Its callers
    check that a and b are finite and positive."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # the continued fraction converges fast only left of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|), T ~ t(df), as I_x(df/2, 1/2) at x = df/(df + t^2): no cancelling against 1."""
    if math.isnan(t):
        return math.nan
    return _betainc(0.5 * df, 0.5, df / (df + t * t))


def t_cdf(x: float, df: float) -> float:
    """CDF of the Student t distribution with df degrees of freedom."""
    if not 0.0 < df < math.inf:
        raise ValueError("degrees of freedom must be finite and positive")
    tail = 0.5 * _two_sided_p(x, df)
    return 1.0 - tail if x >= 0 else tail


def f_cdf(x: float, d1: float, d2: float) -> float:
    """CDF of the F distribution with (d1, d2) degrees of freedom."""
    if not (0.0 < d1 < math.inf and 0.0 < d2 < math.inf):
        raise ValueError("degrees of freedom must be finite and positive")
    if math.isnan(x):
        return math.nan
    if x <= 0:
        return 0.0
    if math.isinf(x):
        return 1.0
    return _betainc(0.5 * d1, 0.5 * d2, d1 * x / (d1 * x + d2))


# ---------------------------------------------------------------------------


def ols_fit(y, X: DesignMatrix) -> OLSFit:
    """Fit y on X by OLS and compute the full inference summary.

    Requires an intercept (the total sum of squares is centered), a
    regressor besides it, and more observations than columns.  One QR
    of [X | y] gives everything: beta from its leading block R_k, sigma
    from |R[k, k]|, and each standard error as sigma times a row norm of
    R_k^-1.  An exact fit yields sigma = 0, R^2 = 1 and an infinite F
    statistic with p-value 0.
    """
    yv = np.asarray(y, dtype=float)
    n, k = X.n, X.k
    if not X.intercept_present or k < 2:
        raise ValueError("OLS inference needs an intercept column and a regressor besides it")
    if n <= k:
        raise ValueError(f"need more observations ({n}) than columns ({k})")

    beta, R, Rk_inv = linalg._fit(X.X, yv)
    rnorm = float(abs(R[k, k]))
    residuals = yv - X.X @ beta
    # norms, not sums of squares, so a response scaled far from 1 neither
    # overflows nor underflows; sigma, R^2 and F come from their ratio
    cnorm = float(linalg._norms(yv - yv.mean()))
    if cnorm == 0.0:
        raise ValueError("response is constant; nothing to fit")

    df_resid = n - k
    sigma = rnorm / math.sqrt(df_resid)
    se = sigma * linalg._norms(Rk_inv)  # cov = sigma^2 (R'R)^-1

    with np.errstate(divide="ignore", invalid="ignore"):
        t = beta / se  # +-inf, or nan for a zero beta, where se = 0
    p = np.array([_two_sided_p(ti, df_resid) for ti in t])

    unexplained = float(rnorm / cnorm) ** 2  # RSS / TSS
    r2 = 1.0 - unexplained
    adj_r2 = 1.0 - unexplained * (n - 1) / df_resid
    if rnorm == 0.0:
        f_stat, f_p = math.inf, 0.0
    else:
        f_stat = (r2 / (k - 1)) / (unexplained / df_resid)
        f_p = _betainc(0.5 * df_resid, 0.5 * (k - 1), df_resid / (df_resid + (k - 1) * f_stat))

    return OLSFit(
        labels=X.labels,
        beta=beta,
        se=se,
        t=t,
        p=p,
        sigma=sigma,
        df_resid=df_resid,
        r2=r2,
        adj_r2=adj_r2,
        f_stat=f_stat,
        f_p=f_p,
        residuals=residuals,
    )


def significance_contradiction(fit: OLSFit, alpha: float = 0.05) -> ContradictionVerdict:
    """Detect a jointly significant model in which no individual
    non-intercept coefficient is significant at the same alpha.

    That pattern is a symptom of problematic near multicollinearity.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    min_p = float(fit.p[1:].min())  # ols_fit puts the intercept first, a regressor after it
    contradiction = fit.f_p < alpha and min_p >= alpha
    if contradiction:
        description = (
            f"joint F test is significant at alpha={alpha:g} (p={fit.f_p:.7g}) "
            f"but no individual coefficient is (smallest p={min_p:.7g})"
        )
    else:
        description = "no apparent contradiction"
    return ContradictionVerdict(
        contradiction=contradiction,
        alpha=alpha,
        f_p=fit.f_p,
        min_coef_p=min_p,
        description=description,
    )
