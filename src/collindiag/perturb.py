"""Monte Carlo perturbation analysis of coefficient stability.

Each selected quantitative column x is replaced by
x_p = x + tol * r * ||x|| / ||r||, which makes the relative change
||x_p - x|| / ||x|| equal tol exactly, whatever the noise draw r.  The
model is refit and the relative coefficient displacement recorded; over
many iterations an unstable (collinear) model shows displacements far
larger than the perturbation that caused them.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dataset import DesignMatrix

__all__ = [
    "PerturbConfig",
    "SummaryStats",
    "PerturbResult",
    "perturb_column",
    "perturb_once",
    "perturb_n",
]

log = logging.getLogger(__name__)

_MAX_RETRIES = 10


@dataclass(frozen=True)
class PerturbConfig:
    """Settings for a perturbation experiment.

    positions are 1-based and count regressors excluding the intercept
    (position 1 is the first column after the intercept); empty means
    every quantitative regressor.  Only the direction of the noise
    matters because the perturbation formula rescales it, so noise_mean
    and noise_sd barely affect the results.
    """

    tol: float = 0.01
    iterations: int = 5000
    noise_mean: float = 10.0
    noise_sd: float = 10.0
    positions: tuple[int, ...] = ()
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(int(p) for p in self.positions))
        for name in ("tol", "noise_mean", "noise_sd"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        repeated = sorted({p for p in self.positions if self.positions.count(p) > 1})
        if repeated:
            raise ValueError(f"position {repeated[0]} given more than once")
        if not self.tol >= 0.0:
            raise ValueError("tol must be nonnegative")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not self.noise_sd > 0.0:
            raise ValueError("noise_sd must be positive")


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    sd: float
    min: float
    max: float
    q2_5: float
    q97_5: float


@dataclass(frozen=True)
class PerturbResult:
    """Per-iteration achieved perturbation and coefficient change, both
    in percent, with their summaries."""

    achieved_pct: np.ndarray
    change_pct: np.ndarray
    achieved_summary: SummaryStats
    change_summary: SummaryStats


def perturb_column(x, tol: float, r) -> np.ndarray:
    """Perturb x along direction r so that ||x_p - x|| / ||x|| = tol."""
    xv = np.asarray(x, dtype=float)
    rv = np.asarray(r, dtype=float)
    if xv.shape != rv.shape:
        raise ValueError("x and r must have the same shape")
    norm_x = float(np.linalg.norm(xv))
    norm_r = float(np.linalg.norm(rv))
    if norm_x == 0.0:
        raise ValueError("cannot perturb a zero column")
    if norm_r == 0.0:
        raise ValueError("noise vector has zero norm")
    return xv + tol * rv * (norm_x / norm_r)


def _selected_columns(X: DesignMatrix, cfg: PerturbConfig) -> tuple[int, ...]:
    """Map configured positions to 0-based design matrix column indices."""
    if not cfg.positions:
        if not X.quantitative_idx:
            raise ValueError("design matrix has no quantitative regressors to perturb")
        return X.quantitative_idx
    non_intercept = X.non_intercept_idx
    selected = []
    for pos in cfg.positions:
        if not 1 <= pos <= len(non_intercept):
            raise ValueError(
                f"position {pos} out of range 1..{len(non_intercept)} "
                f"(positions count regressors excluding the intercept)"
            )
        idx = non_intercept[pos - 1]
        if idx not in X.quantitative_idx:
            raise ValueError(
                f"position {pos} ({X.labels[idx]!r}) is not quantitative; "
                f"only quantitative regressors can be perturbed"
            )
        selected.append(idx)
    return tuple(selected)


def perturb_once(y, X: DesignMatrix, cfg: PerturbConfig,
                 rng: np.random.Generator) -> tuple[float, float]:
    """One perturbation draw: returns (achieved_pct, change_pct).

    An independent noise vector is drawn per selected column.  The
    response is never perturbed.  achieved_pct aggregates the selected
    columns with the Frobenius norm; change_pct is the relative
    Euclidean displacement of the coefficient vector, in percent.
    """
    yv = np.asarray(y, dtype=float)
    return _draw(yv, X, _selected_columns(X, cfg), linalg.least_squares(X.X, yv), cfg, rng)


def _draw(yv: np.ndarray, X: DesignMatrix, selected: tuple[int, ...], beta: np.ndarray,
          cfg: PerturbConfig, rng: np.random.Generator) -> tuple[float, float]:
    """perturb_once with the selected columns and baseline fit beta given."""
    for attempt in range(_MAX_RETRIES):
        Xp = X.X.copy()
        for idx in selected:
            r = rng.normal(cfg.noise_mean, cfg.noise_sd, X.n)
            Xp[:, idx] = perturb_column(X.X[:, idx], cfg.tol, r)
        try:
            beta_p = linalg.least_squares(Xp, yv)
            break
        except linalg.SingularMatrixError:
            log.warning("perturbed design singular; resampling (attempt %d)", attempt + 1)
    else:
        raise linalg.SingularMatrixError(
            f"perturbed design stayed singular after {_MAX_RETRIES} resamples"
        )

    sel = list(selected)
    base_norm = float(np.linalg.norm(X.X[:, sel]))
    achieved = 100.0 * float(np.linalg.norm(Xp[:, sel] - X.X[:, sel])) / base_norm
    change = 100.0 * float(np.linalg.norm(beta - beta_p)) / float(np.linalg.norm(beta))
    return achieved, change


def _summarize(values: np.ndarray) -> SummaryStats:
    q2_5, q97_5 = np.percentile(values, [2.5, 97.5])
    return SummaryStats(
        mean=float(values.mean()),
        sd=float(values.std(ddof=1)) if values.size > 1 else 0.0,
        min=float(values.min()),
        max=float(values.max()),
        q2_5=float(q2_5),
        q97_5=float(q97_5),
    )


def perturb_n(y, X: DesignMatrix, cfg: PerturbConfig) -> PerturbResult:
    """Run cfg.iterations independent perturbation draws.

    The baseline is fit once.  The same seed always reproduces the
    result bit for bit.
    """
    yv = np.asarray(y, dtype=float)
    selected = _selected_columns(X, cfg)
    beta = linalg.least_squares(X.X, yv)
    rng = np.random.default_rng(cfg.seed)
    achieved = np.empty(cfg.iterations)
    change = np.empty(cfg.iterations)
    for i in range(cfg.iterations):
        achieved[i], change[i] = _draw(yv, X, selected, beta, cfg, rng)
    return PerturbResult(
        achieved_pct=achieved,
        change_pct=change,
        achieved_summary=_summarize(achieved),
        change_summary=_summarize(change),
    )
