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
from concurrent.futures import ThreadPoolExecutor
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
_BLOCK_BYTES = 1 << 20  # draws are worked in blocks of about this many bytes


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
        named = [("iterations", self.iterations)] + [("each position", p) for p in self.positions]
        for name, v in named:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {v!r}")
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
        if not (self.seed is None or isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError("seed must be a nonnegative integer")


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
    in percent, with their summaries; resamples counts redrawn draws."""

    achieved_pct: np.ndarray
    change_pct: np.ndarray
    achieved_summary: SummaryStats
    change_summary: SummaryStats
    resamples: int = 0


def perturb_column(x, tol: float, r) -> np.ndarray:
    """Perturb x along direction r so that ||x_p - x|| / ||x|| = tol."""
    PerturbConfig(tol=tol)  # tol must be finite and nonnegative, as in a config
    xv = np.asarray(x, dtype=float)
    rv = np.array(r, dtype=float)
    if xv.shape != rv.shape:
        raise ValueError("x and r must have the same shape")
    linalg._check_columns(xv.reshape(-1, 1), ["x"])
    return xv + _scale_noise(rv, tol, linalg._norms(xv))


def _scale_noise(R: np.ndarray, tol: float, x_norms: np.ndarray) -> np.ndarray:
    """Scale each noise vector r along the last axis of R, in place, to the
    perturbation tol * r * (||x|| / ||r||) of its column x, ||x|| in x_norms."""
    if not np.all(x_norms > 0.0):
        raise ValueError("cannot perturb a zero column")
    r_norms = linalg._norms(R)
    if not np.all((r_norms > 0.0) & (r_norms < np.inf)):
        raise ValueError("noise vector has a zero or non-finite norm")
    # outside [1e-150, 1e150], tol * r or ||x|| / ||r|| could leave the doubles: make r unit
    out = ~((r_norms >= 1e-150) & (r_norms <= 1e150))
    R[out] /= r_norms[out][..., None]
    r_norms[out] = linalg._norms(R[out])  # exact, also where ||r|| was subnormal
    with np.errstate(over="ignore"):  # a perturbation past the largest double is inf
        R *= tol
        R *= (x_norms / r_norms)[..., None]
    return R


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
    achieved, change, _ = _draws(np.asarray(y, dtype=float), X, cfg, rng, 1)
    return float(achieved[0]), float(change[0])


def _draws(yv: np.ndarray, X: DesignMatrix, cfg: PerturbConfig, rng: np.random.Generator,
           count: int) -> tuple[np.ndarray, np.ndarray, int]:
    """count draws: (achieved_pct, change_pct, resamples).  The draws are
    worked in blocks of about _BLOCK_BYTES.  Each block's noise is one
    rng.standard_normal fill, scaled by noise_sd and shifted by
    noise_mean, draw-major then column order: the stream and values of
    one rng.normal call per column per draw.  With more than one block, a
    worker thread only fills: block 0 during the baseline fit, then block
    j + 1 while this thread scales, builds and refits block j; a fill it
    has not begun when needed is done here.  Draws failing the singular
    cut are redrawn in order once the worker is joined, each up to
    _MAX_RETRIES attempts in all, so only one thread reads rng at a time
    and the block size changes no bit."""
    sel = list(_selected_columns(X, cfg))
    (n, k), s = X.X.shape, len(sel)
    size = min(count, max(1, _BLOCK_BYTES // (8 * n * (k + 1 + s))))
    bounds = [(start, min(start + size, count)) for start in range(0, count, size)]
    # allocated once per call: a noise buffer per block in flight, and one
    # block of column-major designs [Xp | y] (so W goes in by whole rows)
    # whose columns of X and y are written once, after the baseline fit
    noise = np.empty((min(2, len(bounds)), size, s, n))
    designs = np.empty((size, k + 1, n))

    def build(W):
        """Scale the noise W of len(W) draws in place, perturb their columns
        into designs[:len(W)] and return their achieved_pct."""
        with np.errstate(over="ignore"):  # noise past the largest double is inf
            W *= cfg.noise_sd
            W += cfg.noise_mean
        _scale_noise(W, cfg.tol, x_norms)
        W += x
        finite = np.isfinite(W)  # the only new values: the QR needs them finite
        if not finite.all():
            label = X.labels[sel[finite.argmin() // n % s]]  # W is (draws, s, n)
            raise ValueError(f"tol={cfg.tol:g} perturbs column {label!r} past the largest double")
        designs[:len(W), sel] = W
        W -= x
        return 100.0 * linalg._norms(W.reshape(len(W), s * n)) / base_norm

    def refit(c):
        """Refit designs[:c]: (change_pct, singular)."""
        beta_p, singular, _, _ = linalg._qr_fit(designs[:c].transpose(0, 2, 1), k, floor)
        return 100.0 * linalg._norms(beta - beta_p) / beta_norm, singular

    achieved, change, singular = np.empty(count), np.empty(count), []
    with ThreadPoolExecutor(max_workers=1) as worker:  # its thread starts on the first submit
        ahead = worker.submit(rng.standard_normal, out=noise[0]) if len(bounds) > 1 else None
        beta, R, Rk_inv = linalg._fit(X.X, yv)
        # Weyl's floor on every draw's smallest scaled singular value (linalg docstring)
        B_inv = (Rk_inv * linalg._norms(R[:k, :k].T)[:, None]).reshape(-1)
        floor = 1.0 / linalg._norms(B_inv) - math.sqrt(2 * s) * cfg.tol if cfg.tol < 1 else 0.0
        x = X.X[:, sel].T  # X.X is column-major, so each row is one selected column
        x_norms = linalg._norms(x)  # none is zero: _fit has named a zero column
        base_norm = float(linalg._norms(x.reshape(-1)))
        beta_norm = float(linalg._norms(beta))
        if beta_norm == 0.0:
            raise ValueError("baseline coefficients are all zero: the relative change is undefined")
        designs[:, :k], designs[:, k] = X.X.T, yv
        for b, (start, stop) in enumerate(bounds):
            # a fill the worker has not begun is done here: a worker not
            # yet scheduled does not hold up the refits
            W = (rng.standard_normal(out=noise[b % 2, :stop - start])
                 if ahead is None or ahead.cancel() else ahead.result())
            if stop < count:
                ahead = worker.submit(rng.standard_normal,
                                      out=noise[(b + 1) % 2, :min(size, count - stop)])
            achieved[start:stop] = build(W)
            change[start:stop], failed = refit(stop - start)
            singular.extend(start + np.flatnonzero(failed))
    resamples = 0
    for i in singular:
        for attempt in range(1, _MAX_RETRIES):  # _MAX_RETRIES draws in all, with the first
            log.warning("perturbed design singular; resampling (attempt %d)", attempt)
            resamples += 1
            achieved[i] = build(rng.standard_normal(out=noise[0, :1]))[0]
            change[i:i + 1], (again,) = refit(1)
            if not again:
                break
        else:
            raise linalg.SingularMatrixError(
                f"perturbed design stayed singular in {_MAX_RETRIES} draws")
    return achieved, change, resamples


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

    The baseline is fit once.  When the draws take more than one block,
    one worker thread draws the noise of the next block (the first one
    during the baseline fit) while the calling thread scales, builds and
    refits the current one, so the call may use a second core whatever
    the BLAS thread count; the worker is joined before the call returns
    or raises.  The same seed always reproduces the result bit
    for bit, whatever the block size; the draws match those of one
    rng.normal call per column per draw, and resampled draws take the
    stream after the last one.
    """
    rng = np.random.default_rng(cfg.seed)
    achieved, change, resamples = _draws(np.asarray(y, dtype=float), X, cfg, rng, cfg.iterations)
    return PerturbResult(
        achieved_pct=achieved,
        change_pct=change,
        achieved_summary=_summarize(achieved),
        change_summary=_summarize(change),
        resamples=resamples,
    )
