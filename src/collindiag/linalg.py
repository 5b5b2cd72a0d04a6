"""Dense linear algebra on numpy's LAPACK: unit-length column scaling,
the singular cut, SVDs of scaled column blocks and least squares.

The singular cut is one rule, written in _past_cut only: a block of k
columns from an n-row design is numerically singular iff, with every
column scaled to unit length, its singular values satisfy
s_min <= max(n, k) * eps * s_max (numpy's matrix_rank tolerance).  It
separates exact multicollinearity (SingularMatrixError) from near
multicollinearity (diagnostics proceed).  A column block of X may be
passed as the same block of R from X = QR: both have the same singular
values and column norms.
"""

import numpy as np

__all__ = [
    "SingularMatrixError",
    "unit_length_scale",
    "scaled_svd",
    "scaled_inverse_diag",
    "least_squares",
]

SINGULAR_MESSAGE = "exact or near-exact multicollinearity: design numerically rank deficient"


class SingularMatrixError(ValueError):
    """Raised when a matrix is exactly or almost exactly rank deficient."""


def _as_matrix(M) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def _column_norms(A: np.ndarray) -> np.ndarray:
    norms = np.sqrt((A * A).sum(axis=0))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise SingularMatrixError(
            f"column {zero[0]} has zero norm and cannot be scaled to unit length")
    return norms


def _past_cut(s: np.ndarray, n: int, k: int) -> np.ndarray:
    """The singular cut on the descending singular values s (..., k) of
    unit-scaled blocks of k columns from n-row designs: True where singular."""
    return s[..., -1] <= max(n, k) * np.finfo(float).eps * s[..., 0]


def _check_rank(s: np.ndarray, n: int, k: int) -> None:
    """Raise SingularMatrixError if the singular values s of one unit-scaled
    block of k columns from an n-row design fail the cut."""
    if s.size < k or _past_cut(s, n, k):
        raise SingularMatrixError(SINGULAR_MESSAGE)


def _qr_fit(A: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For each n x (k+1) matrix [X | y] in the stack A: the least squares
    coefficients of y on X, from one stacked QR, and whether X fails the
    singular cut (its coefficients are left 0).  The cut is taken on the
    unit-scaled R[:k, :k], which has the singular values of X."""
    if A.shape[1] < k:
        raise ValueError(f"need at least as many observations ({A.shape[1]}) as columns ({k})")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    R = np.linalg.qr(A, mode="r")
    Rk = R[:, :k, :k]
    singular = (np.diagonal(Rk, axis1=1, axis2=2) == 0.0).any(axis=1)
    ok = np.flatnonzero(~singular)
    scaled = Rk[ok] / np.linalg.norm(Rk[ok], axis=1)[:, None, :]
    singular[ok] = _past_cut(np.linalg.svd(scaled, compute_uv=False), A.shape[1], k)
    ok = np.flatnonzero(~singular)
    beta = np.zeros((len(A), k))
    beta[ok] = np.linalg.solve(Rk[ok], R[ok, :k, k:])[..., 0]
    return beta, singular


def unit_length_scale(M) -> np.ndarray:
    """Scale every column of M to unit Euclidean length; a zero column
    raises an error naming it."""
    A = _as_matrix(M)
    return A / _column_norms(A)


def scaled_svd(A, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Singular values s (descending) and right singular vectors Vt of A
    with unit-length columns, A being a column block of an n-row design
    or of its R factor.  Raises SingularMatrixError past the cut."""
    B = unit_length_scale(A)
    _, s, vt = np.linalg.svd(B, full_matrices=False)
    _check_rank(s, n, B.shape[1])
    return s, vt


def scaled_inverse_diag(A, n: int) -> np.ndarray:
    """Diagonal of (B'B)^-1, where B is A with unit-length columns.

    For an intercept-plus-regressors block these are Stewart's k_i^2; for
    a centered block they are the VIFs.
    """
    s, vt = scaled_svd(A, n)
    return ((vt / s[:, None]) ** 2).sum(axis=0)


def least_squares(X, y) -> np.ndarray:
    """Least squares coefficients minimizing ||y - X b||.

    Solved by LAPACK's SVD-based lstsq on the unit-scaled columns of X; a
    design failing the singular cut raises SingularMatrixError.
    """
    A = _as_matrix(X)
    b = np.asarray(y, dtype=float)
    n, k = A.shape
    if b.shape != (n,):
        raise ValueError(f"response length {b.shape} does not match {n} rows")
    if n < k:
        raise ValueError(f"need at least as many observations ({n}) as columns ({k})")
    norms = _column_norms(A)
    coef, _, _, s = np.linalg.lstsq(A / norms, b, rcond=None)
    _check_rank(s, n, k)
    return coef / norms
