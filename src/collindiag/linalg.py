"""Dense linear algebra on numpy's LAPACK: unit-length column scaling,
the singular cut, SVDs of scaled column blocks and least squares.

The singular cut is one rule, applied in _check_rank only: a block of k
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


def _check_rank(s: np.ndarray, n: int, k: int) -> None:
    """The singular cut on the descending singular values s of a unit-scaled
    block of k columns from an n-row design."""
    if s.size < k or s[-1] <= max(n, k) * np.finfo(float).eps * s[0]:
        raise SingularMatrixError(SINGULAR_MESSAGE)


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
