"""Dense linear algebra on numpy's LAPACK: Euclidean norms, unit-length
column scaling, the singular cut, scaled SVDs and least squares by one QR.

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
    return A


def _check_finite(A: np.ndarray) -> None:
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")


def _norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis of A, bit-equal to np.linalg.norm
    of each row within [1e-150, 1e150].  A row outside, whose sum of squares
    would overflow or underflow, is divided by its largest magnitude first."""
    rows = np.atleast_2d(np.ascontiguousarray(A, dtype=float))
    with np.errstate(over="ignore"):
        norms = np.sqrt((rows[..., None, :] @ rows[..., :, None])[..., 0, 0])
        out = ~((norms >= 1e-150) & (norms <= 1e150))
        if out.any():
            peak = np.abs(rows[out]).max(axis=-1, initial=0.0)
            peak[~((peak > 0.0) & (peak < np.inf))] = 1.0  # zero, inf and nan rows stay so
            B = rows[out] / peak[:, None]
            norms[out] = peak * np.sqrt((B[:, None, :] @ B[:, :, None])[:, 0, 0])
    return norms.reshape(A.shape[:-1])


def _past_cut(s: np.ndarray, n: int, k: int) -> np.ndarray:
    """The singular cut on the descending singular values s (..., m) of unit-scaled
    blocks of k columns from n-row designs: True where singular (always if m < k)."""
    return (s.shape[-1] < k) | (s[..., -1] <= max(n, k) * np.finfo(float).eps * s[..., 0])


def _qr_fit(A: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For each n x (k+1) matrix [X | y] in the stack A: the least squares
    coefficients of y on X, from one stacked QR, and whether X fails the
    singular cut (its coefficients are left 0).  The cut is taken on the
    unit-scaled R[:k, :k], which has the singular values of X."""
    if A.shape[1] < k:
        raise ValueError(f"need at least as many observations ({A.shape[1]}) as columns ({k})")
    _check_finite(A)
    R = np.linalg.qr(A, mode="r")
    Rk = R[:, :k, :k]
    singular = (np.diagonal(Rk, axis1=1, axis2=2) == 0.0).any(axis=1)
    ok = np.flatnonzero(~singular)
    scaled = Rk[ok] / _norms(Rk[ok].transpose(0, 2, 1))[:, None, :]
    singular[ok] = _past_cut(np.linalg.svd(scaled, compute_uv=False), A.shape[1], k)
    ok = np.flatnonzero(~singular)
    beta = np.zeros((len(A), k))
    beta[ok] = np.linalg.solve(Rk[ok], R[ok, :k, k:])[..., 0]
    return beta, singular


def unit_length_scale(M) -> np.ndarray:
    """Scale every column of M to unit Euclidean length; a zero column
    raises an error naming it."""
    A = _as_matrix(M)
    _check_finite(A)
    norms = _norms(A.T)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise SingularMatrixError(
            f"column {zero[0]} has zero norm and cannot be scaled to unit length")
    return A / norms


def scaled_svd(A, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Singular values s (descending) and right singular vectors Vt of A
    with unit-length columns, A being a column block of an n-row design
    or of its R factor.  Raises SingularMatrixError past the cut."""
    B = unit_length_scale(A)
    _, s, vt = np.linalg.svd(B, full_matrices=False)
    if _past_cut(s, n, B.shape[1]):
        raise SingularMatrixError(SINGULAR_MESSAGE)
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

    Solved from one QR of [X | y]; X and y must be finite, and a design
    failing the singular cut raises SingularMatrixError.
    """
    A = _as_matrix(X)
    b = np.asarray(y, dtype=float)
    n, k = A.shape
    if b.shape != (n,):
        raise ValueError(f"response length {b.shape} does not match {n} rows")
    (beta,), (singular,) = _qr_fit(np.column_stack([A, b])[None], k)
    if singular:
        unit_length_scale(A)  # raises the message naming a zero column, if any
        raise SingularMatrixError(SINGULAR_MESSAGE)
    return beta
