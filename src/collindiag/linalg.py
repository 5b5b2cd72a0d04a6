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

Every least squares fit goes through _qr_fit, one design or a stack of
perturbed ones, and is first gated, design by design, so that only the
designs near the cut pay for an SVD.  With B = R_k D^-1 the unit-scaled
leading block (D the diagonal of column norms), ||B||_F = sqrt(k), so
cond_2(B) <= sqrt(k) * ||B^-1||_F, and B^-1 = D R_k^-1 takes one stacked
inverse.  A design whose bound is below _GATE_MARGIN / (max(n, k) * eps)
passes the cut without an SVD.  Every other design, and one whose bound
is inf or nan, takes the scaled SVD and _past_cut.  The margin of 1e-4
covers the computed inverse's relative error (about k * cond * eps, at
most ~1e-4 below the gate) and the SVD's own rounding (a few eps *
s_max), so the gate and the SVD give the same verdict on every design it
decides.  A perturbation experiment proves the gate for all its draws at
once: a column moved by tol * ||x||, tol < 1, has its unit vector moved
by at most 2 sin(arcsin(tol) / 2) <= sqrt(2) * tol, so by Weyl's
inequality each draw has s_min(B) >= floor = 1 / ||D R_k^-1||_F -
sqrt(2 s) * tol (s columns moved, the baseline's R_k) and a bound of at
most k / floor.  If 2 k / floor is below the gate's threshold, _qr_fit
skips the inverses (the 2 covers the rounding of the floor, the QRs and
the inverses, each ~1e-4 of it at most); else every draw is gated.

Every QR of n-row data goes through _r_factor.  A narrow Householder QR
makes one pass over its matrix per column, so a matrix of four or more
row panels of about _PANEL_BYTES (128 KiB, from an in-process sweep) is
factored in cache as a one-level tall-skinny QR, which is as backward
stable.  Its R differs in rounding and in its row signs, in which R is
unique only anyway; no consumer of R reads them.
"""

import numpy as np

__all__ = [
    "SingularMatrixError",
    "unit_length_scale",
    "scaled_svd",
    "least_squares",
]

SINGULAR_MESSAGE = "exact or near-exact multicollinearity: design numerically rank deficient"
_GATE_MARGIN = 1e-4  # a derived error bound, not a setting: see the module docstring
_PANEL_BYTES = 1 << 17  # rows of a tall QR are factored in panels of about this size


class SingularMatrixError(ValueError):
    """Raised when a matrix is exactly or almost exactly rank deficient."""


def _as_matrix(M) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={A.ndim}")
    return A


def _check_columns(A: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """The column rule of every door: each column x of the n-row A, named by
    labels, is finite and n * max|x| is at most the largest double, so every
    sum, mean and norm taken of it is finite.  Returns each column's min and max."""
    n = len(A)
    lo, hi = np.zeros((2, A.shape[1]))
    for j, label in enumerate(labels):
        lo[j], hi[j] = A[:, j].min(initial=np.inf), A[:, j].max(initial=-np.inf)
        if not (np.isfinite(lo[j]) and np.isfinite(hi[j])):
            raise ValueError(f"column {label!r} contains missing or non-finite values")
        peak = float(max(hi[j], -lo[j]))
        if np.finfo(float).max < n * peak:
            raise ValueError(f"column {label!r} is too large to sum: {n} values up to {peak:.7g}")
    return lo, hi


def _center(A: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """The columns of the n-row A less their means, written to out (A itself
    to center in place), and the means: the one way columns are centered."""
    mean = A.mean(axis=0)
    return np.subtract(A, mean, out=out), mean


def _norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis of A, summed by numpy, not BLAS, so
    a norm depends neither on the BLAS thread count nor on the rows beside it.
    A row outside [1e-150, 1e150], whose sum of squares would overflow or
    underflow, is divided by its largest magnitude first."""
    rows = np.atleast_2d(np.ascontiguousarray(A, dtype=float))
    with np.errstate(over="ignore"):
        norms = np.sqrt(_sum_squares(rows))
        out = ~((norms >= 1e-150) & (norms <= 1e150))
        if out.any():
            peak = np.abs(rows[out]).max(axis=-1, initial=0.0)
            peak[~((peak > 0.0) & (peak < np.inf))] = 1.0  # zero, inf and nan rows stay so
            B = rows[out] / peak[:, None]
            norms[out] = peak * np.sqrt(_sum_squares(B))
    return norms.reshape(A.shape[:-1])


def _sum_squares(rows: np.ndarray) -> np.ndarray:
    """Sums of squares along the last axis of the C-ordered rows, by np.einsum.
    An einsum over many rows cuts a row longer than its buffer where the
    buffer ends, so the row's sum would depend on the rows before it: a long
    row is summed in whole buffers, then its rest."""
    size = 8192  # einsum's buffer, numpy's NPY_BUFSIZE, whatever np.setbufsize says
    m = rows.shape[-1] // size
    if not m:
        return np.einsum("...i,...i->...", rows, rows)
    pieces = rows[..., :m * size].reshape(*rows.shape[:-1], m, size)
    rest = rows[..., m * size:]
    return (np.einsum("...ji,...ji->...j", pieces, pieces).sum(axis=-1)
            + np.einsum("...i,...i->...", rest, rest))


def _past_cut(s: np.ndarray, n: int, k: int) -> np.ndarray:
    """The singular cut on the descending singular values s (..., m) of unit-scaled
    blocks of k columns from n-row designs: True where singular (always if m < k)."""
    return (s.shape[-1] < k) | (s[..., -1] <= max(n, k) * np.finfo(float).eps * s[..., 0])


def _r_factor(A: np.ndarray) -> np.ndarray:
    """R of each matrix in the stack A, as np.linalg.qr(A, mode="r") up to
    row signs and rounding; below four panels, that very call."""
    (n, m), stack = A.shape[-2:], A.shape[:-2]
    p = n // max(_PANEL_BYTES // (8 * m), 4 * m) if m else 0  # panels: cache-sized, >= 4m rows
    if p < 4:
        return np.linalg.qr(A, mode="r")
    h = n // p  # the n - p * h leftover rows are fewer than p
    R = np.linalg.qr(A[..., :p * h, :].reshape(*stack, p, h, m), mode="r")  # a view of A
    return np.linalg.qr(np.concatenate([R.reshape(*stack, p * m, m), A[..., p * h:, :]], -2),
                        mode="r")


def _qr_fit(A: np.ndarray, k: int, floor: float = 0.0) -> tuple[np.ndarray, ...]:
    """For each n x (k+1) matrix [X | y] in the stack A: the least squares
    coefficients of y on X, from one stacked QR, whether X fails the
    singular cut (its coefficients are left 0), and the R factor; last,
    the R[:k, :k]^-1 of each design the gate inverted, in stack order.
    The cut is taken on the unit-scaled B = R[:k, :k] D^-1 (D the column
    norms), which has X's singular values.  The gate in the module
    docstring spares the SVD of every B far from the cut, and floor, a
    proven lower bound on every s_min(B), can spare the stack the gate.
    It checks no value: its callers pass only finite ones (_check_columns)."""
    n = A.shape[1]
    if n < k:
        raise ValueError(f"need at least as many observations ({n}) as columns ({k})")
    R = _r_factor(A)
    Rk = R[:, :k, :k]
    gate = _GATE_MARGIN / (max(n, k) * np.finfo(float).eps)
    if 2 * k < floor * gate:  # every bound is at most k / floor: none inverted, none singular
        return np.linalg.solve(Rk, R[:, :k, k:])[..., 0], np.zeros(len(A), bool), R, Rk[:0]
    singular = (np.diagonal(Rk, axis1=1, axis2=2) == 0.0).any(axis=1)
    ok = np.flatnonzero(~singular)
    Rok = Rk[ok]
    norms = _norms(Rok.transpose(0, 2, 1))
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan bounds go to the SVD
        Rk_inv = np.linalg.inv(Rok)
        B_inv = Rk_inv * norms[:, :, None]
        bound = np.sqrt(k * (B_inv * B_inv).sum(axis=(1, 2)))
    near = ~(bound < gate)
    if near.any():
        scaled = Rok[near] / norms[near][:, None, :]
        singular[ok[near]] = _past_cut(np.linalg.svd(scaled, compute_uv=False), n, k)
    ok = np.flatnonzero(~singular)
    beta = np.zeros((len(A), k))
    beta[ok] = np.linalg.solve(Rk[ok], R[ok, :k, k:])[..., 0]
    return beta, singular, R, Rk_inv


def unit_length_scale(M) -> np.ndarray:
    """Scale every column of M to unit Euclidean length; a zero column
    raises an error naming it."""
    A = _as_matrix(M)
    if not np.isfinite(A).all():  # an R block's entries may sum past the doubles
        raise ValueError("matrix entries must be finite")
    norms = _norms(A.T)
    if not norms.all():  # the first zero norm is the first minimum
        raise SingularMatrixError(
            f"column {norms.argmin()} has zero norm and cannot be scaled to unit length")
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


def _inverse_diag(s: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """Diagonal of (B'B)^-1 from the singular values and Vt of B."""
    return ((vt / s[:, None]) ** 2).sum(axis=0)


def _fit(X, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least squares of y on the n x k matrix X from one QR of [X | y]: the
    coefficients, R, whose leading k x k block is X's R and whose
    |R[k, k]| is the residual norm (n > k), and that block's inverse.  X
    must have passed _check_columns, and y must, as 'response'; a design
    failing the singular cut raises SingularMatrixError, naming a zero
    column if it has one."""
    n, k = X.shape
    if np.shape(y) != (n,):
        raise ValueError(f"response length {np.shape(y)} does not match {n} rows")
    _check_columns(np.reshape(y, (n, 1)), ["response"])
    Xy = np.empty((n, k + 1), order="F")  # column-major, as LAPACK reads it
    Xy[:, :k], Xy[:, k] = X, y
    beta, singular, R, Rk_inv = _qr_fit(Xy[None], k)
    if singular[0]:
        scaled_svd(R[0, :k, :k], n)  # words the error: a zero column, or the cut
        raise SingularMatrixError(SINGULAR_MESSAGE)  # a zero pivot the SVD does not confirm
    return beta[0], R[0], Rk_inv[0]


def least_squares(X, y) -> np.ndarray:
    """Least squares coefficients minimizing ||y - X b||, from one QR of
    [X | y].  The column rule names X's columns by position and y
    'response'; a design failing the singular cut raises SingularMatrixError."""
    A = _as_matrix(X)
    _check_columns(A, range(A.shape[1]))
    return _fit(A, y)[0]
