import numpy as np
import pytest
from numpy.testing import assert_allclose

from collindiag import (
    DesignMatrix,
    cns,
    coefficients_of_variation,
    condition_number,
    correlation_matrix,
    ols_fit,
    stewart_index,
    vif,
)
from collindiag.linalg import (
    SingularMatrixError,
    least_squares,
    scaled_inverse_diag,
    scaled_svd,
    unit_length_scale,
)

from conftest import random_design


def quantitative_design(M) -> DesignMatrix:
    """Intercept plus the columns of M, all quantitative."""
    M = np.asarray(M, dtype=float)
    k = M.shape[1]
    return DesignMatrix(X=np.column_stack([np.ones(M.shape[0]), M]), intercept_present=True,
                        quantitative_idx=tuple(range(1, k + 1)), dummy_idx=(),
                        labels=("intercept",) + tuple(f"x{j}" for j in range(1, k + 1)))


def centered_orthogonal_pair(n: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Two centered, mutually orthogonal columns of different lengths."""
    t = np.arange(float(n)) - (n - 1) / 2
    w = np.resize([1.0, -1.0], n)
    w -= w.mean() + (w @ t) / (t @ t) * t
    return 4.0 * t, w


def numpy_scaled_singular_values(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    return np.linalg.svd(M / np.linalg.norm(M, axis=0), compute_uv=False)


class TestUnitLengthScale:
    def test_three_four_five(self):
        out = unit_length_scale(np.array([[3.0], [4.0]]))
        assert_allclose(out[:, 0], [0.6, 0.8], rtol=0, atol=1e-15)

    def test_identity_unchanged(self):
        eye = np.eye(4)
        assert_allclose(unit_length_scale(eye), eye, rtol=0, atol=0)

    def test_theil_columns_have_unit_norm(self, theil_design):
        # oracle: brute-force summation of squares, no linalg helpers
        scaled = unit_length_scale(theil_design.X)
        n, k = scaled.shape
        for j in range(k):
            total = 0.0
            for i in range(n):
                total += scaled[i, j] * scaled[i, j]
            assert abs(total ** 0.5 - 1.0) <= 4 * np.finfo(float).eps * np.sqrt(n)

    def test_zero_column_rejected(self):
        M = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="column 1"):
            unit_length_scale(M)


def _char_poly_roots_by_bisection(S, lo, hi, m=2000):
    """Roots of det(S - t I) for a small symmetric S, found by sampling
    the characteristic polynomial on a grid and bisecting sign changes."""

    def char(t):
        return np.linalg.det(S - t * np.eye(S.shape[0]))

    grid = np.linspace(lo, hi, m)
    vals = [char(t) for t in grid]
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            x, y = a, b
            for _ in range(200):
                mid = (x + y) / 2
                if char(x) * char(mid) <= 0:
                    y = mid
                else:
                    x = mid
            roots.append((x + y) / 2)
    return sorted(roots, reverse=True)


class TestSymEigenvalues:
    """Eigenvalues of the scaled Gram matrix B'B, B the unit-scaled
    design: the squared singular values behind condition_number and
    cns, taken from the design's R factor."""

    def test_identity(self):
        s, _ = scaled_svd(np.eye(3), 3)
        assert_allclose(s, [1, 1, 1], rtol=0, atol=1e-15)

    def test_diagonal(self):
        # orthogonal columns of different lengths: scaling removes the lengths
        design = quantitative_design(np.column_stack(centered_orthogonal_pair()))
        assert condition_number(design) == pytest.approx(1.0, abs=1e-14)

    def test_matches_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(42)
        design = quantitative_design(rng.normal(1.0, 1.0, size=(12, 2)))
        B = unit_length_scale(design.X)
        S = B.T @ B
        roots = _char_poly_roots_by_bisection(S, -1.0, 4.0)
        assert len(roots) == 3
        s, _ = scaled_svd(design.factors, design.n)
        assert_allclose(s ** 2, roots, rtol=1e-8, atol=1e-10)
        assert condition_number(design) == pytest.approx(
            np.sqrt(roots[0] / roots[-1]), rel=1e-8)

    def test_descending_order(self):
        rng = np.random.default_rng(3)
        s, _ = scaled_svd(rng.normal(size=(9, 5)), 9)
        assert np.all(np.diff(s) <= 0)

    def test_non_square_rejected(self):
        # a block wider than tall cannot have full column rank
        with pytest.raises(SingularMatrixError):
            scaled_svd(np.arange(1.0, 7.0).reshape(2, 3), 2)

    def test_sum_equals_trace_and_product_equals_determinant(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            design = random_design(rng, n_quant=k - 1)
            B = unit_length_scale(design.X)
            s, _ = scaled_svd(design.factors, design.n)
            assert_allclose(s, numpy_scaled_singular_values(design.X), rtol=1e-12)
            # trace of B'B is k, since every column has unit length
            assert abs((s ** 2).sum() - k) <= 1e-12 * k
            assert_allclose(np.prod(s ** 2), np.linalg.det(B.T @ B), rtol=1e-8)

    def test_cauchy_interlacing_leading_principal_submatrix(self):
        # dropping the intercept column deletes a row and column of B'B
        rng = np.random.default_rng(11)
        for i in range(20):
            design = random_design(rng, with_dummy=bool(i % 2))
            s_with = numpy_scaled_singular_values(design.X)
            s_without = numpy_scaled_singular_values(design.X[:, 1:])
            assert s_with[0] >= s_without[0] - 1e-12
            assert s_with[-1] <= s_without[-1] + 1e-12
            rep = cns(design)
            assert rep.cn_with == pytest.approx(s_with[0] / s_with[-1], rel=1e-10)
            assert rep.cn_without == pytest.approx(s_without[0] / s_without[-1], rel=1e-10)
            assert rep.cn_with >= rep.cn_without


class TestSpdInverse:
    """Diagonal of the inverse of a scaled Gram matrix, as vif and
    stewart_index report it, against numpy's inverse."""

    def test_diagonal(self):
        assert_allclose(scaled_inverse_diag(np.diag([2.0, 4.0]), 2), [1.0, 1.0], atol=1e-15)

    def test_duplicated_column_gram_is_singular(self):
        x = np.array([1.0, 2.0, 3.0, 5.0])
        design = quantitative_design(np.column_stack([x, x]))
        with pytest.raises(SingularMatrixError, match="multicollinearity"):
            stewart_index(design)
        with pytest.raises(SingularMatrixError, match="multicollinearity"):
            least_squares(design.X, x)

    def test_multiply_back_gives_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            design = random_design(rng)
            X = design.X
            k2 = (X * X).sum(axis=0) * np.linalg.inv(X.T @ X).diagonal()
            assert_allclose(stewart_index(design).k2, k2, rtol=1e-9)
            C = X[:, 1:] - X[:, 1:].mean(axis=0)
            vifs = (C * C).sum(axis=0) * np.linalg.inv(C.T @ C).diagonal()
            assert_allclose([v for _, v in vif(design)], vifs, rtol=1e-9)


class TestDeterminant:
    """det(R) of the correlation matrix, correlation_matrix(...).det_r."""

    def test_identity(self):
        # centered, mutually orthogonal regressors: R is the identity
        rep = correlation_matrix(quantitative_design(np.column_stack(centered_orthogonal_pair())))
        assert rep.det_r == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two_correlation_closed_form(self):
        for r in (-0.9, -0.3, 0.0, 0.5, 0.99):
            rep = correlation_matrix(design_with_correlation(r))
            assert rep.r[0, 1] == pytest.approx(r, abs=1e-14)
            assert rep.det_r == pytest.approx(1 - r * r, rel=1e-12)

    def test_theil_quantitative_correlation_determinant(self, theil_design):
        rep = correlation_matrix(theil_design)
        assert rep.det_r == pytest.approx(0.9680139, abs=1e-6)
        Q = theil_design.X[:, list(theil_design.quantitative_idx)]
        assert rep.det_r == pytest.approx(np.linalg.det(np.corrcoef(Q.T)), rel=1e-12)


def design_with_correlation(r: float, n: int = 10) -> DesignMatrix:
    """Two quantitative regressors whose sample correlation is exactly r."""
    u, v = centered_orthogonal_pair(n)
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    return quantitative_design(np.column_stack([u + 3.0, r * u + np.sqrt(1 - r * r) * v - 2.0]))


LINE_X = np.column_stack([np.ones(4), [1.0, 2.0, 3.0, 5.0]])
LINE_Y = np.array([1.0, 3.0, 2.0, 4.0])


class TestLeastSquares:
    def test_noiseless_recovery(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        X = np.column_stack([np.ones(5), x])
        y = 2.0 + 3.0 * x
        assert_allclose(least_squares(X, y), [2.0, 3.0], rtol=0, atol=1e-10)

    def test_theil_coefficients(self, theil_design, theil_y):
        beta = least_squares(theil_design.X, theil_y)
        assert_allclose(beta, [126.1695, 1.0308, -1.2574, -4.5355], rtol=0, atol=5e-4)

    def test_kg_coefficients(self, kg_design, kg_y):
        beta = least_squares(kg_design.X, kg_y)
        assert_allclose(beta, [18.7021, 0.3803, 1.4186, 0.5331], rtol=0, atol=5e-4)

    def test_qr_agrees_with_normal_equations(self, theil_design, theil_y, kg_design, kg_y):
        for X, y in ((theil_design.X, theil_y), (kg_design.X, kg_y)):
            b1 = least_squares(X, y)
            assert_allclose(b1, np.linalg.solve(X.T @ X, X.T @ y), rtol=1e-6)
            assert_allclose(b1, np.linalg.lstsq(X, y, rcond=None)[0], rtol=1e-10)

    def test_rank_deficient_rejected(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.column_stack([np.ones(4), x, 2 * x])
        with pytest.raises(SingularMatrixError):
            least_squares(X, x)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            least_squares(np.ones((4, 2)), np.ones(3))

    @pytest.mark.parametrize("X, y, match", [
        (LINE_X, LINE_Y[:3], "response length"),
        (LINE_X[:1], LINE_Y[:1], "at least as many observations"),
        (np.where(LINE_X == 2.0, np.nan, LINE_X), LINE_Y, "must be finite"),
        (LINE_X, np.where(LINE_Y == 2.0, np.inf, LINE_Y), "must be finite"),
        (np.column_stack([LINE_X, np.zeros(4)]), LINE_Y, "column 2 has zero norm"),
        (np.column_stack([LINE_X, LINE_X[:, 1]]), LINE_Y, "multicollinearity"),
    ], ids=["wrong-length", "n<k", "non-finite-X", "non-finite-y", "zero-column",
            "duplicated-column"])
    def test_invalid_input_rejected(self, X, y, match):
        with pytest.raises(ValueError, match=match):
            least_squares(X, y)


class TestScaleInvariance:
    """Every measure is defined on unit-length columns, so multiplying one
    regressor by s moves none of them, however large or small s is;
    beta and se of that regressor scale by 1/s."""

    @staticmethod
    def measures(X, y):
        fit, cn = ols_fit(y, X), cns(X)
        return {
            "cn": [cn.cn_with, cn.cn_without],
            "vif": [v for _, v in vif(X)],
            "k2": stewart_index(X).k2,
            "det_r": correlation_matrix(X).det_r,
            "cv": [v for _, v in coefficients_of_variation(X)],
            "t": fit.t,
            "p": fit.p,
        }, fit

    @pytest.mark.parametrize("s", [1e160, 1e-160])
    def test_one_column_scaled_by_s(self, kg_design, kg_y, s):
        M = kg_design.X.copy()
        M[:, 2] *= s
        scaled = DesignMatrix(M, kg_design.intercept_present, kg_design.quantitative_idx,
                              kg_design.dummy_idx, kg_design.labels)
        want, want_fit = self.measures(kg_design, kg_y)
        got, got_fit = self.measures(scaled, kg_y)
        for name in want:
            assert_allclose(got[name], want[name], rtol=1e-10, atol=0, err_msg=name)
        unscale = np.ones(kg_design.k)
        unscale[2] = s
        assert_allclose(got_fit.beta * unscale, want_fit.beta, rtol=1e-10, atol=0)
        assert_allclose(got_fit.se * unscale, want_fit.se, rtol=1e-10, atol=0)
