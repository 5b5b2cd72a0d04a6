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
from collindiag import linalg
from collindiag.linalg import (
    SingularMatrixError,
    _inverse_diag,
    _norms,
    _past_cut,
    _qr_fit,
    _r_factor,
    least_squares,
    scaled_svd,
    unit_length_scale,
)
from collindiag.perturb import PerturbConfig, perturb_n

from conftest import count_factorizations, count_inverses, random_design


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

    def test_three_d_array_rejected(self):
        with pytest.raises(ValueError, match="^expected a 2-d matrix, got ndim=3$"):
            unit_length_scale(np.ones((2, 2, 2)))


class TestNorms:
    @pytest.mark.parametrize("length", [21, 10_000, 20_000])
    def test_a_norm_does_not_depend_on_the_rows_beside_it(self, length):
        # one einsum over many rows splits a row longer than its 8192-value buffer
        # where the buffer ends, so long rows are summed in whole buffers first
        A = np.random.default_rng(5).normal(size=(2, 3, length))
        alone = np.array([[_norms(row) for row in rows] for rows in A])
        assert _norms(A).tobytes() == alone.tobytes()
        assert _norms(A[1, 1:]).tobytes() == alone[1, 1:].tobytes()
        assert_allclose(alone, np.linalg.norm(A, axis=-1), rtol=1e-14, atol=0)


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
        assert_allclose(_inverse_diag(*scaled_svd(np.diag([2.0, 4.0]), 2)), [1.0, 1.0],
                        atol=1e-15)

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
        (np.where(LINE_X == 2.0, np.nan, LINE_X), LINE_Y,
         "^column 1 contains missing or non-finite values$"),
        (LINE_X, np.where(LINE_Y == 2.0, np.inf, LINE_Y),
         "^column 'response' contains missing or non-finite values$"),
        (np.column_stack([LINE_X, np.zeros(4)]), LINE_Y, "column 2 has zero norm"),
        (np.column_stack([LINE_X, LINE_X[:, 1]]), LINE_Y, "multicollinearity"),
    ], ids=["wrong-length", "n<k", "non-finite-X", "non-finite-y", "zero-column",
            "duplicated-column"])
    def test_invalid_input_rejected(self, X, y, match):
        with pytest.raises(ValueError, match=match):
            least_squares(X, y)

    def test_column_too_large_to_sum_is_named(self):
        a = np.random.default_rng(4).uniform(0.75e308, 1.5e308, 20)
        with pytest.raises(ValueError, match="^column 1 is too large to sum: 20 values up to "):
            least_squares(np.column_stack([np.ones(20), a]), np.arange(20.0))


def panel_threshold(m: int) -> int:
    """The fewest rows with which an m-column matrix takes panels in _r_factor."""
    return 4 * max(linalg._PANEL_BYTES // (8 * m), 4 * m)


def layouts(A: np.ndarray) -> dict[str, np.ndarray]:
    """The same stack of n x m matrices as C-ordered, F-ordered and
    perturb-style (a C-ordered (c, m, n) buffer, transposed) arrays."""
    return {"C": np.ascontiguousarray(A), "F": np.asfortranarray(A),
            "transposed": np.ascontiguousarray(A.transpose(0, 2, 1)).transpose(0, 2, 1)}


class TestRFactor:
    """_r_factor is np.linalg.qr(A, mode="r") up to row signs and rounding,
    and that very call below the panel threshold."""

    M = 21  # the perturb_wide [X | y]

    # rows past the threshold: -1 takes the plain QR; 3 leaves 3 rows over
    # from 4 panels, and 1577 leaves 5 over from 6
    @pytest.mark.parametrize("rows", [-1, 0, 3, 1577])
    @pytest.mark.parametrize("layout", ["C", "F", "transposed"])
    def test_matches_plain_qr_on_both_sides_of_the_threshold(self, rows, layout):
        n = panel_threshold(self.M) + rows
        rng = np.random.default_rng(n)
        A = layouts(rng.normal(rng.uniform(-3, 3, self.M), rng.uniform(0.1, 10, self.M),
                               (3, n, self.M)))[layout]
        before = A.copy()
        R, plain = _r_factor(A), np.linalg.qr(A, mode="r")
        assert np.array_equal(A, before)  # the input is never modified
        if rows < 0:
            assert np.array_equal(R, plain)
            return
        assert R.shape == plain.shape and np.array_equal(R, np.triu(R))
        # R is unique up to row signs: |R| agrees within 2 M eps ||A||_2 (~2 eps measured)
        bound = 2 * self.M * np.finfo(float).eps * np.linalg.norm(A, 2, axis=(1, 2))
        assert (np.abs(np.abs(R) - np.abs(plain)).max(axis=(1, 2)) <= bound).all()

    def test_panels_are_a_view_and_the_second_level_is_small(self, monkeypatch):
        n = panel_threshold(self.M) + 3
        seen = []

        def qr(a, mode, _fn=np.linalg.qr):
            seen.append((np.shape(a), np.shares_memory(a, A)))
            return _fn(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", qr)
        h = panel_threshold(self.M) // 4
        for A in layouts(np.random.default_rng(4).normal(size=(2, n, self.M))).values():
            seen.clear()
            _r_factor(A)
            # four panels, viewed in A; then their R factors and the 3 leftover rows
            assert seen == [((2, 4, h, self.M), True), ((2, 4 * self.M + 3, self.M), False)]

    def test_zero_column_gives_a_zero_column_and_is_named(self):
        n = panel_threshold(5) + 3
        rng = np.random.default_rng(5)
        X = rng.normal(size=(n, 5))
        X[:, 2] = 0.0
        R = _r_factor(X[None])
        assert not np.array_equal(R, np.linalg.qr(X[None], mode="r"))  # panels were taken
        assert np.array_equal(R[0, :, 2], np.zeros(5))
        with pytest.raises(SingularMatrixError, match="column 2 has zero norm"):
            least_squares(X[:, :4], X[:, 4])

    def test_no_columns(self):
        assert _r_factor(np.empty((10 ** 6, 0))).shape == (0, 0)


def svd_every_draw_qr_fit(A, k):
    """_qr_fit without the gate: the scaled SVD of every draw with no zero pivot."""
    R = np.linalg.qr(A, mode="r")
    Rk = R[:, :k, :k]
    singular = (np.diagonal(Rk, axis1=1, axis2=2) == 0.0).any(axis=1)
    ok = np.flatnonzero(~singular)
    scaled = Rk[ok] / _norms(Rk[ok].transpose(0, 2, 1))[:, None, :]
    singular[ok] = _past_cut(np.linalg.svd(scaled, compute_uv=False), A.shape[1], k)
    ok = np.flatnonzero(~singular)
    beta = np.zeros((len(A), k))
    beta[ok] = np.linalg.solve(Rk[ok], R[ok, :k, k:])[..., 0]
    return beta, singular, R


GATE_N, GATE_K = 20, 4
CUT_CN = 1.0 / (GATE_N * np.finfo(float).eps)  # the scaled CN at the singular cut


def stacked_designs(cns, seed=0, n=GATE_N):
    """[X | y] for each cn: X = U diag(s) V' with s from 1 down to 1/cn,
    then each column scaled by 10^u, u uniform in [-8, 8]."""
    rng = np.random.default_rng(seed)
    A = np.empty((len(cns), n, GATE_K + 1))
    for i, cn in enumerate(cns):
        U = np.linalg.qr(rng.normal(size=(n, GATE_K)))[0]
        V = np.linalg.qr(rng.normal(size=(GATE_K, GATE_K)))[0]
        X = (U * np.geomspace(1.0, 1.0 / cn, GATE_K)) @ V.T * 10.0 ** rng.uniform(-8, 8, GATE_K)
        A[i, :, :GATE_K], A[i, :, GATE_K] = X, X @ rng.normal(size=GATE_K) + rng.normal(size=n)
    return A


class TestQrFitGate:
    """The gate decides draws far from the singular cut without an SVD; its
    flags and betas match the SVD of every draw bit for bit."""

    @staticmethod
    def assert_same_as_svd_on_every_draw(A):
        beta, singular, R, _ = _qr_fit(A, GATE_K)
        want_beta, want_singular, want_R = svd_every_draw_qr_fit(A, GATE_K)
        assert np.array_equal(singular, want_singular)
        assert np.array_equal(beta, want_beta)
        assert np.array_equal(R, want_R)
        return singular

    def test_same_as_svd_from_cn_1_to_1e17(self):
        A = stacked_designs(np.concatenate([np.geomspace(1.0, 1e17, 200),
                                            np.geomspace(CUT_CN / 10, CUT_CN * 10, 200)]))
        A[0, :, 2] = 0.0  # a zero pivot
        A[1, :, 3] = A[1, :, 1]  # a duplicated column
        A[2, :, :2] = 0.0
        A[2, 0, :2], A[2, 1, 1] = 1.0, 1e-300  # B^-1 holds 1e300: its bound overflows to inf
        s = np.array([numpy_scaled_singular_values(a[:, :GATE_K]) for a in A[3:]])
        cn = s[:, 0] / s[:, -1]
        assert ((cn >= CUT_CN / 10) & (cn < CUT_CN)).sum() >= 20
        assert ((cn >= CUT_CN) & (cn <= CUT_CN * 10)).sum() >= 20
        singular = self.assert_same_as_svd_on_every_draw(A)
        assert singular[:3].all()
        assert 50 <= singular.sum() <= len(A) - 200

    def test_same_flags_as_svd_on_every_draw_when_panels_are_taken(self):
        # draws tall enough to take panels, whose R differs from the oracle's
        # plain QR in rounding: the flags agree, and beta to the conditioning
        n = panel_threshold(GATE_K + 1) + 3
        cut = 1.0 / (n * np.finfo(float).eps)
        cns = np.concatenate([np.geomspace(1.0, 1e17, 12), np.geomspace(cut / 10, cut * 10, 24)])
        A = layouts(stacked_designs(cns, seed=2, n=n))["transposed"]
        A[0, :, 2] = 0.0  # a zero pivot
        A[1, :, 3] = A[1, :, 1]  # a duplicated column
        beta, singular, _, _ = _qr_fit(A, GATE_K)
        want_beta, want_singular, _ = svd_every_draw_qr_fit(A, GATE_K)
        assert np.array_equal(singular, want_singular)
        assert singular[:2].all() and 10 <= singular.sum() <= len(A) - 10
        ok = ~singular
        scaled = np.array([numpy_scaled_singular_values(a[:, :GATE_K]) for a in A[ok]])
        err = np.abs(beta[ok] - want_beta[ok]).max(axis=1) / np.abs(want_beta[ok]).max(axis=1)
        assert (err <= 1e3 * np.finfo(float).eps * scaled[:, 0] / scaled[:, -1]).all()

    def test_all_singular_stack(self, monkeypatch):
        A = stacked_designs(np.ones(5))
        A[:, :, 1] = 0.0
        calls = count_factorizations(monkeypatch)
        _qr_fit(A, GATE_K)
        assert calls == [("qr", A.shape)]
        monkeypatch.undo()
        assert self.assert_same_as_svd_on_every_draw(A).all()

    def test_only_undecided_draws_reach_the_svd(self, monkeypatch):
        cns = np.geomspace(1.0, 1e3, 60)
        cns[::3] = np.geomspace(CUT_CN / 10, CUT_CN * 10, 20)
        A = stacked_designs(cns, seed=1)
        calls = count_factorizations(monkeypatch)
        _qr_fit(A, GATE_K)
        assert calls == [("qr", A.shape), ("svd", (20, GATE_K, GATE_K))]
        monkeypatch.undo()
        self.assert_same_as_svd_on_every_draw(A)

    def test_floor_past_the_threshold_skips_the_inverses(self, monkeypatch):
        A = stacked_designs(np.geomspace(1.0, 1e3, 30))
        gated = _qr_fit(A, GATE_K)
        # the least floor whose bound k / floor is half the gate's threshold
        least = 2 * GATE_K * GATE_N * np.finfo(float).eps / linalg._GATE_MARGIN
        for floor, proven in ((least * (1 + 1e-9), True), (1.0, True), (least * (1 - 1e-9), False),
                              (0.0, False), (-1.0, False), (np.nan, False)):
            inverses = count_inverses(monkeypatch)
            beta, singular, R, Rk_inv = _qr_fit(A, GATE_K, floor)
            monkeypatch.undo()
            assert inverses == ([] if proven else [(len(A), GATE_K, GATE_K)])
            assert Rk_inv.shape == ((0,) if proven else (len(A),)) + (GATE_K, GATE_K)
            assert not singular.any() and singular.shape == (len(A),)
            assert beta.tobytes() == gated[0].tobytes() and R.tobytes() == gated[2].tobytes()

    def test_kg_draws_take_no_svd(self, monkeypatch, kg_design, kg_y):
        calls = count_factorizations(monkeypatch)
        perturb_n(kg_y, kg_design, PerturbConfig(iterations=5000, seed=1))
        # the baseline fit is gated like the draws
        assert [c for c in calls if c[0] == "svd"] == []


class TestRowSigns:
    """R is unique only up to the signs of its rows, and panels change them:
    every consumer of R gives the same numbers whatever they are."""

    @staticmethod
    def flip_rows(monkeypatch, seed):
        rng = np.random.default_rng(seed)

        def flipped(A, _fn=linalg._r_factor):
            R = _fn(A)
            return R * rng.choice([-1.0, 1.0], size=R.shape[:-1])[..., None]

        monkeypatch.setattr(linalg, "_r_factor", flipped)

    @staticmethod
    def measures(X: DesignMatrix, y) -> dict[str, np.ndarray]:
        X = DesignMatrix(X.X, X.intercept_present, X.quantitative_idx, X.dummy_idx, X.labels)
        cn, corr, fit = cns(X), correlation_matrix(X), ols_fit(y, X)
        return {"cn": [cn.cn_with, cn.cn_without], "vif": [v for _, v in vif(X)],
                "r": corr.r, "det_r": corr.det_r, "k2": stewart_index(X).k2,
                "sigma": fit.sigma, "se": fit.se}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_factors_and_ols_fit(self, monkeypatch, kg_design, kg_y, seed):
        rng = np.random.default_rng(seed)
        tall = random_design(rng, n=panel_threshold(6) + 3, n_quant=4, with_dummy=True)
        for X, y in ((kg_design, kg_y), (tall, tall.X @ rng.normal(size=tall.k) + rng.normal(
                size=tall.n))):
            want = self.measures(X, y)
            self.flip_rows(monkeypatch, seed)
            got = self.measures(X, y)
            monkeypatch.undo()
            for name in want:
                assert_allclose(got[name], want[name], rtol=1e-14, atol=0, err_msg=name)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_qr_fit_gate_cut_and_beta(self, monkeypatch, seed):
        cns = np.geomspace(1.0, 1e3, 60)
        cns[::3] = np.geomspace(CUT_CN / 10, CUT_CN * 10, 20)
        A = stacked_designs(cns, seed=seed)
        A[0, :, 2] = 0.0
        want_calls = count_factorizations(monkeypatch)
        want_beta, want_singular, _, _ = _qr_fit(A, GATE_K)
        monkeypatch.undo()
        self.flip_rows(monkeypatch, seed)
        calls = count_factorizations(monkeypatch)
        beta, singular, _, _ = _qr_fit(A, GATE_K)
        assert calls == want_calls  # the same draws reach the SVD
        assert np.array_equal(singular, want_singular) and singular[0]
        assert_allclose(beta, want_beta, rtol=1e-14, atol=0)


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
