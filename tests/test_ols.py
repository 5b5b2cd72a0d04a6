import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from collindiag import (
    DesignMatrix,
    SingularMatrixError,
    design_matrix,
    f_cdf,
    ols_fit,
    significance_contradiction,
    t_cdf,
)
from collindiag import linalg

from conftest import count_factorizations

# frozen reference values for the CDFs, independent implementation
T_CDF_ANCHORS = (
    (0.5, 1, 0.6475836176504333),
    (1.5, 7, 0.911350756505015),
    (2.0, 3, 0.9303370157205785),
    (3.735, 13, 0.9987511032208533),
    (-2.5, 10, 0.015723422118304388),
    (0.1, 30, 0.5394951941048645),
    (4.0, 2.5, 0.9804935120793409),
    (1.0, 100, 0.8401379221079381),
)

F_CDF_ANCHORS = (
    (1.0, 3, 10, 0.567662796978303),
    (2.5, 3, 9, 0.8744823388037789),
    (87.679344, 3, 13, 0.9999999929524875),
    (0.5, 1, 1, 0.39182655203060734),
    (37.677715, 3, 10, 0.9999907286110455),
    (5.0, 2, 20, 0.9826584700841674),
    (0.05, 4, 7, 0.005799453797212826),
)

# two-sided 97.5% t quantiles as published in standard tables
T_TABLE_975 = ((5, 2.570582), (13, 2.160369), (30, 2.042272))


class TestTCdf:
    def test_zero_is_half(self):
        for df in (1, 2.5, 13, 200):
            assert t_cdf(0.0, df) == 0.5

    def test_anchor_values(self):
        for x, df, expected in T_CDF_ANCHORS:
            assert t_cdf(x, df) == pytest.approx(expected, rel=1e-10)

    def test_published_table_quantiles(self):
        for df, q in T_TABLE_975:
            assert t_cdf(q, df) == pytest.approx(0.975, abs=1e-6)

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            for df in (2, 9, 40):
                assert t_cdf(x, df) + t_cdf(-x, df) == pytest.approx(1.0, abs=1e-14)

    def test_published_two_sided_p(self):
        assert 2 * (1 - t_cdf(3.735, 13)) == pytest.approx(0.002497, rel=1e-3)

    def test_infinite_argument(self):
        assert t_cdf(math.inf, 5) == 1.0
        assert t_cdf(-math.inf, 5) == 0.0

    def test_invalid_df(self):
        with pytest.raises(ValueError):
            t_cdf(1.0, 0)

    def test_nan_argument_is_nan(self):
        assert math.isnan(t_cdf(math.nan, 5))

    @pytest.mark.parametrize("x", [1.0, math.nan])
    @pytest.mark.parametrize("df", [math.inf, math.nan])
    def test_non_finite_df(self, x, df):
        # rejected before the nan return, not after 500 continued-fraction steps
        with pytest.raises(ValueError, match="degrees of freedom must be finite and positive"):
            t_cdf(x, df)


class TestFCdf:
    def test_anchor_values(self):
        for x, d1, d2, expected in F_CDF_ANCHORS:
            assert f_cdf(x, d1, d2) == pytest.approx(expected, rel=1e-10)

    def test_theil_f_tail(self):
        assert 1 - f_cdf(87.68, 3, 13) == pytest.approx(7.048e-09, rel=1e-3)

    def test_zero_and_infinity(self):
        assert f_cdf(0.0, 3, 10) == 0.0
        assert f_cdf(-1.0, 3, 10) == 0.0
        assert f_cdf(math.inf, 3, 10) == 1.0

    def test_invalid_df(self):
        with pytest.raises(ValueError):
            f_cdf(1.0, 0, 3)

    def test_nan_argument_is_nan(self):
        assert math.isnan(f_cdf(math.nan, 3, 10))

    @pytest.mark.parametrize("x", [1.0, 0.0, math.inf, math.nan])
    @pytest.mark.parametrize("d1,d2", [(math.inf, 3), (1, math.inf), (math.nan, 3), (1, math.nan)])
    def test_non_finite_df(self, x, d1, d2):
        # rejected before the early returns for x <= 0, inf and nan
        with pytest.raises(ValueError, match="degrees of freedom must be finite and positive"):
            f_cdf(x, d1, d2)


def conditioned_design(n: int, k: int, cn: float, seed: int = 0):
    """An intercept and k - 1 regressors whose unit-scaled design has a
    condition number near cn, with a response y = X beta + noise: the
    regressors are U diag(s) W' with s from 1 down to 1/cn, U orthogonal
    to the intercept, each column then scaled by 10^u, u in [-3, 3]."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))]))[0][:, 1:]
    W = np.linalg.qr(rng.normal(size=(k - 1, k - 1)))[0]
    Z = (U * np.geomspace(1.0, 1.0 / cn, k - 1)) @ W.T * 10.0 ** rng.uniform(-3, 3, k - 1)
    X = np.column_stack([np.ones(n), Z])
    return X, X @ rng.normal(size=k) + rng.normal(size=n)


class TestOlsFit:
    @pytest.mark.parametrize("name,p,f_p", [
        ("kg", ["0x1.59febee504686p-6", "0x1.0115c1ff0c058p-2", "0x1.3c6610ae3ad5ap-4",
                "0x1.6c30ab4f446d6p-1"], "0x1.3718a0e4b9bb5p-17"),
        ("theil", ["0x1.624ae0a4d16cbp-11", "0x1.474a83223e1f2p-9", "0x1.3e85a970a2007p-15",
                   "0x1.07a71674796c6p-1"], "0x1.e44d273ebbd69p-28"),
    ])
    def test_fixture_p_values_to_the_bit(self, request, name, p, f_p):
        # pinned from the unrolled continued fraction, before its Lentz step became a loop;
        # theil's p re-pinned when the norms stopped using BLAS, each within 2.5e-14 of a
        # 50-digit mpmath fit
        y, X = (request.getfixturevalue(f"{name}_{part}") for part in ("y", "design"))
        fit = ols_fit(y, X)
        assert [float(v).hex() for v in fit.p] == p
        assert float(fit.f_p).hex() == f_p

    def test_theil_table(self, theil_design, theil_y):
        fit = ols_fit(theil_y, theil_design)
        assert_allclose(fit.beta, [126.1695, 1.0308, -1.2574, -4.5355], rtol=0, atol=5e-4)
        assert_allclose(fit.se, [28.4634, 0.2760, 0.2062, 6.7753], rtol=0, atol=5e-4)
        assert_allclose(fit.t, [4.433, 3.735, -6.098, -0.669], rtol=0, atol=5e-3)
        assert_allclose(fit.p, [0.000676, 0.002497, 3.8e-05, 0.514947], rtol=0.05)
        assert fit.sigma == pytest.approx(5.676, abs=5e-4)
        assert fit.df_resid == 13
        assert fit.r2 == pytest.approx(0.9529, abs=5e-5)
        assert fit.adj_r2 == pytest.approx(0.942, abs=5e-4)
        assert fit.f_stat == pytest.approx(87.68, rel=1e-4)
        assert fit.f_p == pytest.approx(7.048e-09, rel=0.05)

    def test_kg_table(self, kg_design, kg_y):
        fit = ols_fit(kg_y, kg_design)
        assert_allclose(fit.beta, [18.7021, 0.3803, 1.4186, 0.5331], rtol=0, atol=5e-4)
        assert_allclose(fit.se, [6.8454, 0.3121, 0.7204, 1.3998], rtol=0, atol=5e-4)
        assert_allclose(fit.p, [0.0211, 0.2511, 0.0772, 0.7113], rtol=0.05)
        assert fit.sigma == pytest.approx(6.06, abs=5e-4)
        assert fit.df_resid == 10
        assert fit.r2 == pytest.approx(0.9187, abs=5e-5)
        assert fit.adj_r2 == pytest.approx(0.8943, abs=5e-4)
        assert fit.f_stat == pytest.approx(37.68, rel=1e-4)
        assert fit.f_p == pytest.approx(9.271e-06, rel=0.05)

    def test_residuals_orthogonal_to_design(self, theil_design, theil_y):
        fit = ols_fit(theil_y, theil_design)
        gradient = theil_design.X.T @ fit.residuals
        assert np.all(np.abs(gradient) <= 1e-8 * np.linalg.norm(theil_y))

    def test_exact_fit_edge(self):
        x = np.arange(1.0, 8.0)
        X = DesignMatrix(X=np.column_stack([np.ones(7), x]), intercept_present=True,
                         quantitative_idx=(1,), dummy_idx=(), labels=("intercept", "x"))
        fit = ols_fit(2.0 + 3.0 * x, X)
        assert_allclose(fit.residuals, 0.0, rtol=0, atol=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        # RSS may be exactly zero or rounding dust; either way the F test
        # must saturate rather than divide by zero or go negative
        assert math.isinf(fit.f_stat) or fit.f_stat > 1e15
        assert fit.f_p == pytest.approx(0.0, abs=1e-12)
        assert fit.sigma == pytest.approx(0.0, abs=1e-10)

    def test_exact_fit_with_zero_coefficient_gives_nan_p(self, monkeypatch):
        # se = 0 and beta = 0 give t = nan; its p-value is nan, not an error
        x = np.arange(1.0, 8.0)
        X = DesignMatrix(X=np.column_stack([np.ones(7), x]), intercept_present=True,
                         quantitative_idx=(1,), dummy_idx=(), labels=("intercept", "x"))
        fit_once = linalg._fit  # its beta and residual norm R[k, k] replaced, X's R kept

        def exact_fit(A, y):
            _, R, Rk_inv = fit_once(A, y)
            R = R.copy()
            R[2, 2] = 0.0
            return np.array([0.0, 3.0]), R, Rk_inv

        monkeypatch.setattr("collindiag.ols.linalg._fit", exact_fit)
        fit = ols_fit(3.0 * x, X)
        assert fit.sigma == 0.0
        assert math.isnan(fit.t[0]) and math.isnan(fit.p[0])
        assert math.isinf(fit.t[1]) and fit.p[1] == 0.0

    def test_exact_fit_statistics(self, monkeypatch):
        # se = 0 everywhere: t = +-inf and p = 0 where beta != 0, nan where
        # beta = 0; the F test saturates
        x = np.arange(1.0, 8.0)
        X = DesignMatrix(X=np.column_stack([np.ones(7), x, x * x]), intercept_present=True,
                         quantitative_idx=(1, 2), dummy_idx=(), labels=("intercept", "x", "x2"))
        fit_once = linalg._fit

        def exact_fit(A, y):
            _, R, Rk_inv = fit_once(A, y)
            R = R.copy()
            R[3, 3] = 0.0
            return np.array([0.0, 3.0, -2.0]), R, Rk_inv

        monkeypatch.setattr("collindiag.ols.linalg._fit", exact_fit)
        fit = ols_fit(3.0 * x - 2.0 * x * x, X)
        assert fit.se.tolist() == [0.0, 0.0, 0.0]
        assert math.isnan(fit.t[0]) and fit.t[1:].tolist() == [math.inf, -math.inf]
        assert math.isnan(fit.p[0]) and fit.p[1:].tolist() == [0.0, 0.0]
        assert (fit.f_stat, fit.f_p) == (math.inf, 0.0)

    def test_intercept_only_design_rejected(self):
        X = DesignMatrix(X=np.ones((5, 1)), intercept_present=True, quantitative_idx=(),
                         dummy_idx=(), labels=("intercept",))
        with pytest.raises(ValueError, match="an intercept column and a regressor besides it"):
            ols_fit(np.arange(5.0), X)

    def test_p_values_are_two_sided(self, kg_design, kg_y):
        fit = ols_fit(kg_y, kg_design)
        for ti, pi in zip(fit.t, fit.p):
            assert pi == pytest.approx(2 * (1 - t_cdf(abs(ti), fit.df_resid)), abs=1e-14)
        assert np.all((fit.p >= 0) & (fit.p <= 1))

    def test_adj_r2_not_above_r2(self, theil_design, theil_y):
        fit = ols_fit(theil_y, theil_design)
        assert fit.adj_r2 <= fit.r2
        assert 0.0 <= fit.r2 <= 1.0

    @pytest.mark.parametrize("s", [1e160, 1e-160])
    def test_response_scaled_far_from_one(self, kg_design, kg_y, s):
        base = ols_fit(kg_y, kg_design)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = ols_fit(kg_y * s, kg_design)
        for name in ("t", "p", "r2", "adj_r2", "f_stat", "f_p"):
            assert_allclose(getattr(fit, name), getattr(base, name), rtol=1e-12, err_msg=name)
        for name in ("beta", "se", "sigma"):
            assert_allclose(np.asarray(getattr(fit, name)) / s, getattr(base, name),
                            rtol=1e-12, err_msg=name)

    @pytest.mark.parametrize("k", [5, 20])
    @pytest.mark.parametrize("cn", [1e2, 1e5, 1e8])
    def test_se_matches_50_digit_replay(self, k, cn):
        mpmath = pytest.importorskip("mpmath")
        X, y = conditioned_design(200, k, cn)
        s = np.linalg.svd(X / np.linalg.norm(X, axis=0), compute_uv=False)
        scaled_cn = s[0] / s[-1]
        assert cn / 10 <= scaled_cn <= cn * 10
        fit = ols_fit(y, DesignMatrix(X=X, intercept_present=True,
                                      quantitative_idx=tuple(range(1, k)), dummy_idx=(),
                                      labels=tuple(f"x{j}" for j in range(k))))
        with mpmath.workdps(50):  # sigma^2 diag((X'X)^-1), (X'X)^-1 X'y for the residual
            A, b = mpmath.matrix(X.tolist()), mpmath.matrix(y.tolist())
            G_inv = (A.T * A) ** -1
            r = b - A * (G_inv * (A.T * b))
            var = (r.T * r)[0] / (200 - k)
            want = [float(mpmath.sqrt(var * G_inv[i, i])) for i in range(k)]
        assert_allclose(fit.se, want, rtol=k * np.finfo(float).eps * scaled_cn, atol=0)

    def test_constant_response_rejected(self, kg_design):
        with pytest.raises(ValueError, match="^response is constant; nothing to fit$"):
            ols_fit(np.full(kg_design.n, 3.0), kg_design)

    def test_singular_design_rejected(self):
        x = np.arange(1.0, 9.0)
        X = DesignMatrix(X=np.column_stack([np.ones(8), x, 3 * x]),
                         intercept_present=True, quantitative_idx=(1, 2), dummy_idx=(),
                         labels=("intercept", "a", "b"))
        with pytest.raises(SingularMatrixError):
            ols_fit(x, X)

    def test_one_qr_of_x_and_y_and_no_svd(self, monkeypatch, kg_dataset, kg_y):
        X = design_matrix(kg_dataset)
        calls = count_factorizations(monkeypatch)
        ols_fit(kg_y, X)
        assert calls == [("qr", (1, X.n, X.k + 1))]
        assert "factors" not in vars(X)  # X alone is never factored

    def test_needs_more_rows_than_columns(self):
        X = DesignMatrix(X=np.column_stack([np.ones(2), [1.0, 2.0]]),
                         intercept_present=True, quantitative_idx=(1,), dummy_idx=(),
                         labels=("intercept", "x"))
        with pytest.raises(ValueError, match="more observations"):
            ols_fit(np.array([1.0, 2.0]), X)


class TestSignificanceContradiction:
    def test_kg_contradiction(self, kg_design, kg_y):
        verdict = significance_contradiction(ols_fit(kg_y, kg_design))
        assert verdict.contradiction
        assert verdict.alpha == 0.05
        assert "0.05" in verdict.description
        assert verdict.min_coef_p == pytest.approx(0.0772, rel=0.05)

    def test_theil_no_contradiction(self, theil_design, theil_y):
        verdict = significance_contradiction(ols_fit(theil_y, theil_design))
        assert not verdict.contradiction
        assert verdict.description == "no apparent contradiction"

    def test_all_significant_is_no_contradiction(self, theil_design, theil_y):
        # huge alpha makes every coefficient individually significant
        verdict = significance_contradiction(ols_fit(theil_y, theil_design), alpha=0.9)
        assert not verdict.contradiction

    def test_intercept_is_not_counted(self, kg_design, kg_y):
        fit = ols_fit(kg_y, kg_design)
        # the intercept p-value (0.0211) is below alpha, yet the verdict holds
        assert fit.p[0] < 0.05
        assert significance_contradiction(fit).contradiction

    def test_alpha_validation(self, theil_design, theil_y):
        fit = ols_fit(theil_y, theil_design)
        with pytest.raises(ValueError, match="alpha"):
            significance_contradiction(fit, alpha=1.5)


class TestTailPValues:
    """p-values taken from the upper tail of the incomplete beta, checked
    against scipy (a test-only oracle) far below 1e-16."""

    def test_far_tail_against_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        from collindiag.ols import _betainc

        # two-sided t test at t = 40 on 100 df, as ols_fit computes it
        p = _betainc(50.0, 0.5, 100.0 / (100.0 + 40.0 ** 2))
        assert p == pytest.approx(2.462107602140071e-63, rel=1e-10)
        assert p == pytest.approx(2.0 * stats.t.sf(40.0, 100), rel=1e-10)
        # F = 500 on (3, 100) df
        f_p = _betainc(50.0, 1.5, 100.0 / (100.0 + 3 * 500.0))
        assert f_p == pytest.approx(4.846696230808535e-60, rel=1e-10)
        assert f_p == pytest.approx(stats.f.sf(500.0, 3, 100), rel=1e-10)

    def test_ols_fit_p_values_against_scipy(self, theil_design, theil_y):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(6)
        n = 104
        x = rng.normal(size=(n, 3))
        X = DesignMatrix(X=np.column_stack([np.ones(n), x]), intercept_present=True,
                         quantitative_idx=(1, 2, 3), dummy_idx=(),
                         labels=("intercept", "a", "b", "c"))
        for noise in (1.0, 0.2, 0.05, 0.02):
            y = X.X @ np.array([0.1, 0.5, 1.0, 2.0]) + noise * rng.normal(size=n)
            fit = ols_fit(y, X)
            assert_allclose(fit.p, 2.0 * stats.t.sf(np.abs(fit.t), fit.df_resid), rtol=1e-10)
            assert fit.f_p == pytest.approx(stats.f.sf(fit.f_stat, 3, fit.df_resid), rel=1e-10)
        assert fit.f_p < 1e-200 and fit.p[1:].max() < 1e-50

        fit = ols_fit(theil_y, theil_design)
        assert fit.f_p == pytest.approx(stats.f.sf(fit.f_stat, 3, fit.df_resid), rel=1e-10)
        assert f"{fit.f_p:.7g}" == "7.047513e-09"
