"""Invariant and property tests across modules, on random designs and
on the built-in datasets."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from collindiag import (
    DesignMatrix,
    SingularMatrixError,
    cns,
    coefficient_of_variation,
    condition_number,
    correlation_matrix,
    least_squares,
    multicol,
    ols_fit,
    stewart_index,
    t_cdf,
    unit_length_scale,
    vif,
)

from conftest import random_design


def rescale_column(X: DesignMatrix, col: int, factor: float) -> DesignMatrix:
    M = X.X.copy()
    M[:, col] *= factor
    return dataclasses.replace(X, X=M)


def aux_regression_vif(X: DesignMatrix, i: int) -> float:
    """Independent VIF oracle: 1/(1-R^2) from regressing quantitative
    regressor i on the other quantitative regressors plus intercept."""
    quant = list(X.quantitative_idx)
    target = X.X[:, quant[i]]
    others = [X.X[:, j] for k, j in enumerate(quant) if k != i]
    A = np.column_stack([np.ones(X.n)] + others)
    coeffs, *_ = np.linalg.lstsq(A, target, rcond=None)
    resid = target - A @ coeffs
    centered = target - target.mean()
    r2 = 1.0 - (resid @ resid) / (centered @ centered)
    return 1.0 / (1.0 - r2)


class TestVifOracleEquivalence:
    def test_fifty_random_designs(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            X = random_design(rng)
            values = [v for _, v in vif(X)]
            expected = [aux_regression_vif(X, i) for i in range(len(values))]
            assert_allclose(values, expected, rtol=1e-8)

    def test_fixtures(self, theil_design, kg_design):
        for X in (theil_design, kg_design):
            values = [v for _, v in vif(X)]
            expected = [aux_regression_vif(X, i) for i in range(len(values))]
            assert_allclose(values, expected, rtol=1e-8)


class TestInterlacing:
    def test_hundred_random_designs(self):
        rng = np.random.default_rng(99)
        for i in range(100):
            X = random_design(rng, with_dummy=bool(i % 3 == 0))
            rep = cns(X)
            assert rep.cn_with >= rep.cn_without - 1e-9
            assert 0.0 <= rep.increase_pct < 100.0

    def test_fixtures(self, theil_design, kg_design):
        for X in (theil_design, kg_design):
            rep = cns(X)
            assert rep.cn_with >= rep.cn_without


class TestScaleInvariance:
    MEASURE_TOL = 1e-9

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(factor=st.floats(min_value=1e-3, max_value=1e3),
           col=st.integers(min_value=1, max_value=2))
    def test_theil_measures_unchanged(self, theil_design, factor, col):
        base = theil_design
        scaled = rescale_column(base, col, factor)

        assert_allclose([v for _, v in vif(scaled)], [v for _, v in vif(base)],
                        rtol=self.MEASURE_TOL)
        assert_allclose(correlation_matrix(scaled).r, correlation_matrix(base).r,
                        rtol=0, atol=self.MEASURE_TOL)
        assert condition_number(scaled) == pytest.approx(
            condition_number(base), rel=self.MEASURE_TOL)
        a, b = cns(scaled), cns(base)
        assert a.cn_without == pytest.approx(b.cn_without, rel=self.MEASURE_TOL)
        assert a.increase_pct == pytest.approx(b.increase_pct, rel=self.MEASURE_TOL)
        assert_allclose(stewart_index(scaled).k2, stewart_index(base).k2,
                        rtol=self.MEASURE_TOL)
        assert coefficient_of_variation(scaled.X[:, col]) == pytest.approx(
            coefficient_of_variation(base.X[:, col]), rel=self.MEASURE_TOL)

    def test_random_designs(self):
        rng = np.random.default_rng(512)
        for _ in range(15):
            X = random_design(rng, n_quant=3)
            factor = float(rng.uniform(0.01, 100.0))
            col = int(rng.integers(1, 4))
            scaled = rescale_column(X, col, factor)
            assert_allclose([v for _, v in vif(scaled)], [v for _, v in vif(X)],
                            rtol=1e-9)
            assert_allclose(stewart_index(scaled).k2, stewart_index(X).k2, rtol=1e-9)
            assert condition_number(scaled) == pytest.approx(
                condition_number(X), rel=1e-9)


class TestTranslationSensitivity:
    def test_cv_decreases_and_k2_increases_with_shift(self, theil_design):
        income = theil_design.X[:, 1] - theil_design.X[:, 1].mean()
        prev_cv, prev_k2 = np.inf, 0.0
        for c in (0.5, 1.0, 2.0, 5.0, 20.0, 100.0):
            M = theil_design.X.copy()
            M[:, 1] = income + c
            shifted = dataclasses.replace(theil_design, X=M)
            cv = coefficient_of_variation(shifted.X[:, 1])
            k2 = float(stewart_index(shifted).k2[1])
            assert cv < prev_cv
            assert k2 > prev_k2
            prev_cv, prev_k2 = cv, k2


class TestStewartIdentity:
    def test_k2_at_least_vif(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            X = random_design(rng)
            rep = stewart_index(X)
            k2 = rep.k2[1:]
            vifs = np.array([v for _, v in vif(X)])
            assert np.all(k2 - vifs >= -1e-9)
            # the split comes from the CVs; the VIF route agrees to c * eps * CN, c = 100
            bound = 100 * np.finfo(float).eps * cns(X).cn_with
            assert_allclose(rep.essential_pct, 100.0 * vifs / k2, rtol=bound, atol=0)

    def test_centered_regressor_k2_equals_vif(self):
        rng = np.random.default_rng(88)
        for _ in range(25):
            X = random_design(rng)
            quant = list(X.quantitative_idx)
            i = int(rng.integers(0, len(quant)))
            M = X.X.copy()
            M[:, quant[i]] -= M[:, quant[i]].mean()
            centered = dataclasses.replace(X, X=M)
            k2_i = float(stewart_index(centered).k2[1 + i])
            vif_i = [v for _, v in vif(centered)][i]
            assert k2_i == pytest.approx(vif_i, rel=1e-9)

    def test_centered_fixture_columns(self, theil_design, kg_design):
        for X in (theil_design, kg_design):
            for i in range(len(X.quantitative_idx)):
                col = X.quantitative_idx[i]
                M = X.X.copy()
                M[:, col] -= M[:, col].mean()
                centered = dataclasses.replace(X, X=M)
                k2_i = float(stewart_index(centered).k2[1 + i])
                vif_i = [v for _, v in vif(centered)][i]
                assert k2_i == pytest.approx(vif_i, rel=1e-9)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(columns=st.lists(st.lists(st.floats(min_value=-100, max_value=100), min_size=6,
                                     max_size=6), min_size=2, max_size=3))
    def test_no_split_without_an_intercept(self, columns):
        assume(all(np.ptp(column) > 0.0 for column in columns))  # the design gate rejects the rest
        X = DesignMatrix(X=np.array(columns).T, intercept_present=False,
                         quantitative_idx=tuple(range(len(columns))), dummy_idx=(),
                         labels=tuple(f"q{i}" for i in range(len(columns))))
        try:
            rep = stewart_index(X)
        except SingularMatrixError:
            return  # a zero or dependent column has no Stewart index at all
        assert rep.essential_pct is None and rep.nonessential_pct is None


class TestDeterminantBounds:
    def test_det_between_zero_and_one(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            rep = correlation_matrix(random_design(rng))
            assert -1e-12 <= rep.det_r <= 1.0 + 1e-12

    def test_det_one_iff_orthogonal(self):
        from test_diagnostics import orthogonal_design

        rep = correlation_matrix(orthogonal_design())
        off = rep.r[0, 1]
        assert abs(off) < 1e-12 and rep.det_r == pytest.approx(1.0, abs=1e-12)

        rng = np.random.default_rng(13)
        correlated = random_design(rng, n_quant=2)
        rep = correlation_matrix(correlated)
        if abs(rep.r[0, 1]) > 1e-6:
            assert rep.det_r < 1.0 - 1e-12


def exact_collinear_design(kind: str) -> DesignMatrix:
    rng = np.random.default_rng(4)
    n = 12
    x = rng.normal(3, 2, n)
    z = rng.normal(-1, 1, n)
    if kind == "duplicate":
        third = x.copy()
    elif kind == "affine":
        third = 2.0 + 3.0 * x
    else:  # linear combination of two regressors
        third = 0.5 * x - 2.0 * z
    X = np.column_stack([np.ones(n), x, z, third])
    return DesignMatrix(X=X, intercept_present=True, quantitative_idx=(1, 2, 3),
                        dummy_idx=(), labels=("intercept", "x", "z", "w"))


class TestExactCollinearity:
    @pytest.mark.parametrize("kind", ["duplicate", "affine", "combination"])
    def test_raises_everywhere_never_returns_numbers(self, kind):
        X = exact_collinear_design(kind)
        y = np.arange(float(X.n))
        with pytest.raises(SingularMatrixError):
            vif(X)
        with pytest.raises(SingularMatrixError):
            condition_number(X)
        with pytest.raises(SingularMatrixError):
            stewart_index(X)
        with pytest.raises(SingularMatrixError):
            least_squares(X.X, y)
        with pytest.raises(SingularMatrixError):
            ols_fit(y, X)


class TestMulticolConsistency:
    def test_bundle_equals_individual_measures_on_random_designs(self):
        rng = np.random.default_rng(600)
        for i in range(10):
            X = random_design(rng, with_dummy=bool(i % 2))
            report = multicol(X)
            assert report.vifs == vif(X)
            assert report.cn == cns(X)
            assert np.array_equal(report.correlation.r, correlation_matrix(X).r)
            assert np.array_equal(report.stewart.k2, stewart_index(X).k2)


class TestOlsProperties:
    def test_noise_regressor_never_decreases_r2(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            X = random_design(rng, n_quant=2)
            y = X.X @ rng.normal(size=3) + rng.normal(0, 1.0, X.n)
            base = ols_fit(y, X)
            noise = rng.normal(size=X.n)
            extended = DesignMatrix(
                X=np.column_stack([X.X, noise]),
                intercept_present=True,
                quantitative_idx=X.quantitative_idx + (X.k,),
                dummy_idx=(),
                labels=X.labels + ("noise",),
            )
            assert ols_fit(y, extended).r2 >= base.r2 - 1e-12

    def test_row_permutation_leaves_fit_unchanged(self, theil_design, theil_y):
        base = ols_fit(theil_y, theil_design)
        rng = np.random.default_rng(9)
        perm = rng.permutation(theil_design.n)
        shuffled = dataclasses.replace(theil_design, X=theil_design.X[perm])
        fit = ols_fit(theil_y[perm], shuffled)
        assert_allclose(fit.beta, base.beta, rtol=0, atol=1e-12)
        assert_allclose(fit.se, base.se, rtol=0, atol=1e-12)
        assert fit.r2 == pytest.approx(base.r2, abs=1e-12)
        assert fit.f_stat == pytest.approx(base.f_stat, abs=1e-9)


class TestScalarProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(r=st.floats(min_value=-0.999, max_value=0.999))
    def test_two_by_two_correlation_determinant(self, r):
        from test_linalg import design_with_correlation

        rep = correlation_matrix(design_with_correlation(r))
        assert rep.det_r == pytest.approx(1 - r * r, rel=1e-10, abs=1e-12)
        assert rep.det_r == pytest.approx(np.linalg.det(rep.r), rel=1e-10, abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(x=st.floats(min_value=-30, max_value=30),
           df=st.floats(min_value=0.5, max_value=200))
    def test_t_cdf_is_a_probability_and_symmetric(self, x, df):
        p = t_cdf(x, df)
        assert 0.0 <= p <= 1.0
        assert p + t_cdf(-x, df) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(min_value=-100, max_value=100), min_size=2,
                           max_size=12),
           tol=st.floats(min_value=0.0, max_value=0.5))
    def test_perturb_column_achieves_tol(self, values, tol):
        from collindiag import perturb_column

        x = np.asarray(values)
        if np.linalg.norm(x) == 0.0:
            return
        rng = np.random.default_rng(1)
        r = rng.normal(10, 10, x.size)
        xp = perturb_column(x, tol, r)
        achieved = np.linalg.norm(xp - x) / np.linalg.norm(x)
        assert achieved == pytest.approx(tol, abs=1e-14)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(scale=st.floats(min_value=0.01, max_value=100))
    def test_unit_length_scale_norms(self, scale):
        rng = np.random.default_rng(17)
        M = rng.normal(0, scale, size=(9, 4))
        norms = np.sqrt((unit_length_scale(M) ** 2).sum(axis=0))
        assert np.all(np.abs(norms - 1.0) <= 1e-12)
