"""The singular cut: one rule, s_min <= max(n, k) * eps * s_max on the
unit-scaled design, shared by every measure and by least squares."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from collindiag import (
    DesignMatrix,
    PerturbConfig,
    SingularMatrixError,
    cns,
    condition_number,
    least_squares,
    multicol,
    ols_fit,
    perturb_n,
    stewart_index,
    vif,
)
from collindiag import linalg

from conftest import count_factorizations, count_inverses
from test_properties import aux_regression_vif


def near_pair_design(n: int, delta: float, seed: int) -> DesignMatrix:
    """Intercept, x, x + delta * z and an unrelated v: scaled CN ~ 1/delta."""
    rng = np.random.default_rng(seed)
    x = rng.normal(2.0, 1.0, n)
    z = rng.normal(size=n)
    v = rng.normal(-1.0, 1.0, n)
    X = np.column_stack([np.ones(n), x, x + delta * z, v])
    return DesignMatrix(X=X, intercept_present=True, quantitative_idx=(1, 2, 3),
                        dummy_idx=(), labels=("intercept", "x", "w", "v"))


def unit_scaled(M: np.ndarray) -> np.ndarray:
    return M / np.linalg.norm(M, axis=0)


def scaled_cn(M: np.ndarray) -> float:
    s = np.linalg.svd(unit_scaled(M), compute_uv=False)
    return float(s[0] / s[-1])


def design_with_cn(target: float, n: int, seed: int) -> DesignMatrix:
    """near_pair_design with delta tuned until the scaled CN is within 1%
    of target."""
    delta = 1.0
    for _ in range(30):
        design = near_pair_design(n, delta, seed)
        cn = scaled_cn(design.X)
        if abs(np.log(cn / target)) < 0.01:
            break
        delta *= cn / target
    return design


class TestFullRankNearCollinearDesign:
    """x and x + 1e-7 z with n = 50: scaled CN ~ 7e7, full rank by the
    rule, so every measure reports instead of raising."""

    @pytest.fixture()
    def design(self):
        return near_pair_design(50, 1e-7, seed=1)

    @pytest.fixture()
    def y(self, design):
        return design.X @ np.array([1.0, 2.0, 3.0, 4.0]) + \
            np.random.default_rng(2).normal(size=design.n)

    def test_multicol_reports_every_section(self, design):
        assert 1e6 < scaled_cn(design.X) < 1e9
        report = multicol(design)
        assert report.correlation is not None and report.vifs is not None
        assert report.cn is not None and report.stewart is not None
        assert report.cn.cn_with == pytest.approx(scaled_cn(design.X), rel=1e-6)
        assert report.cn.cn_without == pytest.approx(scaled_cn(design.X[:, 1:]), rel=1e-6)

    def test_vifs_match_oracles(self, design):
        values = [v for _, v in vif(design)]
        # numpy route: SVD of the explicitly centered, unit-scaled block
        C = design.X[:, 1:] - design.X[:, 1:].mean(axis=0)
        _, s, vt = np.linalg.svd(unit_scaled(C), full_matrices=False)
        assert_allclose(values, ((vt / s[:, None]) ** 2).sum(axis=0), rtol=1e-6)
        # the auxiliary regression's residual is ~1e-7 of the regressor,
        # so the oracle itself carries ~eps * CN / 1e-7 relative error
        expected = [aux_regression_vif(design, i) for i in range(3)]
        assert_allclose(values, expected, rtol=1e-2)

    def test_ols_fit_and_perturb_n_return(self, design, y):
        fit = ols_fit(y, design)
        assert np.all(np.isfinite(fit.se)) and np.all(fit.se > 0)
        assert_allclose(fit.beta, np.linalg.lstsq(design.X, y, rcond=None)[0], rtol=1e-6)
        result = perturb_n(y, design, PerturbConfig(iterations=20, seed=3))
        assert result.achieved_summary.mean == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.isfinite(result.change_pct))


class TestOneRuleEverywhere:
    """Designs at scaled CN 1e2, 1e3, ..., 1e16.  With n = 50 the cut
    sits at CN ~ 9e13, between two decades.  The designs carry no
    dummies, so the intercept-plus-quantitative block that stewart_index
    and vif test is the whole design.  Past the cut, every measure and
    fit raises linalg.scaled_svd's one message."""

    @staticmethod
    def outcomes(design, y) -> list:
        """Per measure and fit: None if it returns, else its SingularMatrixError's message."""
        outcomes = []
        for call in (lambda: condition_number(design), lambda: cns(design),
                     lambda: vif(design), lambda: stewart_index(design),
                     lambda: multicol(design), lambda: least_squares(design.X, y),
                     lambda: ols_fit(y, design)):
            try:
                call()
                outcomes.append(None)
            except SingularMatrixError as exc:
                outcomes.append(str(exc))
        return outcomes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_raise_or_all_return_as_matrix_rank_says(self, seed):
        outcomes_seen = set()
        for exponent in range(2, 17):
            design = design_with_cn(10.0 ** exponent, 50, seed)
            y = design.X @ np.ones(design.k) + np.random.default_rng(seed).normal(size=50)
            outcomes = self.outcomes(design, y)
            full_rank = np.linalg.matrix_rank(unit_scaled(design.X)) == design.k
            want = None if full_rank else linalg.SINGULAR_MESSAGE
            assert outcomes == [want] * 7, (exponent, outcomes, full_rank)
            outcomes_seen.add(full_rank)
        assert outcomes_seen == {True, False}

    @pytest.mark.parametrize("relation", ["x3 = x1", "x3 = 2 x1 - x2"])
    def test_an_exact_relation_raises_one_message_everywhere(self, relation):
        rng = np.random.default_rng(5)
        x1, x2 = rng.normal(2.0, 1.0, (2, 50))
        x3 = x1.copy() if relation == "x3 = x1" else 2.0 * x1 - x2
        design = DesignMatrix(X=np.column_stack([np.ones(50), x1, x2, x3]),
                              intercept_present=True, quantitative_idx=(1, 2, 3), dummy_idx=(),
                              labels=("intercept", "x1", "x2", "x3"))
        y = x1 + x2 + rng.normal(size=50)
        assert self.outcomes(design, y) == [linalg.SINGULAR_MESSAGE] * 7


class TestFactorOnce:
    NUMPY_LINALG = ("qr", "svd", "lstsq", "eigh", "eigvalsh", "inv", "det", "solve", "cholesky")

    def test_multicol_factors_the_tall_design_once(self, monkeypatch):
        n = 500
        rng = np.random.default_rng(8)
        Q = rng.normal(rng.uniform(1, 3, 5), 1.0, (n, 5))
        design = DesignMatrix(X=np.column_stack([np.ones(n), Q]), intercept_present=True,
                              quantitative_idx=(1, 2, 3, 4, 5), dummy_idx=(),
                              labels=("intercept", "a", "b", "c", "d", "e"))
        tall = []
        for name in self.NUMPY_LINALG:
            def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                if np.shape(a)[0] == n:
                    tall.append(_name)
                return _fn(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        report = multicol(design)
        assert report.vifs is not None and report.stewart is not None
        assert tall == ["qr"]

    def test_least_squares_factors_the_design_once(self, monkeypatch):
        # one QR of [X | y]; lstsq is never called, on any shape
        n = 500
        rng = np.random.default_rng(9)
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 4))])
        y = X @ np.arange(1.0, 6.0) + rng.normal(size=n)
        tall = []
        for name in self.NUMPY_LINALG:
            def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                if np.shape(a)[-2] == n or _name == "lstsq":
                    tall.append(_name)
                return _fn(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        least_squares(X, y)
        assert tall == ["qr"]

    def test_perturb_n_fits_the_baseline_once(self, monkeypatch, kg_design, kg_y):
        # the baseline and every draw are factored once each (7 + 1 n-row
        # matrices) in stacked numpy calls; no least_squares call per draw
        n, factored = kg_design.n, []
        for name in self.NUMPY_LINALG:
            def counted(a, *args, _fn=getattr(np.linalg, name), **kwargs):
                if np.shape(a)[-2] == n:
                    factored.append(int(np.prod(np.shape(a)[:-2], dtype=int)))
                return _fn(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        monkeypatch.setattr(linalg, "least_squares",
                            lambda *args: pytest.fail("least_squares called"))
        perturb_n(kg_y, kg_design, PerturbConfig(iterations=7, seed=1))
        assert factored == [1, 7]  # the baseline, then one block of 7 draws

    @pytest.mark.parametrize("call", ["multicol", "ols_fit"])
    def test_a_tall_design_is_one_panel_factorization(self, monkeypatch, call):
        # n = 1e4 rows of 10 centered columns, or 12 of [X | y], take panels; no plain
        # n-row QR beside them
        n = 10_000
        rng = np.random.default_rng(10)
        X = np.column_stack([np.ones(n), rng.normal(rng.uniform(1, 3, 10), 1.0, (n, 10))])
        design = DesignMatrix(X=X, intercept_present=True, quantitative_idx=tuple(range(1, 11)),
                              dummy_idx=(), labels=("intercept",) + tuple("abcdefghij"))
        calls = count_factorizations(monkeypatch)
        if call == "multicol":
            multicol(design)
            want = ("panel qr", (n, 10))
        else:
            ols_fit(X @ rng.normal(size=11) + rng.normal(size=n), design)
            want = ("panel qr", (1, n, 12))
        assert [c for c in calls if n in c[1]] == [want]

    def test_ols_fit_inverts_R_once(self, monkeypatch, kg_design, kg_y):
        # the gate's R_k^-1 gives se as well: one inverse, of a 1-stack
        shapes = count_inverses(monkeypatch)
        fit = ols_fit(kg_y, kg_design)
        assert shapes == [(1, kg_design.k, kg_design.k)]
        assert np.isfinite(fit.se).all()
