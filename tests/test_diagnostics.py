import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from collindiag import (
    DEFAULT_THRESHOLDS,
    Dataset,
    DesignMatrix,
    DiagnosticsReport,
    SingularMatrixError,
    SlmReport,
    Thresholds,
    cn_severity,
    cns,
    coefficient_of_variation,
    coefficients_of_variation,
    condition_number,
    correlation_matrix,
    design_matrix,
    multicol,
    proportion_of_ones,
    slm,
    stewart_index,
    vif,
)
from collindiag import diagnostics, linalg
from collindiag.diagnostics import (
    NEED_INTERCEPT,
    NEED_ONE_DUMMY,
    NEED_ONE_QUANTITATIVE,
    NEED_TWO_QUANTITATIVE,
    SLM_NEEDS_TWO_COLUMNS,
)
from collindiag.linalg import SINGULAR_MESSAGE

from conftest import count_factorizations, random_design


def orthogonal_design(n=8, shift=0.0):
    """Intercept plus two centered, mutually orthogonal regressors."""
    t = np.arange(n, dtype=float)
    x1 = t - t.mean()
    x2 = np.resize([1.0, -1.0], n)
    x2 -= x2.mean()
    x2 -= (x2 @ x1) / (x1 @ x1) * x1
    return DesignMatrix(
        X=np.column_stack([np.ones(n), x1 + shift, x2 + shift]),
        intercept_present=True,
        quantitative_idx=(1, 2),
        dummy_idx=(),
        labels=("intercept", "x1", "x2"),
    )


class TestThresholds:
    def test_defaults(self):
        th = DEFAULT_THRESHOLDS
        assert th.pairwise_corr == 0.9486833
        assert th.vif_limit == 10.0
        assert th.cn_moderate == 20.0
        assert th.cn_severe == 30.0
        assert th.cv_limit == 0.1002506

    def test_det_r_threshold_formula(self):
        assert DEFAULT_THRESHOLDS.det_r_threshold(14, 3) == pytest.approx(0.06098764, abs=5e-10)
        assert DEFAULT_THRESHOLDS.det_r_threshold(17, 2) == pytest.approx(0.07508642, abs=5e-10)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            Thresholds(vif_limit=-1.0)
        with pytest.raises(ValueError, match="cn_moderate"):
            Thresholds(cn_moderate=30.0, cn_severe=20.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["vif_limit", "cn_severe"])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"threshold {name} must be finite"):
            Thresholds(**{name: value})

    def test_key_set_twice_rejected(self, tmp_path):
        path = tmp_path / "thresholds.cfg"
        path.write_text("vif_limit = 5\ncn_severe = 40\n# again\nvif_limit = 50\n",
                        encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            Thresholds.from_file(path)
        assert str(exc.value) == f"{path}:4: threshold 'vif_limit' already set on line 1"

    def test_line_without_equals_sign_rejected(self, tmp_path):
        path = tmp_path / "thresholds.cfg"
        path.write_text("vif_limit = 5\ncn_severe 40\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            Thresholds.from_file(path)
        assert str(exc.value) == f"{path}:2: expected key=value"


class TestCorrelationMatrix:
    def test_theil(self, theil_design):
        rep = correlation_matrix(theil_design)
        assert rep.labels == ("income", "relprice")
        assert rep.r[0, 1] == pytest.approx(0.1788467, abs=1e-6)
        assert rep.det_r == pytest.approx(0.9680139, abs=1e-6)
        assert rep.flagged_pairs == ()
        assert not rep.problematic_det
        assert not rep.problematic

    def test_kg(self, kg_design):
        rep = correlation_matrix(kg_design)
        assert rep.r[0, 1] == pytest.approx(0.9431118, abs=1e-6)
        assert rep.r[0, 2] == pytest.approx(0.8106989, abs=1e-6)
        assert rep.r[1, 2] == pytest.approx(0.7371272, abs=1e-6)
        assert rep.det_r == pytest.approx(0.03713592, abs=1e-7)
        assert rep.det_threshold == pytest.approx(0.06098764, abs=5e-10)
        # 0.9431118 is just below the 0.9486833 pairwise cutoff
        assert rep.flagged_pairs == ()
        assert rep.problematic_det
        assert rep.problematic

    def test_orthogonal_columns(self):
        rep = correlation_matrix(orthogonal_design())
        assert rep.r[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert rep.det_r == pytest.approx(1.0, abs=1e-12)

    def test_requires_two_quantitative(self, theil_income_design):
        with pytest.raises(ValueError, match="two quantitative"):
            correlation_matrix(theil_income_design)

    def test_no_more_rows_than_regressors_has_zero_determinant(self):
        # three centered columns in n = 3 rows span at most two dimensions
        a, b, c = [-1.0, 0.0, 1.0], [-1.0, 1.0, 0.0], [2.0, -1.0, 5.0]
        design = DesignMatrix(X=np.column_stack([np.ones(3), a, b, c]), intercept_present=True,
                              quantitative_idx=(1, 2, 3), dummy_idx=(),
                              labels=("intercept", "a", "b", "c"))
        rep = correlation_matrix(design)
        assert rep.det_r == pytest.approx(0.0, abs=1e-12)
        assert rep.problematic_det

    def test_zero_variance_column_named(self):
        for intercept in (True, False):
            t = np.arange(6.0)
            cols = [t, np.full(6, 2.0), t * t]
            if intercept:
                cols.insert(0, np.ones(6))
            start = int(intercept)
            with pytest.raises(ValueError, match="^quantitative column 'const' has zero variance$"):
                DesignMatrix(X=np.column_stack(cols), intercept_present=intercept,
                             quantitative_idx=tuple(range(start, start + 3)), dummy_idx=(),
                             labels=("intercept",) * start + ("t", "const", "t2"))

    def test_constant_regressor_without_intercept_rejected(self):
        # centered, a constant column is zero: no measure has a correlation for it
        d = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="^quantitative column 'const' has zero variance$"):
            DesignMatrix(X=np.column_stack([np.full(6, 2.0), d]), intercept_present=False,
                         quantitative_idx=(0,), dummy_idx=(1,), labels=("const", "d"))
        ds = Dataset("t", ("const", "d"), ("quantitative", "dummy"),
                     np.column_stack([np.full(6, 2.0), d]))
        with pytest.raises(ValueError, match="^t: quantitative column 'const' has zero variance$"):
            design_matrix(ds, intercept=False)

    def test_diagonal_is_one_and_entries_bounded(self, kg_design):
        rep = correlation_matrix(kg_design)
        assert_allclose(np.diag(rep.r), 1.0, rtol=0, atol=0)
        assert np.all(np.abs(rep.r) <= 1 + 1e-12)

    def test_pairwise_flagging_uses_absolute_value(self):
        X = orthogonal_design()
        flipped = np.column_stack([X.X[:, 0], X.X[:, 1], -X.X[:, 1] + 1e-6 * X.X[:, 2]])
        design = DesignMatrix(X=flipped, intercept_present=True,
                              quantitative_idx=(1, 2), dummy_idx=(),
                              labels=("intercept", "x1", "x2"))
        rep = correlation_matrix(design)
        assert rep.r[0, 1] < -0.99
        assert rep.flagged_pairs
        assert rep.problematic_pairs


class TestVif:
    def test_theil(self, theil_design):
        values = vif(theil_design)
        assert [label for label, _ in values] == ["income", "relprice"]
        assert_allclose([v for _, v in values], [1.033043, 1.033043], rtol=1e-5)

    def test_kg(self, kg_design):
        values = [v for _, v in vif(kg_design)]
        assert_allclose(values, [12.296544, 9.230073, 2.976638], rtol=1e-5)

    def test_orthogonal_regressors_have_unit_vif(self):
        values = [v for _, v in vif(orthogonal_design())]
        assert_allclose(values, [1.0, 1.0], rtol=0, atol=1e-12)

    def test_all_vifs_at_least_one(self, kg_design, theil_design):
        for design in (kg_design, theil_design):
            assert all(v >= 1.0 - 1e-12 for _, v in vif(design))

    def test_past_the_cut_raises_the_cut_message(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=20)
        X = np.column_stack([np.ones(20), x, x + 1e-14 * rng.normal(size=20),
                             rng.normal(size=20)])
        design = DesignMatrix(X=X, intercept_present=True, quantitative_idx=(1, 2, 3),
                              dummy_idx=(), labels=("intercept", "a", "b", "c"))
        with pytest.raises(SingularMatrixError) as raised:
            vif(design)
        assert str(raised.value) == SINGULAR_MESSAGE


class TestConditionNumber:
    def test_theil_with_intercept(self, theil_design):
        assert condition_number(theil_design) == pytest.approx(53.39671, rel=1e-4)

    def test_kg_without_intercept(self, kg_design):
        assert condition_number(kg_design, include_intercept=False) == pytest.approx(
            30.2987, rel=1e-4)

    def test_single_unit_column(self):
        design = DesignMatrix(X=np.ones((5, 1)), intercept_present=True,
                              quantitative_idx=(), dummy_idx=(), labels=("intercept",))
        assert condition_number(design) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="^no columns left for the condition number$"):
            condition_number(design, include_intercept=False)

    def test_exact_collinearity_raises(self):
        x = np.arange(1.0, 7.0)
        X = np.column_stack([np.ones(6), x, 2 * x])
        design = DesignMatrix(X=X, intercept_present=True, quantitative_idx=(1, 2),
                              dummy_idx=(), labels=("intercept", "x", "x2"))
        with pytest.raises(SingularMatrixError):
            condition_number(design)

    def test_dummy_columns_are_included(self, theil_design):
        # dropping the dummy changes the condition number, so it must be in
        quant_only = DesignMatrix(
            X=theil_design.X[:, :3], intercept_present=True,
            quantitative_idx=(1, 2), dummy_idx=(),
            labels=("intercept", "income", "relprice"),
        )
        full = condition_number(theil_design)
        reduced = condition_number(quant_only)
        assert abs(full - reduced) > 1.0


class TestCns:
    def test_theil(self, theil_design):
        rep = cns(theil_design)
        assert rep.cn_without == pytest.approx(24.15423, rel=1e-4)
        assert rep.cn_with == pytest.approx(53.39671, rel=1e-4)
        assert rep.increase_pct == pytest.approx(54.76458, rel=1e-4)

    def test_kg(self, kg_design):
        rep = cns(kg_design)
        assert rep.cn_without == pytest.approx(30.2987, rel=1e-4)
        assert rep.cn_with == pytest.approx(35.88644, rel=1e-4)
        assert rep.increase_pct == pytest.approx(15.57062, rel=1e-4)

    def test_centered_equal_norm_columns_give_zero_increase(self):
        # centered regressors orthogonal to the intercept: dropping the
        # intercept leaves the spectrum, up to the unit eigenvalue it adds
        rep = cns(orthogonal_design())
        assert rep.increase_pct == pytest.approx(0.0, abs=1e-9)
        assert rep.cn_with >= rep.cn_without - 1e-12

    def test_requires_intercept(self, theil_dataset):
        from collindiag import design_matrix

        with pytest.raises(ValueError, match="intercept"):
            cns(design_matrix(theil_dataset, intercept=False))

    def test_severity_levels(self):
        assert cn_severity(10.0) == "none"
        assert cn_severity(25.0) == "moderate"
        assert cn_severity(31.0) == "severe"


class TestStewartIndex:
    def test_labels_are_the_designs(self, theil_design):
        X = DesignMatrix(theil_design.X, True, theil_design.quantitative_idx,
                         theil_design.dummy_idx, ("const",) + theil_design.labels[1:])
        assert stewart_index(X).labels == ("const", "income", "relprice")

    def test_theil(self, theil_design):
        rep = stewart_index(theil_design)
        assert rep.labels == ("intercept", "income", "relprice")
        assert_allclose(rep.k2, [403.20963, 415.28266, 23.50258], rtol=1e-4)
        assert_allclose(rep.essential_pct, [0.2487566, 4.3954455], rtol=1e-4)
        assert_allclose(rep.nonessential_pct, [99.75124, 95.60455], rtol=1e-4)

    def test_kg(self, kg_design):
        rep = stewart_index(kg_design)
        assert_allclose(rep.k2, [17.86327, 185.96422, 156.50013, 39.16836], rtol=1e-4)
        assert_allclose(rep.essential_pct, [6.612317, 5.897805, 7.599598], rtol=1e-4)

    def test_split_sums_to_hundred_exactly(self, theil_design, kg_design):
        for design in (theil_design, kg_design):
            rep = stewart_index(design)
            assert np.all(rep.essential_pct + rep.nonessential_pct == 100.0)

    def test_zero_mean_orthogonal_regressor_has_unit_index(self):
        rep = stewart_index(orthogonal_design())
        # both regressors are centered and mutually orthogonal: a_i = 0, VIF = 1
        assert_allclose(rep.k2[1:], [1.0, 1.0], rtol=1e-9)
        assert_allclose(rep.essential_pct, [100.0, 100.0], rtol=1e-9)

    def test_requires_a_quantitative_regressor(self, theil_twenties_design):
        with pytest.raises(ValueError, match="quantitative"):
            stewart_index(theil_twenties_design)

    def test_k2_at_least_one(self, theil_design, kg_design):
        for design in (theil_design, kg_design):
            assert np.all(stewart_index(design).k2 >= 1.0 - 1e-9)

    def test_no_split_without_an_intercept(self):
        # VIF / k^2 is 37917.61 % here; the split is defined only with an intercept
        q1 = [-2.0, -1.0, 0.0, 0.0, 1.0, 2.0]
        q2 = [8.1, 9.0, 9.9, 10.1, 11.0, 11.9]
        X = DesignMatrix(X=np.column_stack([q1, q2]), intercept_present=False,
                         quantitative_idx=(0, 1), dummy_idx=(), labels=("q1", "q2"))
        rep = stewart_index(X)
        assert rep.essential_pct is None and rep.nonessential_pct is None
        assert rep.labels == ("q1", "q2")

    @pytest.mark.parametrize("name", ["kg", "theil"])
    def test_essential_is_the_centered_share(self, name, request):
        X = request.getfixturevalue(f"{name}_design")
        Q = X.X[:, list(X.quantitative_idx)]
        share = 100.0 * ((Q - Q.mean(axis=0)) ** 2).sum(axis=0) / (Q ** 2).sum(axis=0)
        assert_allclose(stewart_index(X).essential_pct, share, rtol=1e-13, atol=0)

    def test_one_qr_and_one_svd(self, monkeypatch, kg_dataset):
        # the split needs neither the centered factor nor the VIFs
        X = design_matrix(kg_dataset)
        monkeypatch.setattr(diagnostics, "_centered_factor",
                            lambda X: pytest.fail("the VIF path was taken"))
        calls = count_factorizations(monkeypatch)
        stewart_index(X)
        assert calls == [("qr", (X.n, X.k)), ("svd", (X.k, X.k))]


class TestCoefficientOfVariation:
    def test_theil_income(self, theil_design):
        assert coefficient_of_variation(theil_design.X[:, 1]) == pytest.approx(
            0.04993766, abs=1e-8)

    def test_theil_relprice(self, theil_design):
        assert coefficient_of_variation(theil_design.X[:, 2]) == pytest.approx(
            0.2144185, rel=1e-6)

    def test_kg(self, kg_design):
        values = [coefficient_of_variation(kg_design.X[:, i]) for i in (1, 2, 3)]
        assert_allclose(values, [0.2660921, 0.2503487, 0.2867863], rtol=1e-6)

    def test_definition_uses_divisor_n(self):
        # sd of (1, 2, 3) with divisor n is sqrt(2/3), mean is 2
        assert coefficient_of_variation([1.0, 2.0, 3.0]) == pytest.approx(
            np.sqrt(2.0 / 3.0) / 2.0, rel=1e-15)

    def test_constant_column_has_zero_cv(self):
        assert coefficient_of_variation([4.0, 4.0, 4.0]) == 0.0

    def test_centered_column_rejected(self):
        with pytest.raises(ValueError, match="centered"):
            coefficient_of_variation([-1.0, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_column_rejected(self, bad):
        with pytest.raises(ValueError, match="^column 'col' contains missing or non-finite values$"):
            coefficient_of_variation([1.0, bad])

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError, match="^expected a nonempty vector$"):
            coefficient_of_variation([])

    def test_column_too_large_to_sum_rejected(self):
        a = np.random.default_rng(4).uniform(0.75e308, 1.5e308, 20)
        with pytest.raises(ValueError, match="^column 'col' is too large to sum: 20 values up to "):
            coefficient_of_variation(a)

    def test_per_regressor_entries_with_none_for_centered(self, theil_design):
        assert coefficients_of_variation(theil_design) == (
            ("income", coefficient_of_variation(theil_design.X[:, 1])),
            ("relprice", coefficient_of_variation(theil_design.X[:, 2])))
        assert coefficients_of_variation(orthogonal_design()) == (("x1", None), ("x2", None))


class TestProportionOfOnes:
    def test_theil_twenties(self, theil_design):
        assert proportion_of_ones(theil_design.X[:, 3]) == pytest.approx(
            41.17647, rel=1e-6)

    def test_all_ones_is_degenerate_hundred(self):
        assert proportion_of_ones(np.ones(9)) == 100.0

    def test_all_zeros_is_degenerate_zero(self):
        assert proportion_of_ones(np.zeros(9)) == 0.0

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0 and 1"):
            proportion_of_ones([0.0, 1.0, 2.0])

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError, match="^expected a nonempty vector$"):
            proportion_of_ones([])


class TestSlm:
    def test_theil_income(self, theil_income_design):
        rep = slm(theil_income_design)
        assert not rep.is_dummy
        assert rep.cv == pytest.approx(0.04993766, rel=1e-4)
        assert rep.vif == 1.0
        assert rep.cn == pytest.approx(40.07489, rel=1e-4)
        assert_allclose(rep.k2, [401.9994, 401.9994], rtol=1e-4)

    def test_theil_relprice(self, theil_relprice_design):
        rep = slm(theil_relprice_design)
        assert rep.cv == pytest.approx(0.2144185, rel=1e-4)
        assert rep.cn == pytest.approx(9.43356, rel=1e-4)
        assert_allclose(rep.k2, [22.75082, 22.75082], rtol=1e-4)

    def test_theil_twenties(self, theil_twenties_design):
        rep = slm(theil_twenties_design)
        assert rep.is_dummy
        assert rep.ones_pct == pytest.approx(41.17647, rel=1e-4)
        assert rep.cn == pytest.approx(2.140501, rel=1e-4)
        assert rep.cv is None and rep.vif is None and rep.k2 is None

    def test_centered_regressor_has_no_cv(self):
        # x has mean 0: CV is undefined, and CN and k^2 are 1 for [1, x] orthogonal
        from collindiag import Dataset

        X = design_matrix(Dataset("exact", ("y", "x"), ("response", "quantitative"),
                                  [[0.0, 3.0], [0.0, 3.0], [-6.0, -3.0], [-6.0, -3.0]]))
        rep = slm(X)
        assert not rep.is_dummy and rep.cv is None and rep.vif == 1.0
        assert rep.cn == pytest.approx(1.0, rel=1e-14)
        assert_allclose(rep.k2, [1.0, 1.0], rtol=1e-14)
        assert multicol(X) == rep

    def test_wrong_width_rejected_with_guidance(self, kg_design):
        with pytest.raises(ValueError, match="Only 2 independent variables"):
            slm(kg_design)
        assert SLM_NEEDS_TWO_COLUMNS == (
            "Only 2 independent variables are needed (including the intercept)")


class TestMulticol:
    def test_theil_bundle_matches_individual_measures(self, theil_dataset):
        # each measure alone on a design of its own, which shares nothing
        # with the bundle's design
        report, theil_design = multicol(design_matrix(theil_dataset)), design_matrix(theil_dataset)
        assert isinstance(report, DiagnosticsReport)
        assert report.cv == tuple(
            (theil_design.labels[i], coefficient_of_variation(theil_design.X[:, i]))
            for i in theil_design.quantitative_idx)
        assert report.dummy_pct == (
            ("twenties", proportion_of_ones(theil_design.X[:, 3])),)
        individual = correlation_matrix(theil_design)
        assert report.correlation.det_r == individual.det_r
        assert np.array_equal(report.correlation.r, individual.r)
        assert report.vifs == vif(theil_design)
        assert report.cn == cns(theil_design)
        st_bundle, st_single = report.stewart, stewart_index(theil_design)
        assert np.array_equal(st_bundle.k2, st_single.k2)
        assert np.array_equal(st_bundle.essential_pct, st_single.essential_pct)
        assert report.notes == {}

    def test_kg_dummy_section_degrades_to_guidance(self, kg_design):
        report = multicol(kg_design)
        assert report.dummy_pct is None
        assert report.notes["dummy_pct"] == NEED_ONE_DUMMY
        assert report.correlation is not None
        assert report.cn is not None

    def test_two_column_design_dispatches_to_slm(self, theil_income_design):
        report = multicol(theil_income_design)
        assert isinstance(report, SlmReport)
        assert report == slm(theil_income_design)

    @pytest.mark.parametrize("measure,design,note", [
        (coefficients_of_variation, "theil_twenties_design", NEED_ONE_QUANTITATIVE),
        (correlation_matrix, "theil_income_design", NEED_TWO_QUANTITATIVE),
        (vif, "theil_income_design", NEED_TWO_QUANTITATIVE),
        (stewart_index, "theil_twenties_design", NEED_ONE_QUANTITATIVE),
        (diagnostics._dummy_pcts, "kg_design", NEED_ONE_DUMMY),
    ])
    def test_each_measure_states_what_it_needs(self, request, measure, design, note):
        with pytest.raises(diagnostics._Inapplicable) as exc:
            measure(request.getfixturevalue(design))
        assert str(exc.value) == note

    def test_cns_needs_an_intercept(self, kg_dataset):
        X = design_matrix(kg_dataset, intercept=False)
        with pytest.raises(diagnostics._Inapplicable, match=NEED_INTERCEPT):
            cns(X)

    def test_notes_are_the_measures_messages(self, monkeypatch, kg_design):
        def inapplicable(X):
            raise diagnostics._Inapplicable("needs what kg lacks")

        monkeypatch.setattr(diagnostics, "cns", inapplicable)
        report = multicol(kg_design)
        assert report.cn is None
        assert report.notes == {"dummy_pct": NEED_ONE_DUMMY, "cn": "needs what kg lacks"}

    def test_dummy_only_design_degrades_quantitative_sections(self, theil_dataset):
        from collindiag import Dataset, design_matrix

        twenties = theil_dataset.values[:, theil_dataset.labels.index("twenties")]
        extra = np.resize([1.0, 0.0], theil_dataset.n)
        ds = Dataset(theil_dataset.name, ("twenties", "alt"), ("dummy", "dummy"),
                     np.column_stack([twenties, extra]))
        report = multicol(design_matrix(ds))
        assert report.cv is None
        assert report.notes["cv"] == NEED_ONE_QUANTITATIVE
        assert report.correlation is None
        assert report.notes["correlation"] == NEED_TWO_QUANTITATIVE
        assert report.stewart is None
        assert report.dummy_pct is not None
        assert report.cn is not None


class TestSharedFactors:
    """Each design is factored once; the measures share the factors."""

    def test_multicol_on_kg(self, monkeypatch, kg_dataset):
        X = design_matrix(kg_dataset)
        calls = count_factorizations(monkeypatch)
        multicol(X)
        assert [shape for name, shape in calls if shape[0] == X.n] == [(X.n, X.k)]
        assert calls[0] == ("qr", (X.n, X.k))
        assert sum(name == "svd" for name, _ in calls) <= 3
        calls.clear()
        multicol(X)
        assert calls == []

    @pytest.mark.parametrize("intercept", [True, False])
    def test_one_n_row_factorization_with_or_without_an_intercept(self, monkeypatch, kg_dataset,
                                                                  intercept):
        # without an intercept, factors appends the ones column: no second pass to center
        X = design_matrix(kg_dataset, intercept)
        shapes = []

        def counted(A, _fn=linalg._r_factor):
            shapes.append(np.shape(A))
            return _fn(A)

        monkeypatch.setattr(linalg, "_r_factor", counted)
        multicol(X)
        assert shapes == [(X.n, len(X.quantitative_idx) + 1)]

    @pytest.mark.parametrize("name", ["kg", "theil"])
    def test_centered_measures_do_not_depend_on_the_intercept(self, request, name):
        ds = request.getfixturevalue(f"{name}_dataset")
        with_ones, without = design_matrix(ds), design_matrix(ds, intercept=False)
        assert_allclose([v for _, v in vif(without)], [v for _, v in vif(with_ones)],
                        rtol=1e-12, atol=0)
        got, want = correlation_matrix(without), correlation_matrix(with_ones)
        assert_allclose(got.r, want.r, rtol=1e-12, atol=0)
        assert got.det_r == pytest.approx(want.det_r, rel=1e-12, abs=0)

    def test_cached_arrays_are_read_only(self, theil_dataset):
        X = design_matrix(theil_dataset)
        multicol(X)
        kept = [X.factors] + [a for value in X._shared.values()
                              for a in (value if isinstance(value, tuple) else (value,))]
        assert len(kept) == 12  # R, three (s, Vt) pairs, T and its (s, Vt), the column stats
        assert not any(a.flags.writeable for a in kept)
        with pytest.raises(ValueError, match="read-only"):
            X.factors[0, 0] = 0.0

    def test_results_are_not_the_cached_arrays(self, theil_dataset):
        X = design_matrix(theil_dataset)
        report = multicol(X)
        report.stewart.k2[0] = report.correlation.r[0, 0] = -1.0
        assert multicol(X).stewart.k2[0] > 0.0 and multicol(X).correlation.r[0, 0] == 1.0

    def test_singular_error_is_raised_again(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=12)
        X = DesignMatrix(X=np.column_stack([np.ones(12), x, 2.0 * x, rng.normal(size=12)]),
                         intercept_present=True, quantitative_idx=(1, 2, 3), dummy_idx=(),
                         labels=("intercept", "a", "b", "c"))
        for measure in (vif, stewart_index, cns, multicol, vif):
            with pytest.raises(SingularMatrixError) as first:
                measure(X)
            with pytest.raises(SingularMatrixError) as again:
                measure(X)
            assert str(again.value) == str(first.value)
        assert not any(key[0] in ("_block_svd", "_centered_svd") for key in X._shared)
