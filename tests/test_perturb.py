import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from collindiag import (
    PerturbConfig,
    condition_number,
    perturb_column,
    perturb_n,
    perturb_once,
)
from collindiag.dataset import DesignMatrix


def toy_design(n=9):
    rng = np.random.default_rng(123)
    x1 = np.linspace(1.0, 2.0, n)
    x2 = rng.normal(5.0, 1.0, n)
    return DesignMatrix(
        X=np.column_stack([np.ones(n), x1, x2]),
        intercept_present=True,
        quantitative_idx=(1, 2),
        dummy_idx=(),
        labels=("intercept", "x1", "x2"),
    )


class TestPerturbColumn:
    def test_closed_form_example(self):
        out = perturb_column(np.array([3.0, 4.0]), 0.01, np.array([1.0, 0.0]))
        assert_allclose(out, [3.05, 4.0], rtol=0, atol=1e-15)
        x = np.array([3.0, 4.0])
        assert np.linalg.norm(out - x) / np.linalg.norm(x) == pytest.approx(0.01, abs=1e-16)

    def test_tol_zero_is_identity(self):
        x = np.array([1.0, -2.0, 5.0])
        assert_array_equal(perturb_column(x, 0.0, np.array([3.0, 1.0, -1.0])), x)

    def test_achieved_ratio_equals_tol(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            x = rng.normal(3.0, 2.0, n)
            r = rng.normal(rng.uniform(-10, 10), rng.uniform(0.1, 10), n)
            tol = float(rng.uniform(0.0001, 0.5))
            xp = perturb_column(x, tol, r)
            achieved = np.linalg.norm(xp - x) / np.linalg.norm(x)
            assert achieved == pytest.approx(tol, abs=1e-14)

    def test_zero_vectors_rejected(self):
        with pytest.raises(ValueError, match="zero column"):
            perturb_column(np.zeros(3), 0.01, np.ones(3))
        with pytest.raises(ValueError, match="noise"):
            perturb_column(np.ones(3), 0.01, np.zeros(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            perturb_column(np.ones(3), 0.01, np.ones(4))


class TestPerturbConfig:
    def test_defaults(self):
        cfg = PerturbConfig()
        assert cfg.tol == 0.01
        assert cfg.iterations == 5000
        assert cfg.noise_mean == 10.0 and cfg.noise_sd == 10.0
        assert cfg.positions == ()

    def test_validation(self):
        with pytest.raises(ValueError, match="tol"):
            PerturbConfig(tol=-0.1)
        with pytest.raises(ValueError, match="iterations"):
            PerturbConfig(iterations=0)
        with pytest.raises(ValueError, match="noise_sd"):
            PerturbConfig(noise_sd=0.0)

    @pytest.mark.parametrize("field,value", [
        ("tol", math.inf), ("tol", math.nan), ("noise_mean", math.inf),
        ("noise_mean", -math.inf), ("noise_mean", math.nan), ("noise_sd", math.inf),
    ])
    def test_non_finite_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PerturbConfig(**{field: value})

    def test_repeated_position_rejected(self):
        with pytest.raises(ValueError, match="position 2 given more than once"):
            PerturbConfig(positions=(2, 1, 2))


class TestPerturbOnce:
    def test_tol_zero_changes_nothing(self):
        X = toy_design()
        y = X.X @ np.array([1.0, 2.0, 3.0]) + 0.1
        rng = np.random.default_rng(0)
        achieved, change = perturb_once(y, X, PerturbConfig(tol=0.0, iterations=1), rng)
        assert achieved == 0.0
        assert change == 0.0

    def test_achieved_is_exactly_tol(self, theil_design, theil_y):
        rng = np.random.default_rng(42)
        achieved, _ = perturb_once(theil_y, theil_design, PerturbConfig(tol=0.01), rng)
        assert achieved == pytest.approx(1.0, abs=1e-12)

    def test_change_within_condition_number_envelope(self):
        # loose analytic sanity bound: the relative coefficient change of a
        # small perturbation is of order CN * tol
        X = toy_design()
        y = X.X @ np.array([2.0, -1.0, 0.5]) + np.random.default_rng(1).normal(0, 0.1, X.n)
        cn = condition_number(X)
        tol = 0.001
        rng = np.random.default_rng(5)
        for _ in range(200):
            _, change = perturb_once(y, X, PerturbConfig(tol=tol, iterations=1), rng)
            assert change <= 100.0 * cn * tol * 10.0

    def test_dummy_position_rejected(self, theil_design, theil_y):
        rng = np.random.default_rng(0)
        cfg = PerturbConfig(positions=(3,))  # position 3 is the dummy
        with pytest.raises(ValueError, match="quantitative"):
            perturb_once(theil_y, theil_design, cfg, rng)

    def test_out_of_range_position_rejected(self, theil_design, theil_y):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="out of range"):
            perturb_once(theil_y, theil_design, PerturbConfig(positions=(4,)), rng)
        with pytest.raises(ValueError, match="out of range"):
            perturb_once(theil_y, theil_design, PerturbConfig(positions=(0,)), rng)

    def test_positions_select_columns(self, theil_design, theil_y):
        # perturbing only income must leave the other columns untouched;
        # verified indirectly: achieved ratio still equals tol exactly
        rng = np.random.default_rng(1)
        cfg = PerturbConfig(tol=0.02, positions=(1,))
        achieved, change = perturb_once(theil_y, theil_design, cfg, rng)
        assert achieved == pytest.approx(2.0, abs=1e-12)
        assert change > 0.0


class TestPerturbN:
    def test_seed_reproducibility_bit_identical(self, theil_design, theil_y):
        cfg = PerturbConfig(iterations=40, seed=77)
        a = perturb_n(theil_y, theil_design, cfg)
        b = perturb_n(theil_y, theil_design, cfg)
        assert a.achieved_pct.tobytes() == b.achieved_pct.tobytes()
        assert a.change_pct.tobytes() == b.change_pct.tobytes()
        assert a.change_summary == b.change_summary

    def test_different_seeds_differ(self, theil_design, theil_y):
        a = perturb_n(theil_y, theil_design, PerturbConfig(iterations=10, seed=1))
        b = perturb_n(theil_y, theil_design, PerturbConfig(iterations=10, seed=2))
        assert not np.array_equal(a.change_pct, b.change_pct)

    def test_achieved_column_constant_at_hundred_tol(self, kg_design, kg_y):
        res = perturb_n(kg_y, kg_design, PerturbConfig(tol=0.03, iterations=25, seed=3))
        assert np.all(np.abs(res.achieved_pct - 3.0) <= 1e-12)
        assert res.achieved_summary.sd <= 1e-12

    def test_change_nonnegative(self, kg_design, kg_y):
        res = perturb_n(kg_y, kg_design, PerturbConfig(iterations=50, seed=4))
        assert np.all(res.change_pct >= 0.0)

    def test_single_iteration_tol_zero_summary_is_all_zeros(self, theil_design, theil_y):
        res = perturb_n(theil_y, theil_design, PerturbConfig(tol=0.0, iterations=1, seed=0))
        s = res.change_summary
        assert (s.mean, s.sd, s.min, s.max, s.q2_5, s.q97_5) == (0, 0, 0, 0, 0, 0)

    def test_quantile_order(self, theil_design, theil_y):
        res = perturb_n(theil_y, theil_design, PerturbConfig(iterations=60, seed=8))
        s = res.change_summary
        assert s.q2_5 <= s.q97_5
        assert s.min <= s.q2_5 and s.q97_5 <= s.max

    def test_summary_matches_numpy_conventions(self, theil_design, theil_y):
        res = perturb_n(theil_y, theil_design, PerturbConfig(iterations=30, seed=9))
        c = res.change_pct
        s = res.change_summary
        assert s.mean == pytest.approx(float(c.mean()), abs=0)
        assert s.sd == pytest.approx(float(c.std(ddof=1)), abs=0)
        assert s.q2_5 == pytest.approx(float(np.percentile(c, 2.5)), abs=0)
        assert s.q97_5 == pytest.approx(float(np.percentile(c, 97.5)), abs=0)
