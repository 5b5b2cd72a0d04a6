import logging
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from collindiag import (
    PerturbConfig,
    SingularMatrixError,
    condition_number,
    perturb,
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_column_rejected(self, bad):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            perturb_column(np.array([1.0, bad, 2.0]), 0.01, np.ones(3))

    @pytest.mark.parametrize("tol, match", [(math.nan, "tol must be finite"),
                                            (math.inf, "tol must be finite"),
                                            (-1.0, "tol must be nonnegative")])
    def test_tol_checked_as_in_the_config(self, tol, match):
        with pytest.raises(ValueError, match=match):
            PerturbConfig(tol=tol)
        with pytest.raises(ValueError, match=match):
            perturb_column(np.array([3.0, 4.0]), tol, np.array([1.0, 0.0]))


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

    def test_zero_baseline_coefficients_rejected(self):
        X = toy_design()
        with pytest.raises(ValueError, match="baseline coefficients are all zero"):
            perturb_once(np.zeros(X.n), X, PerturbConfig(), np.random.default_rng(0))

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


class StubRng:
    """Hands out the values of the given noise arrays in order, as many
    per standard_normal() fill as it fills, and counts its fills.  With
    noise_mean 0 and noise_sd 1, the values are the noise verbatim."""

    def __init__(self, *noise):
        self.noise = np.concatenate([np.ravel(r) for r in noise]).astype(float)
        self.used = self.fills = 0

    def standard_normal(self, *, out):
        out[...] = self.noise[self.used:self.used + out.size].reshape(out.shape)
        self.used += out.size
        self.fills += 1
        return out


def loop_replay(X, cfg):
    """The perturbed designs and achieved_pct of the per-draw loop: one
    rng.normal call per selected column per draw, each column replaced by
    x + tol * r * (||x|| / ||r||), achieved from the selected block."""
    rng = np.random.default_rng(cfg.seed)
    sel = list(X.quantitative_idx)
    designs, achieved = [], []
    for _ in range(cfg.iterations):
        Xp = X.X.copy()
        for j in sel:
            r = rng.normal(cfg.noise_mean, cfg.noise_sd, X.n)
            Xp[:, j] = X.X[:, j] + cfg.tol * r * (np.linalg.norm(X.X[:, j]) / np.linalg.norm(r))
        designs.append(Xp)
        achieved.append(100.0 * float(np.linalg.norm(Xp[:, sel] - X.X[:, sel]))
                        / float(np.linalg.norm(X.X[:, sel])))
    return designs, np.array(achieved)


@pytest.fixture(params=["kg", "theil"])
def fixture_xy(request):
    return (request.getfixturevalue(f"{request.param}_design"),
            request.getfixturevalue(f"{request.param}_y"))


class TestKernelAgainstLoop:
    def test_achieved_bit_identical_to_loop_formula(self, fixture_xy):
        X, y = fixture_xy
        cfg = PerturbConfig(iterations=300, seed=21)
        _, achieved = loop_replay(X, cfg)
        assert perturb_n(y, X, cfg).achieved_pct.tobytes() == achieved.tobytes()

    def test_change_matches_50_digit_replay(self, fixture_xy):
        mpmath = pytest.importorskip("mpmath")
        X, y = fixture_xy
        cfg = PerturbConfig(iterations=100, seed=22)
        designs, _ = loop_replay(X, cfg)
        got = perturb_n(y, X, cfg).change_pct
        with mpmath.workdps(50):
            def beta(A):
                A, b = mpmath.matrix(A.tolist()), mpmath.matrix(y.tolist())
                return mpmath.lu_solve(A.T * A, A.T * b)

            base = beta(X.X)
            want = [float(100 * mpmath.norm(base - beta(Xp)) / mpmath.norm(base))
                    for Xp in designs]
        assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("draws_per_block", [1, 7, None])
    def test_block_size_leaves_every_bit(self, monkeypatch, fixture_xy, draws_per_block):
        X, y = fixture_xy
        cfg = PerturbConfig(iterations=50, seed=23)
        default = perturb_n(y, X, cfg)
        s = len(X.quantitative_idx)
        block = 1 << 40 if draws_per_block is None else draws_per_block * 8 * X.n * (X.k + 1 + s)
        monkeypatch.setattr(perturb, "_BLOCK_BYTES", block)
        res = perturb_n(y, X, cfg)
        assert res.achieved_pct.tobytes() == default.achieved_pct.tobytes()
        assert res.change_pct.tobytes() == default.change_pct.tobytes()

    def test_memory_bounded_by_blocks(self):
        # unblocked, 400 draws at n = 5000 would hold 16 MB of noise and
        # 48 MB of stacked [Xp | y] designs
        n = 5000
        rng = np.random.default_rng(4)
        x = rng.normal(2.0, 1.0, n)
        X = DesignMatrix(np.column_stack([np.ones(n), x]), True, (1,), (), ("intercept", "x"))
        y = 1.0 + 2.0 * x + rng.normal(size=n)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            res = perturb_n(y, X, PerturbConfig(iterations=400, seed=1))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.change_pct.shape == (400,)
        assert peak < 8e6, peak
        assert elapsed < 1.0, elapsed


def one_draw_blocks(X, cfg):
    """A _BLOCK_BYTES that makes every block of _draws one draw."""
    s = len(cfg.positions) or len(X.quantitative_idx)
    return 8 * X.n * (X.k + 1 + s)


class TestRedraw:
    def design(self):
        X = toy_design()
        return X, X.X @ np.array([1.0, 2.0, 3.0]) + np.linspace(0.0, 0.3, X.n)

    def test_singular_draw_is_redrawn_after_its_block(self, monkeypatch, caplog):
        # with tol = 1, the noise r = -x makes the perturbed column exactly 0
        X, y = self.design()
        r_a, r_b, r_c = np.random.default_rng(6).normal(size=(3, X.n))
        cfg = PerturbConfig(tol=1.0, iterations=3, noise_mean=0.0, noise_sd=1.0, positions=(1,),
                            seed=0)
        expected = [perturb_once(y, X, cfg, StubRng(r)) for r in (r_a, r_b, r_c)]
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: StubRng([r_a, -X.X[:, 1], r_c], r_b))
        with caplog.at_level(logging.WARNING, logger="collindiag.perturb"):
            res = perturb_n(y, X, cfg)
        assert res.resamples == 1
        assert "resampling (attempt 1)" in caplog.text
        assert_array_equal(res.achieved_pct, [a for a, _ in expected])
        assert_array_equal(res.change_pct, [c for _, c in expected])

    def test_redraw_reads_the_stream_after_the_last_block(self, monkeypatch):
        # three one-draw blocks: draw 1 is singular, and its redraw reads
        # the stream only after blocks 2 and 3 have taken r_2 and r_3
        X, y = self.design()
        r_1, r_2, r_3 = np.random.default_rng(7).normal(size=(3, X.n))
        cfg = PerturbConfig(tol=1.0, iterations=3, noise_mean=0.0, noise_sd=1.0, positions=(1,),
                            seed=0)
        expected = [perturb_once(y, X, cfg, StubRng(r)) for r in (r_1, r_2, r_3)]
        monkeypatch.setattr(perturb, "_BLOCK_BYTES", one_draw_blocks(X, cfg))
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: StubRng(-X.X[:, 1], r_2, r_3, r_1))
        res = perturb_n(y, X, cfg)
        assert res.resamples == 1
        assert_array_equal(res.achieved_pct, [a for a, _ in expected])
        assert_array_equal(res.change_pct, [c for _, c in expected])

    def test_block_size_leaves_every_bit_of_a_redraw(self, monkeypatch):
        # one stream, read as three one-draw blocks and as one block
        X, y = self.design()
        r_1, r_2, r_3 = np.random.default_rng(8).normal(size=(3, X.n))
        cfg = PerturbConfig(tol=1.0, iterations=3, noise_mean=0.0, noise_sd=1.0, positions=(1,),
                            seed=0)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: StubRng(-X.X[:, 1], r_2, r_3, r_1))
        runs = []
        for block in (one_draw_blocks(X, cfg), 1 << 40):
            monkeypatch.setattr(perturb, "_BLOCK_BYTES", block)
            runs.append(perturb_n(y, X, cfg))
        assert runs[0].resamples == runs[1].resamples == 1
        assert runs[0].achieved_pct.tobytes() == runs[1].achieved_pct.tobytes()
        assert runs[0].change_pct.tobytes() == runs[1].change_pct.tobytes()

    def test_singular_on_every_attempt_raises(self):
        X, y = self.design()
        stub = StubRng(*[-X.X[:, 1]] * perturb._MAX_RETRIES)
        cfg = PerturbConfig(tol=1.0, noise_mean=0.0, noise_sd=1.0, positions=(1,))
        with pytest.raises(SingularMatrixError, match="stayed singular in 10 draws"):
            perturb_once(y, X, cfg, stub)
        assert stub.fills == perturb._MAX_RETRIES and stub.used == stub.noise.size

    def test_redraw_limit_logs_each_redraw_taken(self, caplog):
        X, y = self.design()
        stub = StubRng(*[-X.X[:, 1]] * perturb._MAX_RETRIES)
        cfg = PerturbConfig(tol=1.0, noise_mean=0.0, noise_sd=1.0, positions=(1,))
        with caplog.at_level(logging.WARNING, logger="collindiag.perturb"):
            with pytest.raises(SingularMatrixError) as exc:
                perturb_once(y, X, cfg, stub)
        assert str(exc.value) == "perturbed design stayed singular in 10 draws"
        assert [r.getMessage() for r in caplog.records] == [
            f"perturbed design singular; resampling (attempt {a})" for a in range(1, 10)]

    def test_no_resamples_on_regular_draws(self, kg_design, kg_y):
        assert perturb_n(kg_y, kg_design, PerturbConfig(iterations=20, seed=1)).resamples == 0


class TestNoiseScale:
    @pytest.mark.parametrize("sd", [1e-300, 1e-200, 1e-150, 1e-100, 1.0,
                                    1e100, 1e150, 1e200, 1e300])
    def test_achieved_equals_tol_at_any_noise_scale(self, theil_design, theil_y, sd):
        cfg = PerturbConfig(noise_mean=0.0, noise_sd=sd, iterations=20, seed=2)
        res = perturb_n(theil_y, theil_design, cfg)
        assert np.all(np.abs(res.achieved_pct - 1.0) <= 1e-12)
        assert np.all(res.change_pct > 0.0)

    def test_huge_tol_needs_no_redraw(self, theil_design, theil_y, caplog):
        # the perturbed columns' norms, ~1e163, would overflow a plain sum of squares
        cfg = PerturbConfig(tol=1e160, iterations=20, seed=1)
        with caplog.at_level(logging.WARNING, logger="collindiag.perturb"):
            res = perturb_n(theil_y, theil_design, cfg)
        assert res.resamples == 0 and caplog.text == ""
        assert_allclose(res.achieved_pct, 100.0 * cfg.tol, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("sd, tol", [(1e-320, 0.01), (5e-307, 0.01), (1e300, 1e10)])
    def test_extreme_noise_with_any_tol(self, theil_design, theil_y, sd, tol):
        # a subnormal ||r||, or a tol * r or ||x|| / ||r|| past the doubles
        cfg = PerturbConfig(tol=tol, noise_mean=0.0, noise_sd=sd, iterations=20, seed=2)
        res = perturb_n(theil_y, theil_design, cfg)
        assert_allclose(res.achieved_pct, 100.0 * tol, rtol=1e-12, atol=0)
        xp = perturb_column(np.array([3.0, 4.0]), tol, sd * np.array([1.0, -2.0]))
        assert np.linalg.norm(xp - [3.0, 4.0]) / 5.0 == pytest.approx(tol, rel=1e-12)

    def test_noise_overflowing_to_inf_rejected(self, theil_design, theil_y):
        cfg = PerturbConfig(noise_mean=0.0, noise_sd=1e308, iterations=20, seed=2)
        with pytest.raises(ValueError, match="noise vector has a zero or non-finite norm"):
            perturb_n(theil_y, theil_design, cfg)
        with pytest.raises(ValueError, match="zero or non-finite"):
            perturb_column(np.ones(2), 0.01, np.array([np.inf, 1.0]))

    def test_overflowing_perturbed_design_rejected(self, theil_design, theil_y):
        cfg = PerturbConfig(tol=1e308, iterations=5, seed=1)
        with pytest.raises(ValueError, match="matrix entries must be finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            perturb_n(theil_y, theil_design, cfg)

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_perturb_column_at_extreme_noise_scale(self, scale):
        x = np.array([3.0, 4.0])
        xp = perturb_column(x, 0.01, scale * np.array([1.0, -2.0]))
        assert np.linalg.norm(xp - x) / 5.0 == pytest.approx(0.01, abs=1e-15)


class TestWorker:
    """From the second block on, one worker thread draws ahead; it is
    joined on every exit and each call has its own."""

    @pytest.fixture
    def started(self, monkeypatch):
        starts, start = [], threading.Thread.start

        def counted(thread):
            starts.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        return starts

    def test_one_block_starts_no_thread(self, started, kg_design, kg_y):
        perturb_once(kg_y, kg_design, PerturbConfig(), np.random.default_rng(1))
        perturb_n(kg_y, kg_design, PerturbConfig(iterations=50, seed=1))
        assert started == []

    @staticmethod
    def assert_one_joined(started, before):
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == before

    def test_many_blocks_start_one_thread(self, started, monkeypatch, kg_design, kg_y):
        cfg = PerturbConfig(iterations=5, seed=1)
        monkeypatch.setattr(perturb, "_BLOCK_BYTES", one_draw_blocks(kg_design, cfg))
        before = threading.active_count()
        perturb_n(kg_y, kg_design, cfg)
        self.assert_one_joined(started, before)

    def test_joined_after_the_worker_raises(self, started, monkeypatch):
        # with seed 29, draw 1 (built on this thread) has a finite noise norm
        # and draw 2 (the worker's first block) one that overflows to inf;
        # draw 1 is refit only once the worker has begun draw 2
        X, y = TestRedraw().design()
        cfg = PerturbConfig(noise_mean=0.0, noise_sd=1e308, iterations=20, positions=(1,),
                            seed=29)
        with np.errstate(over="ignore"):
            z = np.random.default_rng(29).standard_normal((2, X.n)) * 1e308
        norms = perturb.linalg._norms(z)
        assert np.isfinite(norms[0]) and not np.isfinite(norms[1])
        monkeypatch.setattr(perturb, "_BLOCK_BYTES", one_draw_blocks(X, cfg))
        begun, raised_in, fits = threading.Event(), [], []
        scale_noise, qr_fit = perturb._scale_noise, perturb.linalg._qr_fit

        def scale_noise_on(W, tol, x):
            if threading.current_thread() is not threading.main_thread():
                begun.set()
            try:
                return scale_noise(W, tol, x)
            except ValueError:
                raised_in.append(threading.current_thread())
                raise

        def qr_fit_after_begun(A, k):
            if fits:  # every fit after the baseline refits a draw
                assert begun.wait(timeout=30)
            fits.append(len(A))
            return qr_fit(A, k)

        monkeypatch.setattr(perturb, "_scale_noise", scale_noise_on)
        monkeypatch.setattr(perturb.linalg, "_qr_fit", qr_fit_after_begun)
        before = threading.active_count()
        with pytest.raises(ValueError, match="noise vector has a zero or non-finite norm"):
            perturb_n(y, X, cfg)
        assert raised_in == started
        self.assert_one_joined(started, before)

    def test_joined_after_the_redraw_limit(self, started, monkeypatch):
        X, y = TestRedraw().design()
        cfg = PerturbConfig(tol=1.0, iterations=3, noise_mean=0.0, noise_sd=1.0, positions=(1,),
                            seed=0)
        monkeypatch.setattr(perturb, "_BLOCK_BYTES", one_draw_blocks(X, cfg))
        # three singular blocks, then the nine redraws of the first draw
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: StubRng(*[-X.X[:, 1]] * (3 + perturb._MAX_RETRIES - 1)))
        before = threading.active_count()
        with pytest.raises(SingularMatrixError, match="stayed singular in 10 draws"):
            perturb_n(y, X, cfg)
        self.assert_one_joined(started, before)

    def test_concurrent_calls_match_serial_ones(self, monkeypatch, kg_design, kg_y):
        # four calls at once, each with its own worker (eight threads on
        # fewer cores), switching threads often: each returns the bytes
        # of a serial call with no worker
        cfgs = [PerturbConfig(iterations=500, seed=seed) for seed in (11, 12, 13, 14)]
        serial = [perturb_n(kg_y, kg_design, cfg) for cfg in cfgs]
        monkeypatch.setattr(perturb, "_BLOCK_BYTES", 1 << 15)  # 29 draws a block
        barrier, results = threading.Barrier(len(cfgs)), [None] * len(cfgs)

        def run(i):
            barrier.wait()
            results[i] = perturb_n(kg_y, kg_design, cfgs[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cfgs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, serial):
            assert got.achieved_pct.tobytes() == want.achieved_pct.tobytes()
            assert got.change_pct.tobytes() == want.change_pct.tobytes()
