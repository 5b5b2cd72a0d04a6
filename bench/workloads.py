"""The four benchmark workloads: seeded inputs, one task per index, and
the output check of each task.

Every input comes from the workload seed, and task(i) is a pure
function of (seed, i), so a run can be replayed and a traced run can
repeat exactly the tasks of an untraced one.  Tasks reach collindiag
through module attributes (cli.main, diagnostics.multicol, ...) looked
up at call time, so the tracer's patches apply to them.
"""

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

from collindiag import cli, diagnostics, fixtures, ols, perturb
from collindiag.dataset import DesignMatrix, design_matrix, response_vector
from collindiag.linalg import SingularMatrixError

import check


@dataclass
class Task:
    """One unit of closed-loop work.  run() is the timed call; judge()
    gets its result, or the exception it raised, and returns a Verdict."""

    label: str
    items: int
    run: Callable[[], object]
    judge: Callable[[object, BaseException | None], "Verdict"]


@dataclass(frozen=True)
class Verdict:
    """status is 'ok'; 'refused' when the program raised or exited with
    an error on an input it should handle; or 'wrong' when it returned
    an answer that fails the check.  Both failures count in failed_frac;
    only a wrong answer makes the run incorrect."""

    status: str
    detail: str = ""


OK = Verdict("ok")


def refused(detail: str) -> Verdict:
    return Verdict("refused", detail)


def wrong(problems: list[str]) -> Verdict:
    return Verdict("wrong", "; ".join(problems)) if problems else OK


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_refusal(result, exc) -> Verdict | None:
    if exc is not None:
        return refused(f"cli.main raised {type(exc).__name__}: {exc}")
    rc, _, err = result
    if rc != 0:
        return refused(f"cli.main exit code {rc}: {err.strip()}")
    return None


def fixture_problems() -> list[str]:
    """Library results on kg and theil against their published values."""
    problems = []
    for name, ref in check.FIXTURE_REFERENCE.items():
        ds = fixtures.fixture(name)
        X = design_matrix(ds)
        det_r, tol = ref["det_r"]
        problems += check.rel_mismatch(f"{name} det(R)",
                                       diagnostics.correlation_matrix(X).det_r, det_r, tol)
        vifs, tol = ref["vif"]
        problems += check.rel_mismatch(f"{name} vif",
                                       [v for _, v in diagnostics.vif(X)], vifs, tol)
        cn = diagnostics.cns(X)
        for key in ("cn_with", "cn_without"):
            value, tol = ref[key]
            problems += check.rel_mismatch(f"{name} {key}", getattr(cn, key), value, tol)
        beta, atol = ref["beta"]
        got = ols.ols_fit(response_vector(ds), X).beta
        if not np.all(np.abs(got - beta) <= atol):
            problems.append(f"{name} beta {got.tolist()} != {beta} (atol {atol})")
    return problems


def _perturb_seeds(seed: int) -> tuple[int, int]:
    return seed * 10 + 1, seed * 10 + 2


# ---------------------------------------------------------------------------
# csv_report: CLI multicol (text) and ols (json) on a 200k x 6 CSV.


class CsvReport:
    name = "csv_report"
    item = "row"
    pass_len = 2  # multicol and ols alternate; a pass holds one of each
    tasks_per_sample = 1
    rows = 200_000
    header = ("y", "x1", "x2", "x3", "x4", "x5")

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        Q = rng.normal(rng.uniform(5, 15, 5), rng.uniform(1, 4, 5), (self.rows, 5))
        # x5 tracks x1: the one near-collinear pair (r ~ 0.999)
        Q[:, 4] = Q[:, 0] + 0.05 * Q[:, 0].std() * rng.normal(size=self.rows)
        X = np.column_stack([np.ones(self.rows), Q])
        y = X @ rng.normal(0, 1, 6) + rng.normal(0, 2, self.rows)
        self.path = os.path.join(workdir, f"csv_report-{seed}.csv")
        write_csv(self.path, self.header, np.column_stack([y, Q]))
        self.ref = check.design_reference(X, y, range(1, 6))
        self.labels = self.header[1:]

    def cleanup(self):
        os.remove(self.path)

    def task(self, i: int) -> Task:
        source = ["--data", self.path, "--response", "y"]
        if i % 2 == 0:
            argv = ["multicol"] + source
            return Task("multicol", self.rows, lambda: run_cli(argv), self._judge_multicol)
        argv = ["ols"] + source + ["--format", "json"]
        return Task("ols", self.rows, lambda: run_cli(argv), self._judge_ols)

    def _judge_multicol(self, result, exc) -> Verdict:
        if verdict := _cli_refusal(result, exc):
            return verdict
        sections = check.parse_text_sections(result[1])
        vifs = check.text_values(sections["Variance Inflation Factors"])
        cn_with = float(sections["Condition Number with intercept"][0])
        cn_without = float(sections["Condition Number without intercept"][0])
        # text prints 7 significant digits: up to 5e-7 relative rounding
        return wrong(check.check_measures(self.ref, 6, cn_with, cn_without,
                                          [vifs[label] for label in self.labels],
                                          rounding=1e-6))

    def _judge_ols(self, result, exc) -> Verdict:
        if verdict := _cli_refusal(result, exc):
            return verdict
        fit = json.loads(result[1])["result"]
        return wrong(check.check_fit(self.ref, 6, fit["beta"], fit["se"]))


def write_csv(path: str, header, data: np.ndarray, chunk: int = 20_000):
    """Shortest round-trip repr of every float, so the file parses back
    to exactly the generated values; written in chunks to bound memory."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, data.shape[0], chunk):
            rows = data[start:start + chunk].tolist()
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


# ---------------------------------------------------------------------------
# design_sweep: library report (multicol, ols_fit, contradiction) on one
# in-memory design per task, over a grid of sizes and conditioning.

SWEEP_N = (200, 2000, 10000)
SWEEP_K = (5, 10, 20, 30)
# 9 log-spaced scaled-CN targets from 10 to 1e8; none within 50% of 1e6,
# where the current Gram-matrix cut sits, so a design passes or fails
# the same way on every seed.
SWEEP_CN = tuple(10.0 ** (1 + 7 * i / 8) for i in range(9))
EXACT_KINDS = ("duplicate", "sum", "dummy_trap")


class DesignSweep:
    name = "design_sweep"
    item = "design"
    tasks_per_sample = 16  # ~0.5 s of tasks between host-speed samples

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.slots = [(n, k, kind) for n in SWEEP_N for k in SWEEP_K
                      for kind in SWEEP_CN + EXACT_KINDS]
        self.pass_len = len(self.slots)
        self._order = np.random.default_rng(2).permutation(self.pass_len)
        self._delta: dict[int, float] = {}
        self._full_rank: dict[int, bool] = {}
        self._ref: dict[int, dict] = {}

    def cleanup(self):
        pass

    def slot_of(self, i: int) -> int:
        """Every pass visits the grid in one fixed shuffled order, so
        every seed and every pass allocates in the same sequence and
        peak RSS does not depend on how many passes a run makes."""
        return int(self._order[i % self.pass_len])

    def design(self, slot: int) -> tuple[DesignMatrix, np.ndarray]:
        n, k, kind = self.slots[slot]
        rng = np.random.default_rng([self.seed, 3, slot])
        Q = rng.normal(rng.uniform(0.5, 1.5, k), 1.0, (n, k))
        z = rng.normal(size=n)
        d = (rng.random(n) < 0.3).astype(float)
        dummies = [d, 1.0 - d] if kind == "dummy_trap" else [d]
        if kind == "duplicate":
            Q[:, -1] = Q[:, 0]
        elif kind == "sum":
            Q[:, -1] = Q[:, 0] + Q[:, 1]
        beta = rng.normal(size=k + 1 + len(dummies))
        noise = rng.normal(size=n)

        def build(delta):
            if isinstance(kind, float):
                Q[:, -1] = Q[:, 0] + delta * z
            return np.column_stack([np.ones(n), Q] + dummies)

        if isinstance(kind, float) and slot not in self._delta:
            self._delta[slot] = _delta_for_cn(build, kind)
        X = build(self._delta.get(slot))
        y = X @ beta + noise
        labels = ("intercept",) + tuple(f"x{j}" for j in range(1, k + 1)) + \
            tuple(f"d{j}" for j in range(1, len(dummies) + 1))
        return DesignMatrix(X, True, tuple(range(1, k + 1)),
                            tuple(range(k + 1, X.shape[1])), labels), y

    def reference(self, slot: int, X: DesignMatrix, y: np.ndarray) -> dict:
        if slot not in self._ref:
            self._ref[slot] = check.design_reference(X.X, y, X.quantitative_idx)
        return self._ref[slot]

    def task(self, i: int) -> Task:
        slot = self.slot_of(i)
        X, y = self.design(slot)
        if slot not in self._full_rank:
            self._full_rank[slot] = check.is_full_rank(X.X)
        full_rank = self._full_rank[slot]

        def run():
            report = diagnostics.multicol(X)
            fit = ols.ols_fit(y, X)
            return report, fit, ols.significance_contradiction(fit)

        def judge(result, exc) -> Verdict:
            if not full_rank:  # raising is the correct outcome
                if isinstance(exc, SingularMatrixError):
                    return OK
                if exc is not None:
                    return refused(f"rank-deficient design raised {type(exc).__name__}: {exc}")
                return wrong(["rank-deficient design: a report instead of SingularMatrixError"])
            if exc is not None:
                return refused(f"{type(exc).__name__} on a full-rank design "
                               f"(scaled CN {check.scaled_cn(X.X):.3g}): {exc}")
            ref = self.reference(slot, X, y)
            report, fit, verdict = result
            problems = check.check_measures(ref, X.k, report.cn.cn_with, report.cn.cn_without,
                                            [v for _, v in report.vifs])
            problems += check.check_fit(ref, X.k, fit.beta, fit.se)
            if verdict.min_coef_p != float(fit.p[1:].min()):
                problems.append("contradiction verdict does not match the fit's p-values")
            return wrong(problems)

        n, k, kind = self.slots[slot]
        label = kind if isinstance(kind, str) else ("cn>=1e6" if kind >= 1e6 else "cn<1e6")
        return Task(f"n{n}:k{k}:{label}", 1, run, judge)


def _delta_for_cn(build, target: float) -> float:
    """Noise scale delta for x_k = x_1 + delta * z that gives the design
    a unit-scaled condition number within 5% of target.  CN ~ 1/delta
    once the near dependency dominates; below the design's base CN the
    target is unreachable and the largest delta is kept."""
    delta = 1.0
    for _ in range(12):
        cn = check.scaled_cn(build(delta))
        step = min(delta * cn / target, 100.0)
        if abs(math.log(cn / target)) < math.log(1.05) or step == delta:
            break
        delta = step
    return delta


# ---------------------------------------------------------------------------
# perturb_fixtures: CLI perturb on kg and theil, 5000 draws each.


class PerturbFixtures:
    name = "perturb_fixtures"
    item = "draw"
    pass_len = 2  # kg and theil alternate
    tasks_per_sample = 1
    iterations = 5000

    def __init__(self, seed: int, workdir: str):
        self.seeds = _perturb_seeds(seed)
        self._ref: dict[tuple[str, int], dict] = {}
        self._first: dict[tuple[str, int], str] = {}

    def cleanup(self):
        pass

    def task(self, i: int) -> Task:
        name = ("kg", "theil")[i % 2]
        pseed = self.seeds[(i // 2) % 2]
        argv = ["perturb", "--fixture", name, "--iterations", str(self.iterations),
                "--seed", str(pseed), "--format", "json"]

        def judge(result, exc) -> Verdict:
            if verdict := _cli_refusal(result, exc):
                return verdict
            key = (name, pseed)
            if self._first.setdefault(key, result[1]) != result[1]:
                return wrong([f"{name} seed {pseed}: output differs from the first run"])
            if key not in self._ref:
                ds = fixtures.fixture(name)
                X = design_matrix(ds)
                self._ref[key] = check.perturb_reference(
                    X.X, response_vector(ds), X.quantitative_idx, 0.01,
                    self.iterations, 10.0, 10.0, pseed)
            got = json.loads(result[1])["result"]
            return wrong(check.check_perturb(got, self._ref[key],
                                             check.FIXTURE_REFERENCE[name]["change_mean"]))

        return Task(name, self.iterations, lambda: run_cli(argv), judge)


# ---------------------------------------------------------------------------
# perturb_wide: library perturb_n on an n=10000, k=20 design.


class PerturbWide:
    name = "perturb_wide"
    item = "draw"
    pass_len = 1
    tasks_per_sample = 1
    n, k, iterations = 10_000, 20, 25

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 4])
        Q = rng.normal(rng.uniform(0.5, 1.5, self.k), 1.0, (self.n, self.k))
        Q[:, 1] = Q[:, 0] + 0.3 * Q[:, 1]  # a mild near dependency
        X = np.column_stack([np.ones(self.n), Q])
        self.X = DesignMatrix(X, True, tuple(range(1, self.k + 1)), (),
                              ("intercept",) + tuple(f"x{j}" for j in range(1, self.k + 1)))
        self.y = X @ rng.normal(size=self.k + 1) + rng.normal(size=self.n)
        self.seeds = _perturb_seeds(seed)
        self._ref: dict[int, dict] = {}
        self._first: dict[int, bytes] = {}

    def cleanup(self):
        pass

    def task(self, i: int) -> Task:
        pseed = self.seeds[i % 2]
        cfg = perturb.PerturbConfig(iterations=self.iterations, seed=pseed)

        def judge(result, exc) -> Verdict:
            if exc is not None:
                return refused(f"perturb_n raised {type(exc).__name__}: {exc}")
            raw = result.achieved_pct.tobytes() + result.change_pct.tobytes()
            if self._first.setdefault(pseed, raw) != raw:
                return wrong([f"seed {pseed}: draws differ from the first run"])
            if pseed not in self._ref:
                self._ref[pseed] = check.perturb_reference(
                    self.X.X, self.y, self.X.quantitative_idx, cfg.tol, cfg.iterations,
                    cfg.noise_mean, cfg.noise_sd, pseed)
            got = {"achieved_pct": vars(result.achieved_summary),
                   "change_pct": vars(result.change_summary)}
            return wrong(check.check_perturb(got, self._ref[pseed]))

        return Task(f"seed{i % 2}", self.iterations,
                    lambda: perturb.perturb_n(self.y, self.X, cfg), judge)


WORKLOADS = {w.name: w for w in (CsvReport, DesignSweep, PerturbFixtures, PerturbWide)}
