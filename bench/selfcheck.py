"""Self-checks of the benchmark harness itself.

    python3 bench/selfcheck.py

Exits 0 when every check passes.  It checks that the output checker
rejects a VIF planted 1e-6 relative off, that the same seed generates
identical inputs (and another seed different ones), that the rank rule
sorts the design_sweep grid as intended, and the tail statistic.
"""

import hashlib
import os
import sys

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import numpy as np  # noqa: E402

from collindiag import diagnostics, fixtures  # noqa: E402
from collindiag.dataset import design_matrix, response_vector  # noqa: E402

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def planted_vif_is_rejected() -> list[str]:
    problems = []
    sweep = workloads.DesignSweep(7, run.OUT)
    cases = [(design_matrix(fixtures.fixture(name)), response_vector(fixtures.fixture(name)))
             for name in ("kg", "theil")]
    cases.append(sweep.design(0))  # n=200, k=5, scaled CN target 10
    for X, y in cases:
        ref = check.design_reference(X.X, y, X.quantitative_idx)
        cn = diagnostics.cns(X)
        vifs = np.array([v for _, v in diagnostics.vif(X)])
        if check.check_measures(ref, X.k, cn.cn_with, cn.cn_without, vifs):
            problems.append(f"true VIFs rejected on {X.labels}")
        planted = vifs.copy()
        planted[-1] *= 1 + 1e-6
        if not check.check_measures(ref, X.k, cn.cn_with, cn.cn_without, planted):
            problems.append(f"VIF off by 1e-6 relative accepted on {X.labels}")
    return problems


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def inputs_follow_seed() -> list[str]:
    def csv_digest(seed):
        wl = workloads.CsvReport(seed, run.OUT)
        try:
            with open(wl.path, "rb") as fh:
                return hashlib.sha256(fh.read()).hexdigest()
        finally:
            wl.cleanup()

    def sweep_digest(seed):
        wl = workloads.DesignSweep(seed, run.OUT)
        slots = [wl.slot_of(i) for i in range(0, 3 * wl.pass_len, 37)]
        return digest(np.array(slots), *(a for s in slots[:6] for a in
                                          (wl.design(s)[0].X, wl.design(s)[1])))

    def wide_digest(seed):
        wl = workloads.PerturbWide(seed, run.OUT)
        return digest(wl.X.X, wl.y)

    problems = []
    for name, fn in (("csv_report", csv_digest), ("design_sweep", sweep_digest),
                     ("perturb_wide", wide_digest)):
        first, again, other = fn(11), fn(11), fn(12)
        if first != again:
            problems.append(f"{name}: seed 11 generated different inputs twice")
        if first == other:
            problems.append(f"{name}: seeds 11 and 12 generated the same inputs")
    return problems


def rank_rule_sorts_grid() -> list[str]:
    wl = workloads.DesignSweep(5, run.OUT)
    problems = []
    for slot, (n, k, kind) in enumerate(wl.slots):
        if n != 200:
            continue
        full = check.is_full_rank(wl.design(slot)[0].X)
        if full != (not isinstance(kind, str)):
            problems.append(f"slot n={n} k={k} {kind}: rule says full rank = {full}")
    return problems


def tail_statistic() -> list[str]:
    problems = []
    value, pct, beyond = run.tail([float(i) for i in range(1, 101)])
    if (value, pct, beyond) != (90.0, 90.0, 10):
        problems.append(f"tail of 1..100 = {(value, pct, beyond)}, expected (90, 90, 10)")
    value, pct, beyond = run.tail([3.0, 1.0, 2.0])
    if (value, pct, beyond) != (3.0, 100.0, 0):
        problems.append(f"tail of 3 samples = {(value, pct, beyond)}, expected the maximum")
    return problems


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    failed = 0
    for check_fn in (planted_vif_is_rejected, inputs_follow_seed, rank_rule_sorts_grid,
                     tail_statistic):
        problems = check_fn()
        print(f"{'FAIL' if problems else 'ok  '} {check_fn.__name__}")
        for problem in problems:
            print(f"     {problem}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
