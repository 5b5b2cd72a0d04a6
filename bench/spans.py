"""Span tracing from outside the program.

Tracer.patch() replaces the public functions of each collindiag layer
with wrappers that record a span (name, start, end, parent, task), in
every module that holds a reference to them, including the names cli
imports directly.  Spans stay in memory until the run writes them out;
restore() puts the original functions back.  Resamples are counted by a
handler on the collindiag.perturb logger.
"""

import functools
import gzip
import json
import logging
import os
from collections import Counter, defaultdict
from time import perf_counter_ns

import collindiag
from collindiag import cli, dataset, diagnostics, linalg, ols, perturb

# layer -> (module, public functions timed at that boundary)
LAYERS = {
    "dataset": (dataset, ("load_csv", "design_matrix")),
    "linalg": (linalg, tuple(f for f in linalg.__all__ if f != "SingularMatrixError")),
    "diagnostics": (diagnostics, tuple(f for f in diagnostics.__all__
                                       if callable(getattr(diagnostics, f))
                                       and not isinstance(getattr(diagnostics, f), type))),
    "ols": (ols, ("ols_fit", "t_cdf")),
    "perturb": (perturb, ("perturb_n",)),
    "cli": (cli, ("main",)),
}
# Modules whose namespaces may hold the same function objects.
HOLDERS = (collindiag, dataset, linalg, diagnostics, ols, perturb, cli)


def _work(name: str, args) -> float:
    """Work counted per call: bytes read by load_csv, and the Householder
    QR flop count 2nk^2 - 2k^3/3 for least_squares (counted, not
    measured)."""
    if name == "dataset.load_csv":
        return float(os.path.getsize(args[0]))
    if name == "linalg.least_squares":
        n, k = args[0].shape
        return 2.0 * n * k * k - 2.0 * k ** 3 / 3.0
    return 0.0


class ResampleCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, task, work]
        self.task = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.task < 0:  # outside a timed task, e.g. in an output check
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.task, _work(name, args)])
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx][1:3] = start, end

        return traced

    def patch(self):
        wrappers = {}
        for layer, (module, names) in LAYERS.items():
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for module in HOLDERS:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def restore(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def write(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start_ns", "end_ns", "parent", "task", "work"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[list], tasks: int, draws: int) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) from the spans of `tasks` traced tasks.
    *.ms is inclusive time per task, *.self_ms excludes the time of
    child spans, *.calls_per_task counts calls."""
    incl, self_ns, work = defaultdict(int), defaultdict(int), defaultdict(float)
    calls = Counter()
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, w in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    solves_in_perturb = 0
    for i, (name, start, end, parent, _, w) in enumerate(spans):
        incl[name] += end - start
        self_ns[name] += end - start - child_ns[i]
        calls[name] += 1
        work[name] += w
        if name == "linalg.least_squares" and parent >= 0 and spans[parent][0] == "perturb.perturb_n":
            solves_in_perturb += 1

    def per_task_ms(ns):
        return ns / 1e6 / tasks

    def rate(name, scale):
        return work[name] / scale / (incl[name] / 1e9) if incl[name] else 0.0

    ms = {f"{name}.ms": (per_task_ms(incl[name]), "ms") for name in (
        "dataset.load_csv", "dataset.design_matrix", "diagnostics.cns", "diagnostics.vif",
        "diagnostics.stewart_index", "diagnostics.correlation_matrix",
        "linalg.sym_eigenvalues", "linalg.spd_inverse", "ols.t_cdf", "linalg.least_squares")}
    self_ms = {f"{name}.self_ms": (per_task_ms(self_ns[name]), "ms") for name in (
        "cli.main", "diagnostics.multicol", "ols.ols_fit", "perturb.perturb_n")}
    counts = {f"{name}.calls_per_task": (calls[name] / tasks, "count") for name in (
        "linalg.sym_eigenvalues", "linalg.spd_inverse", "ols.t_cdf", "linalg.least_squares")}
    return {
        **ms, **self_ms, **counts,
        "dataset.load_csv.mb_per_s": (rate("dataset.load_csv", 1e6), "MB/s"),
        "linalg.least_squares.gflops": (rate("linalg.least_squares", 1e9), "GFLOP/s"),
        "perturb.us_per_draw": (incl["perturb.perturb_n"] / 1e3 / draws if draws else 0.0, "us"),
        "perturb.solves_per_draw": (solves_in_perturb / draws if draws else 0.0, "count"),
    }


def calls_by_label(spans: list[list], labels: list[str]) -> dict[str, dict[str, list[float]]]:
    """[calls per task, inclusive ms per call] of each traced function,
    by task label."""
    tasks = Counter(labels)
    calls: dict[str, Counter] = defaultdict(Counter)
    ns: dict[str, Counter] = defaultdict(Counter)
    for name, start, end, _, task, _ in spans:
        calls[labels[task]][name] += 1
        ns[labels[task]][name] += end - start
    return {label: {name: [count / tasks[label], ns[label][name] / 1e6 / count]
                    for name, count in sorted(calls[label].items())}
            for label in sorted(tasks)}
