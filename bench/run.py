"""collindiag benchmark.

    python3 bench/run.py --workload design_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the repository root.  One client issues one task at a time
(a closed loop) for --seconds of measured task time, checks every
output against an independent numpy route, and prints the metrics by
name and unit.  The last line of standard output is one JSON object:
with --trace 0 it holds the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics, taken from spans recorded around the
public functions of each module.  End-to-end times are scaled to a
nominal host speed by a reference kernel timed between tasks; a fuller
record, with the times as measured and the environment, goes to
bench/out/.  See bench/NOTES.md.
"""

import os
import sys

# One BLAS thread, fixed before numpy is first imported: the numbers
# should measure collindiag, not the OpenBLAS thread pool.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import ctypes


def fix_malloc_thresholds():
    """Pin glibc's mmap and trim thresholds at their 128 KiB defaults.
    Left dynamic, they rise after the first large free, freed arrays
    then stay in the heap, and peak RSS depends on the order of frees
    rather than on the memory the program holds (about 10% run to run
    on design_sweep).  No effect on other C libraries."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 128 * 1024)
    mallopt(m_trim_threshold, 128 * 1024)


fix_malloc_thresholds()

import argparse
import json
import platform
import resource
import statistics
import subprocess
import time
from collections import Counter

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOAD_NAMES = ("csv_report", "design_sweep", "perturb_fixtures", "perturb_wide")
SETUP_SAMPLES = 7
TAIL_BEYOND = 10
# The reference kernel's time at the nominal host speed that reported
# times are scaled to.
REFERENCE_NOMINAL_S = 0.025


def child_env(**extra) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, **BLAS_ENV)
    env.update(extra)
    return env


class HostSpeed:
    """Times a fixed reference kernel between tasks.  A virtual machine
    shares its host, whose speed can swing by up to 2x for seconds at a
    time; the kernel slows with it, so time divided by the kernel's
    slowdown (sample / REFERENCE_NOMINAL_S) is steady across runs.  The
    kernel mixes the kinds of work collindiag does (bytecode, float parsing,
    small and tall LAPACK QRs, a streaming reduction) and never calls
    it."""

    def __init__(self):
        self._small = np.ones((14, 4))
        self._tall = np.random.default_rng(0).normal(size=(4000, 21))
        self._stream = np.ones(500_000)  # allocated once: no RSS peak of its own
        self.sample()

    def sample(self) -> float:
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(20_000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        sum(float(cell) for cell in ("1.2345678901234", "98.7654321") * 3000)
        for i in range(300):
            np.linalg.qr(self._small + i)
        for _ in range(3):
            np.linalg.qr(self._tall)
        for _ in range(10):
            self._stream.sum()
        return time.perf_counter() - start


def measure_setup_s(host: HostSpeed) -> tuple[float, float]:
    """Median wall time for a fresh interpreter to finish
    `import collindiag`, which every CLI invocation pays, as measured
    and at nominal host speed (each start scaled by the host-speed
    samples on either side of it)."""
    times, references = [], [host.sample()]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import collindiag"], env=child_env(),
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
        references.append(host.sample())
    nominal = [t * 2 * REFERENCE_NOMINAL_S / (before + after)
               for t, before, after in zip(times, references, references[1:])]
    return statistics.median(times), statistics.median(nominal)


STALL_PROBE = """
import time, numpy as np
a = np.random.default_rng(0).normal(size=(2000, 31))
t0 = time.perf_counter(); np.linalg.qr(a); t1 = time.perf_counter(); np.linalg.qr(a)
print((t1 - t0) * 1e3, (time.perf_counter() - t1) * 1e3)
"""


def blas_first_call_ms() -> dict:
    """First and second 2000x31 QR in a fresh process, at one and two
    OpenBLAS threads (an observation; the benchmark runs at one)."""
    out = {}
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", STALL_PROBE], capture_output=True, text=True,
                              env=child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
                              check=True)
        first, second = map(float, proc.stdout.split())
        out[f"threads_{threads}"] = {"first_ms": first, "second_ms": second}
    return out


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or commit
        except OSError:  # no git on this machine
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"], "machine": platform.machine(),
        "commit": commit,
    }


class Loop:
    """Closed-loop task runner: one task at a time, each timed alone,
    with a host-speed sample before every workload.tasks_per_sample
    tasks and one at the end.  Sampling by count, not by time, keeps
    the sequence of allocations, and so peak RSS, the same on every
    run."""

    def __init__(self, workload, host: HostSpeed, tracer=None):
        self.workload = workload
        self.host = host
        self.tracer = tracer
        self.durations: list[float] = []
        self.items = 0
        self.labels: list[str] = []
        self.verdicts: list = []
        self.references: list[float] = []
        self._block: list[int] = []  # index of the sample taken before each task

    def run_one(self, i: int):
        if i % self.workload.tasks_per_sample == 0:
            self.references.append(self.host.sample())
        task = self.workload.task(i)
        if self.tracer:
            self.tracer.task = len(self.durations)
        result = exc = None
        start = time.perf_counter()
        try:
            result = task.run()
        except Exception as e:  # judged below: an expected or an unexpected failure
            exc = e
        elapsed = time.perf_counter() - start
        if self.tracer:
            self.tracer.task = -1
        self.durations.append(elapsed)
        self._block.append(len(self.references) - 1)
        self.items += task.items
        self.labels.append(task.label)
        self.verdicts.append((task.label, task.judge(result, exc)))

    def for_seconds(self, seconds: float):
        """Run until `seconds` of task time are spent, then finish the
        workload's current pass so every pass is whole."""
        i = 0
        while sum(self.durations) < seconds or i % self.workload.pass_len:
            self.run_one(i)
            i += 1
        self.references.append(self.host.sample())

    def for_count(self, count: int):
        for i in range(count):
            self.run_one(i)
        self.references.append(self.host.sample())

    def slowdowns(self) -> list[float]:
        """Per task, the mean of the host-speed samples around it over
        the nominal."""
        return [(self.references[b] + self.references[b + 1]) / 2 / REFERENCE_NOMINAL_S
                for b in self._block]

    def nominal_durations(self) -> list[float]:
        return [d / s for d, s in zip(self.durations, self.slowdowns())]

    def failures(self) -> dict[str, dict[str, tuple[int, str]]]:
        """status -> task label -> (count, first detail)."""
        out: dict[str, dict[str, tuple[int, str]]] = {}
        for label, verdict in self.verdicts:
            if verdict.status != "ok":
                count, detail = out.setdefault(verdict.status, {}).get(label, (0, verdict.detail))
                out[verdict.status][label] = (count + 1, detail)
        return out

    def failed(self) -> int:
        return sum(v.status != "ok" for _, v in self.verdicts)

    def wrong(self) -> int:
        return sum(v.status == "wrong" for _, v in self.verdicts)


def tail(durations: list[float]) -> tuple[float, float, int]:
    """The highest order statistic with at least TAIL_BEYOND samples
    above it, as (value, percentile, samples beyond).  With too few
    samples for that, the maximum."""
    ordered = sorted(durations)
    idx = len(ordered) - TAIL_BEYOND - 1
    if idx < 0:
        idx = len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


def warm_up(workload) -> list[str]:
    """Fixture reference values through the library, then one untimed
    task of the workload, so lazy set-up and file caches are done."""
    import workloads

    problems = workloads.fixture_problems()
    task = workload.task(0)
    try:
        result, exc = task.run(), None
    except Exception as e:  # judged like any task
        result, exc = None, e
    verdict = task.judge(result, exc)
    if verdict.status == "wrong":
        problems.append(f"warm-up {task.label}: {verdict.detail}")
    return problems


def timings(durations: list[float], items: int) -> dict[str, float]:
    tail_s, tail_pct, beyond = tail(durations)
    return {"task_p50_ms": statistics.median(durations) * 1e3, "task_tail_ms": tail_s * 1e3,
            "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
            "samples": len(durations), "items_per_s": items / sum(durations)}


def untraced_run(workload, seconds: float, host: HostSpeed, record: dict):
    """End-to-end metrics from a run with no tracing.  Times are
    reported at nominal host speed; the record keeps them as measured
    too."""
    loop = Loop(workload, host)
    loop.for_seconds(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    nominal = timings(loop.nominal_durations(), loop.items)
    record["as_measured"] = dict(timings(loop.durations, loop.items),
                                 setup_s=record["setup_s_as_measured"])
    record["nominal"] = nominal
    record["host_slowdown_median"] = statistics.median(loop.slowdowns())
    by_label: dict[str, list[float]] = {}
    for label, seconds_ in zip(loop.labels, loop.durations):
        by_label.setdefault(label, []).append(seconds_ * 1e3)
    record["p50_ms_by_label_as_measured"] = {k: statistics.median(v)
                                             for k, v in sorted(by_label.items())}
    record["durations_ms_as_measured"] = [d * 1e3 for d in loop.durations]
    metrics = {
        "setup_s": (record["setup_s"], "s"),
        "task_p50_ms": (nominal["task_p50_ms"], "ms"),
        "task_tail_ms": (nominal["task_tail_ms"], "ms"),
        "items_per_s": (nominal["items_per_s"], "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, [loop]


TOUR_DRAWS = 200
TIME_UNITS = ("ms", "us", "MB/s", "GFLOP/s")


def layer_tour(seed: int) -> list[list]:
    """Spans of a fixed tour of the CLI that calls every traced layer:
    multicol on kg, multicol and ols on a 2000-row CSV, and perturb on
    kg.  A workload that never calls a layer takes that layer's time
    metrics from here, so they are measured rather than a constant 0."""
    import spans
    import workloads

    path = os.path.join(OUT, f"tour-{seed}.csv")
    data = np.random.default_rng([seed, 5]).normal(10.0, 3.0, (2000, 6))
    workloads.write_csv(path, ("y", "x1", "x2", "x3", "x4", "x5"), data)
    source = ["--data", path, "--response", "y"]
    tracer = spans.Tracer()
    tracer.patch()
    try:
        for i, argv in enumerate((
                ["multicol", "--fixture", "kg"],
                ["multicol"] + source,
                ["ols"] + source + ["--format", "json"],
                ["perturb", "--fixture", "kg", "--iterations", str(TOUR_DRAWS),
                 "--seed", str(seed), "--format", "json"])):
            tracer.task = i
            workloads.run_cli(argv)
    finally:
        tracer.task = -1
        tracer.restore()
        os.remove(path)
    return tracer.spans


def traced_run(workload, seconds: float, host: HostSpeed, record: dict):
    """Untraced for half the time, then the same tasks again traced.
    Per-layer numbers come from the traced half, as measured, with the
    time metrics of layers the workload never calls taken from
    layer_tour; the tracing overhead is the ratio of the two halves'
    task time at nominal host speed."""
    import logging

    import spans

    plain = Loop(workload, host)
    plain.for_seconds(seconds / 2)
    resamples = spans.ResampleCounter()
    logger = logging.getLogger("collindiag.perturb")
    logger.addHandler(resamples)
    tracer = spans.Tracer()
    tracer.patch()
    try:
        traced = Loop(workload, host, tracer)
        traced.for_count(len(plain.durations))
    finally:
        tracer.restore()
        logger.removeHandler(resamples)
    tasks = len(traced.durations)
    metrics = spans.layer_metrics(tracer.spans, tasks,
                                  traced.items if workload.item == "draw" else 0)
    metrics["perturb.resamples"] = (resamples.count / tasks, "count")
    metrics["trace.overhead_frac"] = (
        sum(traced.nominal_durations()) / sum(plain.nominal_durations()) - 1.0, "fraction")
    metrics["failed_frac"] = ((plain.failed() + traced.failed()) / (2 * tasks), "fraction")
    tour_spans = layer_tour(record["seed"])
    tour = spans.layer_metrics(tour_spans, 4, TOUR_DRAWS)
    from_tour = [name for name, (value, unit) in metrics.items()
                 if unit in TIME_UNITS and value == 0.0]
    metrics.update((name, tour[name]) for name in from_tour)
    trace_path = os.path.join(OUT, f"{workload.name}-seed{record['seed']}.spans.jsonl.gz")
    tracer.write(trace_path)
    record.update(spans=len(tracer.spans), trace_file=os.path.relpath(trace_path, ROOT),
                  calls_per_task_by_label=spans.calls_by_label(tracer.spans, traced.labels),
                  metrics_from_tour=from_tour,
                  kg_multicol_calls=dict(Counter(name for name, _, _, _, task, _ in tour_spans
                                                 if task == 0)),
                  blas_first_call_ms=blas_first_call_ms())
    return metrics, [plain, traced]


ALIASES = {"row": "rows_per_s", "design": "designs_per_s", "draw": "draws_per_s"}


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "collindiag", "__init__.py")):
        print(f"error: no collindiag package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(OUT, exist_ok=True)
    record = environment(args)
    print(f"collindiag benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={record[k]}" for k in (
        "nproc", "python", "numpy", "blas", "blas_threads", "commit")))
    host = HostSpeed()
    if not args.trace:
        record["setup_s_as_measured"], record["setup_s"] = measure_setup_s(host)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        problems = warm_up(workload)
        measure = traced_run if args.trace else untraced_run
        metrics, loops = measure(workload, args.seconds, host, record)
    finally:
        workload.cleanup()

    attempted = sum(len(loop.durations) for loop in loops)
    failed = sum(loop.failed() for loop in loops)
    wrong = sum(loop.wrong() for loop in loops)
    failures: dict = {}
    for loop in loops:
        for status, by_label in loop.failures().items():
            for label, (count, example) in by_label.items():
                entry = failures.setdefault(status, {}).setdefault(label, [0, example])
                entry[0] += count
    record.update(attempted=attempted, failed=failed, wrong=wrong, warm_up_problems=problems,
                  failures=failures,
                  task_seconds=sum(sum(loop.durations) for loop in loops),
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    correct = wrong == 0 and not problems

    as_measured = record.get("as_measured", {})
    if as_measured:
        print(f"  times at nominal host speed; host ran {record['host_slowdown_median']:.3f}x "
              f"the nominal reference time")
    for name, (value, unit) in metrics.items():
        note = f"  (as measured {as_measured[name]:.6g})" if name in as_measured else ""
        if name == "items_per_s":
            note += f"  ({ALIASES[workload.item]})"
        elif name == "task_tail_ms":
            note += (f"  (p{as_measured['tail_percentile']:.1f}, "
                     f"{as_measured['tail_samples_beyond']} of {as_measured['samples']} beyond)")
        print(f"  {name:40s} {value:14.6g} {unit}{note}")
    print(f"  failed_frac {failed / attempted:.4f} ({failed} of {attempted}; wrong answers {wrong})")
    for status, by_label in failures.items():
        for label, (count, example) in sorted(by_label.items()):
            print(f"    {status} {label} x{count}: {example[:160]}")
    for problem in problems:
        print(f"  check failed: {problem}")
    out_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    summary = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        summary[name] = json.loads(lines[-1])
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"all-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{w}.{k}": v for w, r in summary.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured task time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
