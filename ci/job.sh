#!/usr/bin/env bash
# The CI job's checks, one shell function per step of .github/workflows/tests.yml,
# which installs the package and then calls this script once per step:
#
#   bash ci/job.sh STEP
#
# STEP is console, scheduling, tier1, selfcheck, smoke or threads, or all to run
# them in the workflow's order, stopping at the first that fails.  Run from a
# checkout where collindiag is not installed, the script puts src on PYTHONPATH
# and runs a stand-in for the [project.scripts] entry point: an executable, not
# a function, because taskset and env must exec it.  Scratch files go to a
# temporary directory, removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

if ! command -v collindiag > /dev/null; then
    export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
    entry=$(sed -n 's/^collindiag = "\(.*\)"$/\1/p' pyproject.toml)  # module:function
    mkdir "$work/bin"
    printf '#!/bin/sh\nexec python3 -c "import sys; from %s import %s; sys.exit(%s())" "$@"\n' \
        "${entry%:*}" "${entry#*:}" "${entry#*:}" > "$work/bin/collindiag"
    chmod +x "$work/bin/collindiag"
    PATH="$work/bin:$PATH"
fi

# same_bytes PREFIX... -- ARGS...: `collindiag ARGS --format json` must print the
# same bytes after every command PREFIX, such as "taskset -c 0" ("" for none)
same_bytes() {
    local prefixes=() prefix i=0
    while [ "$1" != -- ]; do prefixes+=("$1"); shift; done
    shift
    for prefix in "${prefixes[@]}"; do
        $prefix collindiag "$@" --format json > "$work/run$i.json"  # unquoted: split into words
        cmp "$work/run0.json" "$work/run$i.json"
        i=$((i + 1))
    done
}

# Installed console script, with its JSON parsed strictly, its stdout closed early and its data errors on one line
console() {
    collindiag multicol --fixture kg
    collindiag ols --fixture theil --format json | python3 -c "import json, sys; json.loads(sys.stdin.read(), parse_constant=lambda name: sys.exit(f'not JSON: {name}'))"
    # a reader that stops early: no traceback on stderr, and the run's own exit status;
    # rdetr on 150 regressors prints more than a pipe holds, so it is still writing then
    python3 -c "import sys, numpy as np; np.savetxt(sys.argv[1], np.random.default_rng(0).standard_normal((300, 150)), delimiter=',', header=','.join(f'x{i}' for i in range(150)), comments='')" "$work/many.csv"
    for args in "multicol --fixture kg" "rdetr --data $work/many.csv"; do
        code=0; PYTHONUNBUFFERED=1 collindiag $args 2> "$work/err" | head -n 1 || code=$?
        if [ "$code" -ne 0 ] || [ -s "$work/err" ]; then cat "$work/err"; echo "exit $code"; exit 1; fi
    done
    # ols on a CSV without --response: a usage error (exit 2) that names the flag
    code=0; collindiag ols --data tests/golden/theil_income.csv 2> "$work/err" || code=$?
    if [ "$code" -ne 2 ] || ! grep -q -e --response "$work/err"; then cat "$work/err"; echo "exit $code"; exit 1; fi
    # a tol that overflows the perturbed design: exit 2, nothing on stdout and one stderr
    # line that names tol, so no traceback and no numpy warning
    code=0; collindiag perturb --fixture theil --tol 1e308 > "$work/out" 2> "$work/err" || code=$?
    if [ "$code" -ne 2 ] || [ -s "$work/out" ] || [ "$(wc -l < "$work/err")" -ne 1 ] \
            || ! grep -q "^error: tol=" "$work/err"; then cat "$work/out" "$work/err"; echo "exit $code"; exit 1; fi
}

# Seeded perturbation output does not depend on scheduling
scheduling() {
    same_bytes "" "taskset -c 0" -- perturb --fixture kg --seed 5 --iterations 5000
    # many blocks of draws
    same_bytes "" "taskset -c 0" -- perturb --fixture theil --seed 5 --iterations 20000
    # one draw per block at n = 5000, k = 11: the worker fills each next draw, and
    # each achieved norm sums 50,000 squares, which a BLAS dot would split over threads
    python3 -c "import sys, numpy as np; np.savetxt(sys.argv[1], np.random.default_rng(8).normal(2.0, 1.0, (5000, 11)), delimiter=',', header=','.join(['y'] + [f'x{j}' for j in range(1, 11)]), comments='')" "$work/wide.csv"
    same_bytes "" "taskset -c 0" -- perturb --data "$work/wide.csv" --response y --seed 5 --iterations 40
}

# Tier-1 tests
tier1() {
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
}

# Benchmark harness self-checks
selfcheck() {
    python bench/selfcheck.py
}

# bench_ok LABEL CMD...: run a 2 s benchmark and fail unless its last line reports
# correct outputs and no failed task (a task that raises has no output to check)
bench_ok() {
    label=$1; shift
    out=$("$@" --seed 1 --seconds 2)
    echo "$out" | tail -n 1 | python3 -c "import json, sys; r = json.load(sys.stdin); sys.exit(not (r['correct'] is True and r['failed'] == 0))" || { echo "$label: outputs not correct or tasks failed"; exit 1; }
}

# Benchmark smoke runs, every workload's outputs checked, the perturbation ones also on one CPU
smoke() {
    for w in csv_report design_sweep perturb_fixtures perturb_wide; do
        bench_ok "$w" python3 bench/run.py --workload "$w"
    done
    for w in perturb_fixtures perturb_wide; do
        bench_ok "$w on one CPU" taskset -c 0 python3 bench/run.py --workload "$w"
    done
}

# Report output does not depend on the BLAS thread count: a 200,000-row CSV, whose
# norms each sum more values than a BLAS dot keeps on one thread, with x5 tracking x1,
# and a 50,000-row CSV with a low-CV column and a dummy
threads() {
    python3 -c "
import sys, numpy as np
rng = np.random.default_rng(11)
X = rng.normal(10.0, 2.0, (200_000, 5))
X[:, 4] = X[:, 0] + rng.normal(0.0, 0.1, 200_000)
y = X @ [1.0, -2.0, 0.5, 3.0, 1.0] + rng.normal(0.0, 2.0, 200_000)
np.savetxt(sys.argv[1], np.column_stack([y, X]), fmt='%.17g', delimiter=',', header='y,x1,x2,x3,x4,x5', comments='')
" "$work/tall.csv"
    blas=("env OPENBLAS_NUM_THREADS=1" "env OPENBLAS_NUM_THREADS=2" "env OPENBLAS_NUM_THREADS=4")
    same_bytes "${blas[@]}" -- multicol --data "$work/tall.csv" --response y
    same_bytes "${blas[@]}" -- ols --data "$work/tall.csv" --response y
    same_bytes "${blas[@]}" -- perturb --data "$work/tall.csv" --response y --iterations 20 --seed 3
    # a calendar-year-like column (CV ~5e-7) and a 0/1 dummy between the quantitative
    # columns, with and without an intercept: both layouts of DesignMatrix.factors
    python3 -c "
import sys, numpy as np
rng = np.random.default_rng(12)
year = 2000.0 + rng.normal(0.0, 0.001, 50_000)
d = rng.random(50_000) < 0.4
x2 = rng.normal(3.0, 1.0, 50_000) + 100.0 * (year - 2000.0)
y = 0.5 * year + x2 + d + rng.normal(0.0, 1.0, 50_000)
np.savetxt(sys.argv[1], np.column_stack([y, year, d, x2]), fmt='%.17g', delimiter=',', header='y,year,d,x2', comments='')
" "$work/lowcv.csv"
    same_bytes "${blas[@]}" -- multicol --data "$work/lowcv.csv" --response y --dummy d
    same_bytes "${blas[@]}" -- multicol --data "$work/lowcv.csv" --response y --dummy d --no-intercept
}

steps=(console scheduling tier1 selfcheck smoke threads)
case " ${steps[*]} all " in
    *" ${1:-} "*) ;;
    *) echo "usage: bash ci/job.sh {$(IFS='|'; echo "${steps[*]}")|all}" >&2; exit 2 ;;
esac
if [ "$1" = all ]; then
    for step in "${steps[@]}"; do echo "== $step"; "$step"; done
else
    "$1"
fi
