#!/usr/bin/env bash
# CI matrix, selectable per job:
#
#   ./ci.sh                                  # all jobs, cheap ones first
#   ./ci.sh --jobs lint,tidy                 # fast static tier only
#   ./ci.sh --jobs asan,tsan,ubsan           # sanitizer matrix
#   ./ci.sh --jobs fuzz-regression -j 4      # corpus replay, 4-way builds
#   ./ci.sh --clean --jobs release           # rebuild the tree from scratch
#
# Jobs (run in the order listed, regardless of --jobs order):
#   lint            determinism + concurrency/contract lints over src/ with
#                   their self-tests, plus the timeline-analyzer self-test
#                   (python3)
#   tidy            clang-tidy over src/, tests/, and bench/; gating checks
#                   come from .clang-tidy WarningsAsErrors
#   tsa             clang -Wthread-safety -Werror replay of every project TU
#                   (tools/run_clang_tsa.py) — enforces the FEDSEARCH_*
#                   thread-safety annotations that gcc compiles as no-ops
#   asan            Debug + AddressSanitizer, full ctest suite (minus bench)
#   ubsan           Debug + UndefinedBehaviorSanitizer, same suite as asan
#   tsan            Debug + ThreadSanitizer, concurrency tests only
#                   (labels: stress + threads) to bound runtime
#   release         Release tree, full ctest suite (minus bench)
#   fuzz-regression corpus replay + bounded deterministic mutations
#   smoke           serving-throughput bench smoke (serial==parallel check)
#                   + Perfetto trace export validated by analyze_timeline.py
#   broker          broker-labeled tests + overload bench smoke with request
#                   tracing on, gated against bench/baselines/
#                   BENCH_broker.json (virtual-time numbers: the gate
#                   doubles as a bit-reproducibility check) and its timeline
#                   validated by analyze_timeline.py
#   churn           churn-labeled tests (corpus churn, refresh scheduling,
#                   epoch-versioned publication) + churn-degradation bench
#                   smoke gated against bench/baselines/BENCH_churn.json;
#                   the bench reruns every scenario internally and fails on
#                   any non-bit-identical request stream, so the gate
#                   doubles as a determinism check
#   perf-smoke      Release bench smoke with --json telemetry, gated against
#                   the committed baseline in bench/baselines/ by
#                   tools/check_bench_regression.py (>15% qps drop or
#                   >25% p95 growth fails the job), plus the adaptive-kernel
#                   microbenchmarks gated at a jitter-tolerant 30%
#   perfbench       repository benchmark (perfbench/, a CMake project of
#                   its own that compiles src/ directly) built into
#                   build-ci/perfbench and self-tested by
#                   perfbench/selftest.py: every workload smoke-run
#                   untraced and traced, plus its negative cases; then
#                   each workload BENCHMARK.json lists runs 1 s at full
#                   shape and must report correct and 0 failed
#
# The tidy and tsa jobs need a clang toolchain. Without one they skip
# with a notice by default; set FEDSEARCH_CI_STRICT=1 to make a missing
# analyzer fail the job instead of skipping (for CI runners that are
# supposed to have the toolchain, so a broken image cannot silently
# drop the static tier). Both jobs share one configure-only tree,
# build-ci/static, whose compile_commands.json drives them.
#
# All build trees live under build-ci/<name> and are reused across
# invocations (configure+build runs at most once per tree per run);
# --clean removes build-ci/ first for a from-scratch rebuild. The bench
# label is excluded from the sanitizer/release ctest sweeps — perf numbers
# from instrumented trees would gate on noise; perf-smoke owns the
# telemetry run, against the Release tree.
#
# Every tree builds with -DFEDSEARCH_DCHECK=ON so debug-only invariants
# (lambda simplex, finite gamma, cache-key bounds) are checked in CI even
# in the Release job.
set -euo pipefail
cd "$(dirname "$0")"

ALL_JOBS="lint tidy tsa asan ubsan tsan release fuzz-regression smoke broker churn perf-smoke perfbench"
SELECTED="$ALL_JOBS"
JOBS="$(nproc)"
CLEAN=0
STRICT="${FEDSEARCH_CI_STRICT:-0}"

usage() {
  cat >&2 <<EOF
usage: ./ci.sh [--jobs <job>[,<job>...]] [-j N] [--clean]

  --jobs   comma- or space-separated subset of the CI matrix; jobs always
           run in the canonical order below, regardless of --jobs order
  -j N     parallel build/test width (default: nproc)
  --clean  remove build-ci/ first for a from-scratch rebuild

jobs:
  $ALL_JOBS
EOF
}

while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs)   SELECTED="${2//,/ }"; shift 2 ;;
    --jobs=*) SELECTED="${1#--jobs=}"; SELECTED="${SELECTED//,/ }"; shift ;;
    -j)       JOBS="$2"; shift 2 ;;
    -j*)      JOBS="${1#-j}"; shift ;;
    --clean)  CLEAN=1; shift ;;
    *) echo "ci.sh: unknown argument: $1" >&2; usage; exit 2 ;;
  esac
done

for job in $SELECTED; do
  case " $ALL_JOBS " in
    *" $job "*) ;;
    *) echo "ci.sh: unknown job: $job" >&2; usage; exit 2 ;;
  esac
done

selected() { case " $SELECTED " in *" $1 "*) return 0 ;; *) return 1 ;; esac; }

run() {
  echo "+ $*"
  "$@"
}

# Per-job wall-time accounting: every job block opens with begin_job and
# closes with end_job; the summary table at the bottom makes CI-budget
# regressions visible without digging through runner logs. Shared
# build-tree setup (ensure_tree) is charged to the first job that needs it.
declare -a TIMED_JOBS=()
declare -a TIMED_SECS=()
CURRENT_JOB=""
CURRENT_JOB_T0=0
begin_job() {
  CURRENT_JOB="$1"
  CURRENT_JOB_T0="$(date +%s)"
  echo "=== job: $1 ==="
}
end_job() {
  TIMED_JOBS+=("$CURRENT_JOB")
  TIMED_SECS+=("$(( $(date +%s) - CURRENT_JOB_T0 ))")
}
print_job_times() {
  [[ "${#TIMED_JOBS[@]}" -gt 0 ]] || return 0
  local total=0 i
  echo "ci.sh: job wall times"
  for i in "${!TIMED_JOBS[@]}"; do
    printf '  %-16s %5ss\n' "${TIMED_JOBS[$i]}" "${TIMED_SECS[$i]}"
    total=$(( total + TIMED_SECS[i] ))
  done
  printf '  %-16s %5ss\n' total "$total"
}

# missing_tool <job> <tool>: skip notice by default, hard failure under
# FEDSEARCH_CI_STRICT=1 so a runner image without the analyzer cannot
# silently pass the static tier.
missing_tool() {
  if [[ "$STRICT" == 1 ]]; then
    echo "ci.sh: $2 not installed and FEDSEARCH_CI_STRICT=1;" \
         "failing $1 job" >&2
    exit 1
  fi
  echo "ci.sh: $2 not installed; skipping $1 job" \
       "(FEDSEARCH_CI_STRICT=1 fails instead)"
}

if [[ "$CLEAN" == 1 ]]; then
  run rm -rf build-ci
fi
# Stray roots from the pre-build-ci/ layout; remove so they cannot be
# mistaken for live trees (they are also .gitignored).
for legacy in build-ci-*; do
  if [[ -d "$legacy" ]]; then run rm -rf "$legacy"; fi
done

# Configure + build a tree once per invocation, even if several jobs use it.
declare -A BUILT=()
ensure_tree() {
  local dir="build-ci/$1"; shift
  [[ -n "${BUILT[$dir]:-}" ]] && return 0
  run cmake -B "$dir" -S . -DFEDSEARCH_DCHECK=ON "$@"
  run cmake --build "$dir" -j "$JOBS"
  BUILT[$dir]=1
}

# Configure-only tree shared by the tidy and tsa jobs. Both consume its
# compile_commands.json (exported unconditionally by the top-level
# CMakeLists) and never need object files, so it is never built.
STATIC_CONFIGURED=0
ensure_static_tree() {
  [[ "$STATIC_CONFIGURED" == 1 ]] && return 0
  run cmake -B build-ci/static -S . -DCMAKE_BUILD_TYPE=Debug \
    -DFEDSEARCH_DCHECK=ON
  STATIC_CONFIGURED=1
}

# --- Static tier: fail fast before any compilation -----------------------
if selected lint; then
  begin_job lint
  run python3 tools/lint_determinism.py src
  run python3 tools/lint_determinism_selftest.py
  run python3 tools/lint_contracts.py src
  run python3 tools/lint_contracts_selftest.py
  run python3 tools/analyze_timeline.py --selftest
  # A committed baseline no job compares against gates nothing; fail fast.
  run python3 tools/check_bench_regression.py --check-orphans \
    ci.sh bench/baselines
  end_job
fi

if selected tidy; then
  begin_job tidy
  if command -v clang-tidy >/dev/null 2>&1; then
    ensure_static_tree
    # Tests and benches are covered too — they hold most of the raw
    # concurrency (stress harnesses, bench worker pools). Which checks
    # gate is owned by WarningsAsErrors in .clang-tidy, not overridden
    # here.
    mapfile -t TIDY_SOURCES < <(find src tests bench -name '*.cc' | sort)
    run clang-tidy -p build-ci/static --quiet "${TIDY_SOURCES[@]}"
  else
    missing_tool tidy clang-tidy
  fi
  end_job
fi

if selected tsa; then
  begin_job tsa
  # gcc compiles the FEDSEARCH_* thread-safety macros as no-ops; this
  # replay is where the annotations are actually enforced.
  if command -v clang++ >/dev/null 2>&1; then
    ensure_static_tree
    run python3 tools/run_clang_tsa.py \
      build-ci/static/compile_commands.json -j "$JOBS"
  else
    missing_tool tsa clang++
  fi
  end_job
fi

# --- Sanitizer matrix ----------------------------------------------------
if selected asan; then
  begin_job asan
  ensure_tree asan -DCMAKE_BUILD_TYPE=Debug -DFEDSEARCH_SANITIZE=address
  run ctest --test-dir build-ci/asan --output-on-failure -j "$JOBS" -LE bench
  end_job
fi

if selected ubsan; then
  begin_job ubsan
  ensure_tree ubsan -DCMAKE_BUILD_TYPE=Debug -DFEDSEARCH_SANITIZE=undefined
  run ctest --test-dir build-ci/ubsan --output-on-failure -j "$JOBS" -LE bench
  end_job
fi

if selected tsan; then
  begin_job tsan
  ensure_tree tsan -DCMAKE_BUILD_TYPE=Debug -DFEDSEARCH_SANITIZE=thread
  # Stress + thread-touching unit tests only: TSan's ~10x slowdown makes the
  # full suite blow the CI budget, and single-threaded tests add no signal.
  run ctest --test-dir build-ci/tsan --output-on-failure -j "$JOBS" \
    -L 'stress|threads'
  end_job
fi

# --- Release + dynamic regression tiers ----------------------------------
if selected release || selected fuzz-regression || selected smoke || \
    selected broker || selected churn || selected perf-smoke; then
  ensure_tree release -DCMAKE_BUILD_TYPE=Release
fi

if selected release; then
  begin_job release
  run ctest --test-dir build-ci/release --output-on-failure -j "$JOBS" \
    -LE bench
  end_job
fi

if selected fuzz-regression; then
  begin_job fuzz-regression
  # The ctest fuzz label replays corpora with the default mutation budget;
  # CI adds a deeper deterministic mutation pass on top.
  run ctest --test-dir build-ci/release --output-on-failure -L fuzz
  run ./build-ci/release/tests/fuzz_summary_io_replay \
    --mutate 512 --seed 7 tests/fuzz/corpus/summary_io
  run ./build-ci/release/tests/fuzz_analyzer_replay \
    --mutate 512 --seed 7 tests/fuzz/corpus/analyzer
  end_job
fi

if selected smoke; then
  begin_job smoke
  # Exits non-zero if parallel rankings ever diverge from serial. The run
  # doubles as trace-export coverage: the Perfetto timeline it writes must
  # be valid, non-empty JSON the analyzer accepts.
  run ./build-ci/release/bench/bench_serving_throughput --smoke \
    --trace-out build-ci/release/serving_trace.json
  run python3 tools/analyze_timeline.py build-ci/release/serving_trace.json
  end_job
fi

if selected broker; then
  begin_job broker
  # Unit + stress + bench-smoke coverage for the serving broker, then the
  # overload bench gated against its committed baseline. The bench reports
  # only virtual-time numbers, so the gate tolerances are slack for real
  # regressions and the comparison is effectively exact.
  run ctest --test-dir build-ci/release --output-on-failure -j "$JOBS" \
    -L broker
  # Tracing rides along: the per-request timeline the smoke run exports
  # must be valid JSON with a connected span tree per request (the
  # analyzer attributes every request's latency or exits non-zero). The
  # gated virtual-time numbers are produced with tracing ON, so this also
  # pins "observational by construction" in CI.
  run ./build-ci/release/bench/bench_broker --smoke \
    --json build-ci/release/BENCH_broker.json \
    --trace-out build-ci/release/broker_trace.json
  run python3 tools/analyze_timeline.py build-ci/release/broker_trace.json
  run python3 tools/check_bench_regression.py \
    bench/baselines/BENCH_broker.json build-ci/release/BENCH_broker.json
  end_job
fi

if selected churn; then
  begin_job churn
  # Unit + stress coverage for the live-churn subsystem (the bench label
  # is excluded: the ctest bench tier re-runs the same smoke binary; the
  # gated run below owns that here). Then the churn-degradation bench —
  # which internally reruns every scenario and fails on any
  # non-bit-identical request stream — gated against its committed
  # baseline. Scores and virtual-time numbers are deterministic, so the
  # gate doubles as a reproducibility check; only wall_* metrics carry
  # load noise and those are informational.
  run ctest --test-dir build-ci/release --output-on-failure -j "$JOBS" \
    -L churn -LE bench
  run ./build-ci/release/bench/bench_churn_degradation --smoke \
    --json build-ci/release/BENCH_churn.json
  run python3 tools/check_bench_regression.py \
    bench/baselines/BENCH_churn.json build-ci/release/BENCH_churn.json
  end_job
fi

if selected perf-smoke; then
  begin_job perf-smoke
  # Gate the telemetry first (a broken gate passes everything), then the
  # numbers: a fresh Release smoke report against the committed baseline.
  run python3 tools/check_bench_regression_selftest.py
  run ./build-ci/release/bench/bench_serving_throughput --smoke \
    --json build-ci/release/BENCH_serving_throughput.json
  run python3 tools/check_bench_regression.py \
    bench/baselines/BENCH_serving_throughput.json \
    build-ci/release/BENCH_serving_throughput.json
  # Adaptive-kernel microbenchmarks (basis build, flat grid build, one
  # full decision). Gated via their qps_op values with a looser threshold —
  # sub-microsecond kernels see more scheduler jitter than whole-query
  # scenarios. The committed baseline holds only the kernel scenarios, so
  # only those gate.
  run ./build-ci/release/bench/bench_micro --smoke \
    --benchmark_filter='Posterior|AdaptiveDecision' \
    --json build-ci/release/BENCH_micro.json
  run python3 tools/check_bench_regression.py \
    bench/baselines/BENCH_micro.json build-ci/release/BENCH_micro.json \
    --max-qps-drop 0.30
  end_job
fi

if selected perfbench; then
  begin_job perfbench
  # No tree above builds the benchmark: it compiles src/ through its own
  # CMake project, so a change that deletes a public name it calls passes
  # every other job and fails only here.
  run env CARGO_TARGET_DIR=build-ci/perfbench python3 perfbench/selftest.py
  # The self-test's smokes overload the broker on purpose, so only a run at
  # a listed workload's full shape shows that none of its operations fail.
  # One second per workload; the result is the last line of stdout.
  workloads="$(python3 -c 'import json; print(*(w["name"] for w in
    json.load(open("BENCHMARK.json"))["workloads"]))')"
  for workload in $workloads; do
    echo "+ perfbench/run.py --workload $workload --seed 1 --seconds 1 --trace 0"
    result="$(env CARGO_TARGET_DIR=build-ci/perfbench python3 perfbench/run.py \
      --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    python3 - "$workload" "$result" <<'PY'
import json, sys
workload, result = sys.argv[1], json.loads(sys.argv[2])
print("%s: correct %s, attempted %s, failed %s" % (
    workload, result["correct"], result["attempted"], result["failed"]))
if result["correct"] is not True or result["failed"] != 0:
    sys.exit("ci.sh: perfbench %s failed its full-shape run" % workload)
PY
  done
  end_job
fi

print_job_times
echo "ci.sh: all green ($SELECTED)"
