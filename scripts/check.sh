#!/usr/bin/env bash
# Tier-1 gate: build and run the full test suite, normally and under
# ASan+UBSan (via the asan-ubsan preset in CMakePresets.json), then the
# concurrency suites (ThreadPool / SimBatch) under ThreadSanitizer. Run from
# the repository root; pass --sanitize-only to skip the plain build, or
# --no-tsan to skip the TSan stage (e.g. on toolchains without libtsan).
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
run_plain=1
run_tsan=1
for arg in "$@"; do
  case "$arg" in
    --sanitize-only) run_plain=0 ;;
    --no-tsan) run_tsan=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

if [[ "$run_plain" == 1 ]]; then
  cmake --preset default
  cmake --build --preset default -j "$jobs"
  ctest --preset default -j "$jobs"
fi

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$jobs"
ctest --preset asan-ubsan -j "$jobs"

if [[ "$run_tsan" == 1 ]]; then
  # Only the binaries holding the ThreadPool / SimBatch / SolveBatch /
  # BlockedKernels / SolverCache / Metamorphic / SqEstimator suites: TSan's
  # runtime overhead on the full suite buys nothing — every other test is
  # single-threaded — and the ctest preset filters to those suites anyway.
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs" \
    --target test_util test_sim_sync test_solve_session test_linalg \
    test_solver_cache test_metamorphic test_quality_estimator
  ctest --preset tsan -j "$jobs"
fi

echo "check.sh: all suites passed"
