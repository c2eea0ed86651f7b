#!/usr/bin/env bash
# Rebuild everything, run the full test suite and every experiment, and
# record the outputs EXPERIMENTS.md refers to. Run from the repository root.
set -euo pipefail

cmake -B build
cmake --build build -j"$(nproc)"
ctest --test-dir build -j"$(nproc)" 2>&1 | tee test_output.txt
# One run per bench/bench_*.cpp source rather than per file in build/bench/:
# a reused build directory still holds the binaries of deleted targets.
for src in bench/bench_*.cpp; do
  "build/bench/$(basename "$src" .cpp)"
done 2>&1 | tee bench_output.txt
echo "Done: test_output.txt, bench_output.txt"
