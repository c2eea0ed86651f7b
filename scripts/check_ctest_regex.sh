#!/usr/bin/env bash
# Fails when any alternative of a `ctest -R` regex selects no test, so a suite
# that is deleted or renamed cannot drop out of a CI filter unnoticed.
#
#   scripts/check_ctest_regex.sh BUILD_DIR 'Chaos|FaultPlan|Watchdog'
#
# The regex is split on every `|`, so it must be a flat list of alternatives
# (no groups). Each alternative is listed with `ctest -N -R`; the script
# prints how many tests each one selects and exits 1 if any selects none.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR REGEX" >&2
  exit 2
fi
build_dir=$1
regex=$2

status=0
IFS='|' read -r -a alternatives <<< "$regex"
for alt in "${alternatives[@]}"; do
  count=$(ctest --test-dir "$build_dir" -N -R "$alt" |
            sed -n 's/^Total Tests: //p')
  if [[ "${count:-0}" == 0 ]]; then
    echo "error: ctest -R alternative '$alt' matches no test" >&2
    status=1
  else
    echo "$alt: $count tests"
  fi
done
exit "$status"
