#!/bin/sh
# Regenerates every table/figure, runs the criterion benches, and emits
# the machine-readable BENCH_*.json reports, appending everything to
# bench_output.txt. Each bench is isolated: a failure is reported loudly
# (both to stderr and in the log) and the remaining benches still run;
# the script exits non-zero if any failed.
#
#   ./run_benches.sh            full run (criterion + calibrated suite)
#   ./run_benches.sh --quick    skip criterion; suite JSON emissions
#                               only, with the adaptive report at smoke
#                               size (equivalence asserts live, timings
#                               not meaningful)
#
# This script reports; it gates nothing. Tests gate (./ci.sh) and
# wall-clock is measured by benchmark/run.sh.
set -u
cd "$(dirname "$0")"

quick=0
for a in "$@"; do
  case "$a" in
    --quick) quick=1 ;;
    *) echo "usage: $0 [--quick]" >&2; exit 2 ;;
  esac
done

: > bench_output.txt
failed=""

if [ "$quick" -eq 0 ]; then
  for b in codegen regalloc ablations; do
    echo "=== bench: $b ===" >> bench_output.txt
    if ! cargo bench -p tcc-bench --bench "$b" >> bench_output.txt 2>&1; then
      echo "BENCH FAILED: $b (see bench_output.txt)" >&2
      echo "=== bench FAILED: $b ===" >> bench_output.txt
      failed="$failed $b"
    fi
  done
fi

# suite <experiment> [extra flags...] — appends to the log and writes
# BENCH_<experiment>.json into the repo root.
run_suite() {
  label="$1"; shift
  echo "=== suite $label ===" >> bench_output.txt
  if ! cargo run -p tcc-suite --bin suite --release -- "$@" --json \
      >> bench_output.txt 2>&1; then
    echo "BENCH FAILED: suite $label (see bench_output.txt)" >&2
    failed="$failed suite-$label"
  fi
}

run_suite all all --small
run_suite cache cache
if [ "$quick" -eq 0 ]; then
  run_suite adaptive adaptive
else
  run_suite adaptive adaptive --smoke
fi

if [ -n "$failed" ]; then
  echo "BENCHES_FAILED:$failed" >&2
  exit 1
fi
echo BENCHES_DONE
