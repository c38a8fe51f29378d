#!/bin/sh
# Regenerates every table/figure and the ablations, and emits the
# machine-readable BENCH_*.json reports, appending everything to
# bench_output.txt. Each run is isolated: a failure is reported loudly
# (both to stderr and in the log) and the remaining runs still go; the
# script exits non-zero if any failed.
#
#   ./run_benches.sh            full run
#   ./run_benches.sh --quick    the same, with the adaptive report at
#                               smoke size (equivalence asserts live,
#                               timings not meaningful)
#
# This script reports; it gates nothing. Tests gate (./ci.sh) and
# wall-clock is measured by benchmark/run.sh.
set -u
cd "$(dirname "$0")"

quick=0
for a in "$@"; do
  case "$a" in
    --quick) quick=1 ;;
    *) echo "usage: $0 [--quick]  (--quick: suite adaptive --smoke)" >&2; exit 2 ;;
  esac
done

: > bench_output.txt
failed=""

# suite <experiment> [flags...] — appends to the log; with --json it
# also writes BENCH_<experiment>.json into the repo root.
run_suite() {
  label="$1"; shift
  echo "=== suite $label ===" >> bench_output.txt
  if ! cargo run -p tcc-suite --bin suite --release -- "$@" \
      >> bench_output.txt 2>&1; then
    echo "BENCH FAILED: suite $label (see bench_output.txt)" >&2
    failed="$failed suite-$label"
  fi
}

run_suite all all --small --json
run_suite ablations ablations
run_suite cache cache --json
if [ "$quick" -eq 0 ]; then
  run_suite adaptive adaptive --json
else
  run_suite adaptive adaptive --smoke --json
fi

if [ -n "$failed" ]; then
  echo "BENCHES_FAILED:$failed" >&2
  exit 1
fi
echo BENCHES_DONE
