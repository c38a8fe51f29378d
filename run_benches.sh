#!/bin/sh
# Regenerates every table/figure, runs the criterion benches, and emits
# the machine-readable BENCH_*.json reports, appending everything to
# bench_output.txt. Each bench is isolated: a failure is reported loudly
# (both to stderr and in the log) and the remaining benches still run;
# the script exits non-zero if any failed.
#
#   ./run_benches.sh            full run (criterion + calibrated suite)
#   ./run_benches.sh --quick    skip criterion; suite JSON emissions
#                               only, with the exec, adaptive, serve,
#                               and persist experiments at smoke rep
#                               counts (equivalence asserts live,
#                               timings not meaningful)
#   ./run_benches.sh --check    regression gate: run the exec,
#                               adaptive, serve, and persist
#                               experiments at full rep counts, then
#                               compare the fresh BENCH_exec.json
#                               speedups, the fresh
#                               BENCH_adaptive.json tail ratios, the
#                               fresh BENCH_serve.json throughput/p99,
#                               and the fresh BENCH_persist.json
#                               warm-start speedups against baselines/
#                               (fails on a >30% drop in any gated
#                               speedup column — fused, threaded,
#                               adaptive — a >50% drop in the serve
#                               throughput ratio or a persist
#                               warm_speedup (the same drop in
#                               tail_p99_improvement, a wake-up latency
#                               ratio, is a WARN line in the report,
#                               not a failure), a >75% drop in the serve
#                               p99 ratio (the serve tail is bimodal
#                               and load-swung), a largest-pool serve
#                               hit rate below 0.9, serve
#                               compiles-per-unique above 1, or any
#                               persist warm_speedup below the
#                               absolute 5x floor; one retry absorbs
#                               machine noise)
set -u
cd "$(dirname "$0")"

quick=0
check=0
for a in "$@"; do
  case "$a" in
    --quick) quick=1 ;;
    --check) check=1 ;;
    *) echo "usage: $0 [--quick|--check]" >&2; exit 2 ;;
  esac
done

: > bench_output.txt
failed=""

if [ "$check" -eq 1 ]; then
  # Regression gate only: fresh full-rep exec run vs committed baseline.
  # Wall-clock ratios are load-sensitive, so a failed comparison gets
  # one re-measure before the gate fails for real.
  echo "=== exec regression gate ===" >> bench_output.txt
  for attempt in 1 2; do
    cargo run -p tcc-suite --bin suite --release -- exec --json \
      >> bench_output.txt 2>&1 || { echo "BENCH FAILED: exec" >&2; exit 1; }
    cargo run -p tcc-suite --bin suite --release -- adaptive --json \
      >> bench_output.txt 2>&1 || { echo "BENCH FAILED: adaptive" >&2; exit 1; }
    cargo run -p tcc-suite --bin suite --release -- serve --json \
      >> bench_output.txt 2>&1 || { echo "BENCH FAILED: serve" >&2; exit 1; }
    cargo run -p tcc-suite --bin suite --release -- persist --json \
      >> bench_output.txt 2>&1 || { echo "BENCH FAILED: persist" >&2; exit 1; }
    if cargo run -p tcc-suite --bin suite --release -- exec-check \
        BENCH_exec.json baselines/BENCH_exec.json \
        >> bench_output.txt 2>&1; then
      tail -n 12 bench_output.txt
      echo BENCHES_DONE
      exit 0
    fi
    echo "exec-check attempt $attempt failed" >> bench_output.txt
  done
  echo "BENCHES_FAILED: exec-check (see bench_output.txt)" >&2
  tail -n 30 bench_output.txt >&2
  exit 1
fi

if [ "$quick" -eq 0 ]; then
  for b in table1 figure4 figure5 figure6 figure7 blur codegen regalloc ablations; do
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
  run_suite exec exec
  run_suite adaptive adaptive
  run_suite serve serve
  run_suite persist persist
else
  run_suite exec exec --smoke
  run_suite adaptive adaptive --smoke
  run_suite serve serve --smoke
  run_suite persist persist --smoke
fi

if [ -n "$failed" ]; then
  echo "BENCHES_FAILED:$failed" >&2
  exit 1
fi
echo BENCHES_DONE
