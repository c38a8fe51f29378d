#!/usr/bin/env bash
# A/A check: the same build measured against itself.
#
#   benchmark/aa.sh [--seed N] [--seconds S]
#
# Two sets of two full runs (every workload, untraced). In set 1 the
# first run is the baseline; in set 2 the order alternates and the
# later run is the baseline, so a drift over the session cannot hide
# as a one-sided difference. For every (workload, end-to-end metric) it
# prints both values, how much worse the second is, and the bound from
# BENCHMARK.json; it exits non-zero if a pair differs by more than the
# bound. A wall-clock bound may be widened only to 1.5x the spread seen
# here (record the observation in README.md); a metric that cannot hold
# 25% moves from end_to_end to per_layer in BENCHMARK.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
status=0
for run in 1 2 3 4; do
    echo "== full run $run of 4" >&2
    "$here/run.sh" "$@" >/dev/null || status=1
    cp "$out/result.json" "$out/aa_$run.json"
done
echo "== set 1: run 1 (baseline) against run 2"
"$here/run.sh" --compare "$here/../BENCHMARK.json" "$out/aa_1.json" "$out/aa_2.json" || status=1
echo "== set 2: run 4 (baseline) against run 3"
"$here/run.sh" --compare "$here/../BENCHMARK.json" "$out/aa_4.json" "$out/aa_3.json" || status=1
exit "$status"
