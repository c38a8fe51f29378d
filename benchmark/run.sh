#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       one workload, one process: what BENCHMARK.json's `command` runs.
#   benchmark/run.sh [--seed N] [--seconds S] [--traced]
#       every workload in turn (untraced; with --traced a traced run of
#       each follows), merged into benchmark/out/result.json
#       (and benchmark/out/layers.json).
#   benchmark/run.sh --selfcheck [--seed N]
#       determinism check of the counters.
#
# Builds the package first (offline, release). The target directory is
# $CARGO_TARGET_DIR when set, else the repo's own target/, so a tier-1
# build is reused. Exits non-zero on a build failure or a wrong answer.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --offline --release --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/tcc-benchmark"
out="$here/out"

case " $* " in
*" --workload "* | *" --selfcheck "* | *" --list "* | *" --compare "* | *" --bless "*)
    exec "$bin" "$@" --out "$out"
    ;;
esac

traced=0
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
    --traced) traced=1 ;;
    --trace) traced="$2"; shift ;;
    *) pass+=("$1") ;;
    esac
    shift
done

# {"<workload>": <that workload's file>, ...}
merge() { # prefix, destination
    local sep="{"
    for w in $("$bin" --list); do
        printf '%s"%s": ' "$sep" "$w"
        cat "$out/$1_$w.json"
        sep=","
    done >"$2"
    echo "}" >>"$2"
}

status=0
for w in $("$bin" --list); do
    "$bin" --workload "$w" "${pass[@]}" --trace 0 --out "$out" || status=1
done
merge result "$out/result.json"
if [ "$traced" != 0 ]; then
    for w in $("$bin" --list); do
        "$bin" --workload "$w" "${pass[@]}" --trace 1 --out "$out" || status=1
    done
    merge layers "$out/layers.json"
fi
exit "$status"
