#!/bin/sh
# The repo's CI gate, runnable locally:
#
#   1. formatting        (cargo fmt --check)
#   2. lints             (cargo clippy, warnings are errors)
#   3. tier-1 tests      (release build + full test suite)
#   4. docs              (cargo doc, warnings are errors)
#   5. suite smoke run   (one small benchmark through every compilation
#                         path — two static back ends and all three
#                         dynamic back ends must agree on the answer)
#   6. cache smoke run   (the repeat-compile sweep with memoization on:
#                         hit economics + pointer stability end-to-end)
#   7. exec smoke run    (the five execution engines — decode-per-step,
#                         predecoded, predecoded+fused, direct-threaded,
#                         adaptive — over the loop-heavy kernels with
#                         the observational-equivalence asserts live,
#                         release mode)
#   8. adaptive smoke    (the reuse sweep's cold-start cells — including
#                         the background-worker engine — with the
#                         equivalence asserts live, release mode)
#   9. adaptive tests    (the tier-promotion property suite — entry
#                         thresholds as "no later than", a long loop
#                         reaching the top tier inside one run —
#                         explicitly, so a tiering regression names
#                         itself)
#  10. vm crate + safepoint tests (all of tcc-vm in release, not a
#                         name filter — a filter that matches nothing
#                         is green: the decoded form's layout,
#                         position independence and sharing, the
#                         cost-model refusal, the background
#                         translation pipeline, the threaded engine's
#                         combined handlers; and from the differential
#                         harness the safepoint itself: per-iteration
#                         promotion, every-budget fuel sweeps across
#                         the yield, a free between two ticks —
#                         explicitly, so a pipeline regression names
#                         itself)
#  11. superinstruction/scheduler tests (release: the mid-group fuel
#                         sweeps in the differential harness, the
#                         DAG-scheduler preservation proptests, and the
#                         engine golden — every program x back end x
#                         translated engine's counters and shape
#                         histogram against the committed digests — so
#                         a fusion regression names itself)
#  12. serve smoke       (the multi-tenant pool: Zipfian replay over
#                         1/2/4 worker sessions sharing one artifact
#                         cache, with the cross-pool bit-identical
#                         digest and per-request differential asserts
#                         live, release mode)
#  13. serve tests       (the concurrency suite, explicitly and in
#                         release: shared-compile dedup, cross-thread
#                         StaleCode faulting, eviction under budget —
#                         so a concurrency regression names itself)
#  14. cache crate tests (all of tcc-cache in release, not a name
#                         filter: in-flight-slot interleavings, store
#                         round-trips, corruption / truncation /
#                         version-salt rejection at open and at first
#                         load, single-writer locking, the CRC32
#                         slicing-by-8 vs bytewise equivalence and the
#                         fingerprint-digest properties)
#  15. persist smoke     (the persistent on-disk code cache: a cold
#                         process compiles a cell sweep, exits, and a
#                         warm process answers the identical sweep
#                         from disk with zero recompiles and
#                         bit-identical results, release mode)
#  16. persist tests     (the end-to-end durability suite, explicitly
#                         and in release: warm-start, single-writer
#                         sharing, post-load StaleCode faulting, and a
#                         rotten frame recompiling and healing — so a
#                         durability regression names itself)
#  17. exec regression   (./run_benches.sh --check: full-rep exec bench
#                         compared against baselines/BENCH_exec.json;
#                         fails on a >30% drop in any gated speedup
#                         column — fused, threaded, adaptive, or the
#                         threaded engine's dispatch_reduction — and
#                         reports the tiering pipeline's
#                         tail_p99_improvement column (a wall-clock
#                         wake-up ratio: a drop is a WARN line, only a
#                         missing row fails) when both
#                         BENCH_adaptive.json files are present,
#                         serve throughput/p99 plus the largest
#                         pool's hit-rate/compiles-per-unique bounds
#                         when both BENCH_serve.json files are present,
#                         and persist warm-start speedups — relative
#                         to baseline and against the absolute 5x
#                         floor — when both BENCH_persist.json files
#                         are present)
#  18. benchmark package (benchmark/check.sh: fmt, clippy and the unit
#                         tests of the out-of-workspace repo benchmark,
#                         which builds against crates/*'s public API —
#                         so an API change that breaks it fails here,
#                         not in the benchmark pipeline)
#
# Fails fast: the first failing step aborts with its exit code.
set -eu
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test =="
cargo test -q --workspace

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== suite smoke (all back ends must agree) =="
cargo run -p tcc-suite --bin suite --release -- smoke

echo "== suite cache (memoized compiles stay correct) =="
cargo run -p tcc-suite --bin suite --release -- cache

echo "== suite exec --smoke (engines observationally identical) =="
cargo run -p tcc-suite --bin suite --release -- exec --smoke

echo "== suite adaptive --smoke (tiering observationally identical) =="
cargo run -p tcc-suite --bin suite --release -- adaptive --smoke

echo "== adaptive property tests =="
cargo test -q --release --test adaptive

echo "== vm crate + tier-1 safepoint tests =="
cargo test -q --release -p tcc-vm
cargo test -q --release --test exec_differential -- adaptive fault_during midrun safepoint

echo "== superinstruction + DAG-scheduler tests =="
cargo test -q --release --test exec_differential -- mid_group
cargo test -q --release --test peephole_preserve --test engine_golden

echo "== suite serve --smoke (pool replay bit-identical across sizes) =="
cargo run -p tcc-suite --bin suite --release -- serve --smoke

echo "== serve concurrency tests =="
cargo test -q --release -p tcc-serve
cargo test -q --release -p tcc --test shared_serve

echo "== cache crate tests (shared, persist, CRC, digest) =="
cargo test -q --release -p tcc-cache

echo "== suite persist --smoke (warm restart answers from disk) =="
cargo run -p tcc-suite --bin suite --release -- persist --smoke

echo "== persist durability tests =="
cargo test -q --release --test persist --test persist_corruption

echo "== exec regression gate (speedups vs baselines/) =="
./run_benches.sh --check

echo "== benchmark package (fmt, clippy, tests against this tree's API) =="
bash benchmark/check.sh

echo "CI_OK"
