#!/bin/sh
# The repo's CI gate, runnable locally. Tests gate; nothing here compares
# a clock (wall-clock is measured by benchmark/run.sh and reported, not
# gated). Every test binary runs once, in the debug profile: product code
# has no `unsafe`, so the build with overflow checks and debug_asserts
# live is the stricter one. With the binaries built the step takes 20 s
# on this box (18.4 s before PR 23: the CGF walker oracle — `cargo test
# -p tcc --lib` shadows every compile of that crate's test build with
# the AST walker — is 65 tests in 0.4 s, the two allocation gates less).
# Debug builds poison released spec-time memory, so that run also checks
# that no program reads a closure after its call released it. Step 5,
# the release soak, adds about 8 s once its test binary is built.
#
#   1. cargo fmt --check
#   2. cargo clippy, warnings are errors
#   3. cargo build --release (tier-1)
#   4. cargo test --workspace
#   5. the spec-memory soak in release: 2 MiB sessions answer 10^6
#      requests over 40 and over 320 cells with their heap flat, and
#      the serve pool runs past where its sessions used to fault
#   6. cargo doc, warnings are errors
#   7. suite smoke: one benchmark through two static and three dynamic
#      back ends, which must agree
#   8. suite cache: the repeat-compile sweep, memo off and on
#   9. suite adaptive --smoke: the tiering report's cells at two reps,
#      every engine equal to decode-per-step in checksum, cycles, insns
#  10. benchmark/check.sh: fmt, clippy and unit tests of the
#      out-of-workspace repo benchmark, which builds against crates/*'s
#      public API, so an API change that breaks it fails here
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

echo "== spec-memory soak (release) =="
cargo test --release -q -p tickc --test spec_memory -- --ignored

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== suite smoke (all back ends must agree) =="
cargo run -p tcc-suite --bin suite --release -- smoke

echo "== suite cache (memoized compiles stay correct) =="
cargo run -p tcc-suite --bin suite --release -- cache

echo "== suite adaptive --smoke (tiering observationally identical) =="
cargo run -p tcc-suite --bin suite --release -- adaptive --smoke

echo "== benchmark package (fmt, clippy, tests against this tree's API) =="
bash benchmark/check.sh

echo "CI_OK"
