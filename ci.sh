#!/bin/sh
# The repo's CI gate, runnable locally. Tests gate; nothing here compares
# a clock (wall-clock is measured by benchmark/run.sh and reported, not
# gated). Every test binary runs in the debug profile, the one with
# overflow checks and debug_asserts live; with the binaries built that
# step takes 20 s on this box (18.4 s before PR 23: the CGF walker
# oracle — `cargo test -p tcc --lib` shadows every compile of that
# crate's test build with the AST walker — is 65 tests in 0.4 s, the
# two allocation gates less). Debug builds poison released spec-time
# memory, so that run also checks that no program reads a closure after
# its call released it. Product code's only `unsafe` is the mapping
# module crates/vm/src/map.rs, behind the data memory and the code
# space's words and owner index: every other library forbids
# `unsafe_code`, `tcc-vm` denies it outside that module, and its clippy
# lint wants a `// SAFETY:` comment on every block. Step 8 runs the
# mapping's users' tests again in release, where the optimiser would
# turn a wrong assumption there into wrong code. Step 8, the
# release-only tests, adds about 8 s for the soak, 2 s for the
# paper-size Blur, 1 s for the pool's retire-vs-hit stress and under
# 1 s for the mapping once their test binaries are built.
#
#   1. cargo fmt --check
#   2. only plan.rs reads a tick's AST: no other file in
#      crates/tickc/src but the test-only oracle imports anything from
#      tcc_front::ast beyond the operator enums
#   3. every `pub` field of `pub struct Config` (crates/tickc/src/api.rs)
#      and every variant of `pub enum ExecEngine`
#      (crates/vm/src/predecode.rs) and `pub enum Backend`
#      (crates/tickc/src/runtime.rs) has a row in DESIGN.md's knob
#      census, naming `Config::<field>`, `ExecEngine::<Variant>` or
#      `Backend::<Variant>` in its first column
#   4. panic sites do not grow: `.unwrap(`, `.expect(` and `panic!(` on
#      non-comment lines of crates/{vcode,icode,tickc}/src/*.rs, each
#      file counted up to the `#[cfg(test)]` that opens `mod tests` and
#      the test-only oracle left out, are at most PANIC_SITES; when the
#      count falls the step says to lower that number
#   5. cargo clippy, warnings are errors
#   6. cargo build --release (tier-1)
#   7. cargo test --workspace
#   8. release-only tests: the spec-memory soak (2 MiB sessions answer
#      10^6 requests over 40 and over 320 cells with their heap flat,
#      and the serve pool runs past where its sessions used to fault),
#      the §6.2 Blur at 640x480, every count pinned, and ten times the
#      debug run of the pool's retire-vs-hit stress (one thread calls
#      cells while another evicts, invalidates and re-publishes them:
#      every answer right, or StaleCode and then right), and the
#      mapping: `tcc-vm`'s `map`, `mem` and `code` unit tests and its
#      two RSS tests (a 1 GiB data memory, 2^21 code words), and the
#      allocation ratchet on Session::new (allocator calls over the 14
#      suite programs at most the committed count) in the profile the
#      benchmark builds
#   9. cargo doc, warnings are errors
#  10. suite smoke: one benchmark through two static and three dynamic
#      back ends, which must agree
#  11. suite cache: the repeat-compile sweep, memo off and on
#  12. suite adaptive --smoke: the tiering report's cells at two reps,
#      every engine equal to decode-per-step in checksum, cycles, insns
#  13. benchmark/check.sh: fmt, clippy and unit tests of the
#      out-of-workspace repo benchmark, which builds against crates/*'s
#      public API, so an API change that breaks it fails here; then
#      benchmark/run.sh --selfcheck, which runs one slice of every
#      workload and fails on a wrong answer, a failed op or a counter
#      that differs between two runs (about 17 s); then two traced
#      passes, benchmark/run.sh --workload codegen_cold --trace 1
#      --seconds 1 and the same for serve_hot (about 5 s each): the
#      selfcheck runs untraced slices only, and a traced run is the one
#      that also drives the per-layer measurements
#      (layers::direct_pass: run_serve, the persist layer,
#      install_function/free_function, each fixed engine) and fails on
#      a wrong answer there, or when the product's spans cover less
#      than 0.9 of op time (`trace.coverage`; serve_hot reads about
#      0.91, so per-op work moved out of the product's spans shows
#      there first). Building the benchmark rewrites
#      benchmark/Cargo.lock, so the lock is copied first and put back
#      afterwards
#  14. the work tree is as CI found it: `git status --porcelain` and
#      `git diff` equal their values at the start, or the files a step
#      changed are named and CI fails (skipped outside a git work tree)
#
# Fails fast: the first failing step aborts with its exit code.
set -eu
cd "$(dirname "$0")"

# Step 14's record of the work tree: per file that differs from HEAD,
# its status line and a checksum of its diff.
tree_state() {
    git status --porcelain | while IFS= read -r line; do
        printf '%s\t%s %s\n' "${line#???}" "$line" "$(git diff -- "${line#???}" | cksum)"
    done
}
tree=""
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    tree=$(mktemp -d)
    git status --porcelain >"$tree/status.0"
    git diff >"$tree/diff.0"
    tree_state >"$tree/files.0"
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== only plan.rs reads a tick's AST =="
ast_readers=$(grep -n 'use tcc_front::ast::' crates/tickc/src/*.rs |
    grep -v -e '^crates/tickc/src/plan\.rs:' -e '^crates/tickc/src/oracle\.rs:' \
        -e '^crates/tickc/src/oracle_tests\.rs:' |
    grep -vE 'use tcc_front::ast::(BinaryOp|UnaryOp|\{(BinaryOp|UnaryOp)(, (BinaryOp|UnaryOp))?\});' ||
    true)
if [ -n "$ast_readers" ]; then
    echo "$ast_readers"
    echo "only plan.rs may read a tick's AST (the operator enums excepted)"
    exit 1
fi

echo "== every Config field and engine/back-end variant has a knob-census row =="
config_fields=$(sed -n '/^pub struct Config {/,/^}/p' crates/tickc/src/api.rs |
    sed -n 's/^    pub \([a-z_][a-z0-9_]*\):.*/\1/p')
if [ -z "$config_fields" ]; then
    echo "found no pub field of pub struct Config in crates/tickc/src/api.rs"
    exit 1
fi
uncounted=""
for field in $config_fields; do
    grep -qE '^\| [^|]*`Config::'"$field"'[^a-z0-9_]' DESIGN.md ||
        uncounted="$uncounted $field"
done
if [ -n "$uncounted" ]; then
    echo "Config fields with no \`Config::<field>\` row in DESIGN.md's knob census:$uncounted"
    exit 1
fi
for spec in ExecEngine:crates/vm/src/predecode.rs Backend:crates/tickc/src/runtime.rs; do
    enum=${spec%%:*}
    file=${spec#*:}
    variants=$(sed -n "/^pub enum $enum {/,/^}/p" "$file" |
        sed -n 's/^    \([A-Z][A-Za-z0-9_]*\).*/\1/p')
    if [ -z "$variants" ]; then
        echo "found no variant of pub enum $enum in $file"
        exit 1
    fi
    for variant in $variants; do
        grep -qE '^\| [^|]*`'"$enum::$variant"'[^A-Za-z0-9_]' DESIGN.md ||
            uncounted="$uncounted $enum::$variant"
    done
done
if [ -n "$uncounted" ]; then
    echo "variants with no row naming them in DESIGN.md's knob census:$uncounted"
    exit 1
fi

echo "== panic sites in vcode, icode and tickc do not grow =="
PANIC_SITES=35
panic_sites=0
panic_files=""
for f in crates/vcode/src/*.rs crates/icode/src/*.rs crates/tickc/src/*.rs; do
    case "$f" in */oracle.rs | */oracle_tests.rs) continue ;; esac
    n=$(awk '/^mod tests/ && prev ~ /^#\[cfg\(test\)\]$/ { exit }
        { prev = $0 }
        !/^[[:space:]]*\/\// { print }' "$f" |
        grep -oE '\.unwrap\(|\.expect\(|panic!\(' | wc -l)
    panic_sites=$((panic_sites + n))
    [ "$n" -eq 0 ] || panic_files="$panic_files $f:$n"
done
if [ "$panic_sites" -gt "$PANIC_SITES" ]; then
    echo "$panic_sites panic sites, ci.sh allows $PANIC_SITES (per file:$panic_files)"
    echo "return an error where a site was added instead of panicking"
    exit 1
fi
if [ "$panic_sites" -lt "$PANIC_SITES" ]; then
    echo "panic sites fell to $panic_sites: lower PANIC_SITES in ci.sh to $panic_sites"
fi

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test =="
cargo test -q --workspace

echo "== release-only tests: spec-memory soak, paper-size Blur, retire-vs-hit, the mapping, Session::new's allocations =="
cargo test --release -q -p tickc --test spec_memory -- --ignored
cargo test --release -q -p tickc --test paper_golden -- --ignored
cargo test --release -q -p tcc --test shared_serve -- --ignored
cargo test --release -q -p tcc-vm --lib -- map:: mem:: code::
cargo test --release -q -p tcc-vm --test memory_rss
cargo test --release -q -p tcc-vm --test code_rss
cargo test --release -q -p tcc --test session_alloc

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== suite smoke (all back ends must agree) =="
cargo run -p tcc-suite --bin suite --release -- smoke

echo "== suite cache (memoized compiles stay correct) =="
cargo run -p tcc-suite --bin suite --release -- cache

echo "== suite adaptive --smoke (tiering observationally identical) =="
cargo run -p tcc-suite --bin suite --release -- adaptive --smoke

echo "== benchmark package (fmt, clippy, tests against this tree's API; selfcheck run; two traced passes) =="
lock=$(mktemp)
cp benchmark/Cargo.lock "$lock"
status=0
bash benchmark/check.sh || status=$?
[ "$status" -ne 0 ] || bash benchmark/run.sh --selfcheck || status=$?
[ "$status" -ne 0 ] ||
    bash benchmark/run.sh --workload codegen_cold --trace 1 --seconds 1 || status=$?
[ "$status" -ne 0 ] ||
    bash benchmark/run.sh --workload serve_hot --trace 1 --seconds 1 || status=$?
cp "$lock" benchmark/Cargo.lock
rm -f "$lock"
[ "$status" -eq 0 ] || exit "$status"

echo "== the work tree is as CI found it =="
if [ -n "$tree" ]; then
    git status --porcelain >"$tree/status.1"
    git diff >"$tree/diff.1"
    tree_state >"$tree/files.1"
    if ! cmp -s "$tree/status.0" "$tree/status.1" || ! cmp -s "$tree/diff.0" "$tree/diff.1"; then
        echo "a step changed the work tree; these files differ from when CI started:"
        sort "$tree/files.0" >"$tree/a"
        sort "$tree/files.1" >"$tree/b"
        comm -3 "$tree/a" "$tree/b" | sed 's/^\t//' | cut -f1 | sort -u
        rm -rf "$tree"
        exit 1
    fi
    rm -rf "$tree"
else
    echo "(not a git work tree: skipped)"
fi

echo "CI_OK"
