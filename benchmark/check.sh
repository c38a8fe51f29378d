#!/usr/bin/env bash
# Lints and unit tests for the benchmark package (the root ci.sh does
# not see it: the package is not a member of the root workspace).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
manifest="$here/Cargo.toml"
cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --release --all-targets \
    --manifest-path "$manifest" --target-dir "$target" -- -D warnings
cargo test --offline --release --manifest-path "$manifest" --target-dir "$target"
