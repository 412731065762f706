#!/usr/bin/env bash
# Build the benchmark and the ilpc-serve binary it drives, then run it.
#
#   bash benchmark/run.sh --workload grid-paper --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the run's JSON result.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p ilpc-bench-e2e -p ilpc-serve --bins >&2
exec "$target/release/ilpc-bench-e2e" --serve-bin "$target/release/ilpc-serve" "$@"
