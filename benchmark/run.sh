#!/usr/bin/env bash
# Builds the benchmark package from source and runs it; every argument goes to
# the binary. See README.md.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--seed N] [--repeat [K]] [--smoke]             the whole set
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Cargo's own output goes to stderr: the run's result is the last line of stdout.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/adr-benchmark" "$@"
