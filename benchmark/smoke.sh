#!/usr/bin/env bash
# Smoke run: every workload at n = 5 000 with one-second runs, first the
# end-to-end run and then the traced one, so that every code path and every
# correctness check executes. Takes under 20 s after the build. Each metric
# prints as `smoke.<name>`: the numbers are never to be compared with a
# full run's.
#
#   benchmark/smoke.sh [seed=1]
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
seed="${1:-1}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/parsim-benchmark"

"$bin" --smoke --seed "$seed" --seconds 1 --trace 0
"$bin" --smoke --seed "$seed" --seconds 1 --trace 1
echo "smoke.sh: all four workloads correct, end to end and traced (seed $seed)" >&2
