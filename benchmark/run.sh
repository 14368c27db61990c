#!/usr/bin/env bash
# The one command: build the benchmark package, run it, check outputs.
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--repeat K]
# See README.md. Builds into $CARGO_TARGET_DIR when set, else into the
# repository's own target/ (warm after a workspace build).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
export GRIDPAXOS_BENCH_OUT="$here/out"
exec "$target/release/gridpaxos-benchmark" "$@"
