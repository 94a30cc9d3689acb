#!/usr/bin/env bash
# The one command: build the benchmark crate offline, then run it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
#   benchmark/run.sh [--seed <n>] [--quick]         the full set -> benchmark/out/result.json
#   benchmark/run.sh --selfcheck                    the full set twice, compared
#   benchmark/run.sh --compare A.json B.json        compare two result files
#
# Builds into $CARGO_TARGET_DIR when set, else into the repo's ignored
# target/. Outside a checkout of the repository (no ../Cargo.toml for
# the path dependency) the build fails and so does this script.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/rsbench" "$@"
