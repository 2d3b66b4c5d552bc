#!/usr/bin/env bash
# The benchmark's single entry point: build dido-server and the benchmark
# in release mode, then run. Arguments go to `suite` (see README.md).
#
#   benchmark/run.sh                      every workload, the driver's run length
#   benchmark/run.sh --quick              2 s phases, smoke test only
#   benchmark/run.sh --aa 6               A/A table -> end of benchmark/NOISE.md
#   benchmark/run.sh --workload k16_g95_zipf --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Both builds go to one target directory, so `suite` finds `dido-server`
# and `layers` next to itself. A relative CARGO_TARGET_DIR is relative to
# here, the checkout root.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac

# Cargo's progress goes to stderr: the last line of stdout stays the result.
cargo build --release --offline --manifest-path Cargo.toml --bin dido-server >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

# exec: no shell left between the caller and the benchmark, so a signal
# reaches it directly; it kills and reaps the servers it started.
exec "$CARGO_TARGET_DIR/release/suite" "$@"
