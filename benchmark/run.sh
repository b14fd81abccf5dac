#!/usr/bin/env bash
# Build the benchmark and run it. Run from the root of a checkout:
#
#   benchmark/run.sh [--workload W]... [--seed N] [--traced] [--smoke] [--selfcheck]
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# See benchmark/README.md.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"

profile=release
flag=--release
for arg in "$@"; do
    if [ "$arg" = --smoke ]; then
        profile=debug
        flag=
    fi
done

# The build goes to stderr: stdout carries the results.
cargo build $flag --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

BENCH_GIT_REV="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
BENCH_RUSTC="$(rustc -V)"
export BENCH_GIT_REV BENCH_RUSTC

exec "$target/$profile/elephants-benchmark" --out "$here/target/benchmark" "$@"
