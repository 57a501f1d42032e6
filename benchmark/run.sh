#!/usr/bin/env bash
# One command for the whole benchmark: build the harness from source, then
# run it. From the root of a checkout:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run; the last line is the result JSON
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1]          every workload, one process each, one table
#   benchmark/run.sh --check-repeat [--runs K] [--seed N]            the suite twice: spread and drift per metric
#   benchmark/run.sh --print-benchmark-json                          the canonical BENCHMARK.json
#
# Exits non-zero when the build fails (for instance in a directory that
# holds only the benchmark and not the workspace it measures), when any
# answer is wrong, or when a repeatability check is out of bound.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr so stdout stays the benchmark's own.
(cd "$root" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml) >&2

# Run from the checkout root: sockets and state directories are addressed
# relative to it (benchmark/out/...), which keeps unix-socket paths short.
cd "$root"
case "$target" in
  /*) exec "$target/release/stl-benchmark" "$@" ;;
  *) exec "$root/$target/release/stl-benchmark" "$@" ;;
esac
