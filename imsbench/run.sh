#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# benchmark binary. Run it from the repository root, e.g.
#
#   bash imsbench/run.sh --workload pipeline --seed 7 --seconds 30 --trace 0
#
# Every function and loop is aligned to a 64-byte cache line. Without
# this, a change to unrelated code moves the hot loops of the whole
# program, and that alone shifted serve-hot's p99 by 25-33% between two
# builds of the same source.
set -euo pipefail
export RUSTFLAGS="${RUSTFLAGS:-} -C llvm-args=-align-all-functions=6 -C llvm-args=-align-loops=64"
exec cargo run --release --offline -q --manifest-path "$(dirname "$0")/Cargo.toml" -- "$@"
