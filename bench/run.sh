#!/usr/bin/env bash
# The benchmark contract's entry point: build the bench command from source
# inside the checkout, then run it with the driver's arguments
# (--workload NAME --seed N --seconds S --trace 0|1).
#
# Everything the build writes stays under .bench_build/ in the checkout,
# the Go build cache included, so a run leaves nothing behind elsewhere. The
# first run in a checkout therefore compiles the standard library too; later
# runs reuse the cache and only relink when a source file changed.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
