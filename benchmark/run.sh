#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build the benchmark binary
# with every build output inside the checkout, then run it with the
# arguments given. It builds on every call, so the binary can never be
# stale; when nothing changed `go build` finds that out in a fraction of
# a second and does no work.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/candle-benchmark" ./benchmark
exec "$build/candle-benchmark" "$@"
