#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from source inside
# the checkout and runs it. Everything the Go toolchain writes — build
# cache, temp files — is kept under .bench_build, because a run may read
# and write only inside its checkout.
#
#   bash benchmark/run.sh --workload match-read --seed 1 --seconds 20 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f BENCHMARK.json ]; then
  echo "benchmark/run.sh: run from the root of the genlink checkout" >&2
  exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
