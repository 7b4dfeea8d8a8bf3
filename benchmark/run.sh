#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source inside
# the checkout, then run it with the driver's arguments. Called from the
# repository root. Everything the go command writes (binary, build cache,
# module path, its own telemetry counters) is pointed under .bench_build,
# so nothing is written outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
