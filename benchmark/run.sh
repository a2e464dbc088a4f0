#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it with the arguments
# given. It is the command BENCHMARK.json names; run it from the root of a
# checkout. Everything the build writes (Go's build cache, its temporary
# files, its telemetry counters, the binary) goes under .bench_build/ in the
# checkout, so a run touches nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/benchmark" build -o "$build/obiwan-benchmark" .
cd "$root"
exec "$build/obiwan-benchmark" "$@"
