#!/bin/sh
# Builds the benchmark from source inside the checkout and runs it. Run it
# from the repository root: sh benchmark/run.sh [flags] (see main.go).
# Everything it writes — the Go build cache, the binary, the durable
# workload's redo log — stays under .bench_build/ and benchmark/out/.
set -e
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/rhbenchmark" .
exec "$build/rhbenchmark" "$@"
