#!/usr/bin/env bash
# benchmark/run.sh [harness flags]
#
# Builds the benchmark harness from this checkout's sources and runs it.
# Everything the build and the run leave behind goes under .bench_build/
# at the root of the checkout: the Go build cache, the harness binary,
# and the temp dirs of the daemon workloads (TMPDIR points there, and the
# harness removes what it creates).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off

t0=$(date +%s%N)
go build -C "$root/benchmark" -o "$build/nimbus-benchmark" .
ns=$(( $(date +%s%N) - t0 ))
# Seconds with all nine digits: a build time rounded to the millisecond
# can read the same on two runs.
export NIMBUS_BENCH_BUILD_S=$(printf '%d.%09d' $((ns / 1000000000)) $((ns % 1000000000)))

exec "$build/nimbus-benchmark" "$@"
