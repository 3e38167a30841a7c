#!/usr/bin/env bash
# Builds ffbench from source and runs it with the arguments given, keeping
# everything the build and the run write inside the checkout: the Go build
# cache, the toolchain's temporary files, the binary and the benchmark's
# scratch root all live under .bench_build/. BENCHMARK.json names this script
# as the benchmark's command; run it from anywhere.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS="${GOFLAGS:-} -buildvcs=false"
go build -o "$build/ffbench" ./bench/ffbench
exec "$build/ffbench" -scratch "$build" "$@"
