#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash bench/run.sh --workload search-8x8 --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, temporary files, the Go
# toolchain's own config and telemetry, and the Chrome trace of a traced run.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/routerless-bench" .)
exec "$build/routerless-bench" -trace-out "$build/trace.json" "$@"
