#!/usr/bin/env bash
# Builds permperf into .bench_build/ of the checkout and execs it, so the
# benchmark is one OS process: no `go run`, no `&`, no external server.
# Everything the build and the run write stays under the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath \
	GOTMPDIR=$build/tmp GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
PERMPERF_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export PERMPERF_COMMIT
(cd benchmarks && go build -buildvcs=false -o "$build/permperf" .)
exec "$build/permperf" -bench-json "$root/BENCHMARK.json" -tmp "$build/tmp" -out "$root/benchmarks/out" "$@"
