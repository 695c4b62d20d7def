#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload peer-read --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The binary, the Go build cache and
# every generated input stay under .bench_build/ there.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -work "$build/work" "$@"
