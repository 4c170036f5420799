#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload lu_rack_w2 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# working directory: the Go build cache, the binary and the span dumps.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

here="$(cd "$(dirname "$0")" && pwd)"
(cd "$here" && go build -trimpath -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -out "$build/spans" "$@"
