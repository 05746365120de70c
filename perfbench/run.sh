#!/usr/bin/env bash
# Builds the benchmark from the source of this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload capture --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. The build cache, the binary and what
# a run leaves behind all stay under .bench_build/ there.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench.bin" .) >&2

exec "$out/perfbench.bin" "$@"
