#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Every build artefact and
# scratch file stays under .bench_build/ in the current directory, which must
# be the repository root.
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 36 --trace 0
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS="-buildvcs=false"
export GOPROXY=off
export GOPATH="$build/gopath"
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --build-dir "$build" "$@"
