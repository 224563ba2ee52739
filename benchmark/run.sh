#!/usr/bin/env bash
# Builds the benchmark inside the checkout it is started from and runs
# it there. Every argument goes to the program (see README.md).
# Build cache, binary, WAL files and results all live in .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/ortoa-benchmark" .)
cd "$root"
exec "$build/ortoa-benchmark" "$@"
