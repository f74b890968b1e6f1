#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it with the
# given flags. Everything the Go toolchain writes (build cache, binary)
# stays under .bench_build/ in the checkout, which .gitignore lists.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-modcacherw
export GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/stateflow-benchmark" .
exec "$build/stateflow-benchmark" "$@"
