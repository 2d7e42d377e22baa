#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments.  Everything the build writes (binary, Go build
# cache) stays under .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off

# bench/ is its own module (go.mod replaces streamdag with ../), so the
# build fails, and this script with it, where the repository is absent.
go build -C bench -o "$build/streamdag-bench" .
exec "$build/streamdag-bench" "$@"
