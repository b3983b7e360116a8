#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current
# checkout and runs it. Every file the Go toolchain writes (build cache,
# module cache, telemetry) is kept inside .bench_build/ as well.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/mcclsbench" .) >&2
exec "$build/mcclsbench" "$@"
