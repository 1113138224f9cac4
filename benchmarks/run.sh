#!/usr/bin/env bash
# Builds sydload into .bench_build at the root of the checkout and runs it
# with the arguments given, telling it where that root is. Nothing is written outside the checkout:
# the Go build cache, the build's temporary files and the toolchain's own
# state are kept in .bench_build too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/sydload" ./sydload)
exec "$build/sydload" -root "$root" "$@"
