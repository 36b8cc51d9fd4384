#!/usr/bin/env bash
# Builds the replay benchmark from this checkout's sources and runs it,
# passing every argument through (see main.go for the flags). All build
# state stays inside the checkout under .bench_build: the Go build
# cache, temporary files and the binary. The benchmark module replaces
# the craid module with the checkout root, so the build fails — and
# this script exits non-zero — when the root's sources are absent.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/perfbench-go"
mkdir -p "$build/cache" "$build/tmp" "$build/mod"

export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/mod"
export GOFLAGS="-buildvcs=false" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

go -C "$root/perfbench" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
