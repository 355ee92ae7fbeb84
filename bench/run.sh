#!/usr/bin/env bash
# Builds the benchmark (package ./bench of the checkout's module) from
# the sources of the checkout it is started in, and runs it with the
# given arguments. Everything it writes (the Go build cache, the binary,
# data directories, span files) stays under ./.bench_build of that
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$root" -o "$out/ldpbench" ./bench
exec "$out/ldpbench" "$@"
