#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments from the root of the checkout. Everything the build leaves
# behind (Go build and module caches, temp files, the binary) stays in
# .bench_build/ there, as do the traces and profiles of traced runs, so a
# run reads and writes nothing outside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/chime-benchmark" .)
cd "$root"
exec "$out/chime-benchmark" "$@"
