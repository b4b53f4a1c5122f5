#!/usr/bin/env bash
# Builds gomdbench and the mdserve daemon it drives from source, then
# runs gomdbench from the repository root.
# Every argument is passed on, e.g.
#   bash gomdbench/run.sh --workload lj-serial --seed 1 --seconds 10 --trace 0
# The Go build cache, the binary, traces and scratch data all live under
# .bench_build/ at the repository root, so a run writes nothing outside
# the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C "$here" build -o "$out/gomdbench" . >&2
go -C "$root" build -o "$out/mdserve" ./cmd/mdserve >&2
cd "$root"
exec "$out/gomdbench" "$@"
