#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#   bash stonnebench/run.sh --workload kernels --seed 1 --seconds 15 --trace 0
# Run from the repository root. Everything the build and the run write goes
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(cd "$root/stonnebench" && go build -o "$out/stonnebench" .) >&2
STONNEBENCH_COMMIT="$commit" exec "$out/stonnebench" -out "$out/results" "$@"
