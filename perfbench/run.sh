#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, module cache, temporary
# files, the binary) goes under .bench_build/ in the current directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/pipeline ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (the simulator sources are missing here)" >&2
	exit 2
fi

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export HOME="$out/home"
export XDG_CACHE_HOME="$out/home/.cache"
export XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTELEMETRY=off

(cd perfbench && go build -o "$out/vprbench" .)
exec "$out/vprbench" "$@"
