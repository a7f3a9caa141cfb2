#!/usr/bin/env bash
# Builds ospserve and the benchmark from the checkout this script sits in,
# then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload stream-bulk --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the spans files all stay under
# .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local \
	GOFLAGS= XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
cd "$root"
go build -o "$out/ospserve" ./cmd/ospserve
cd "$root/perfbench"
go build -o "$out/perfbench" .
cd "$root"
exec .bench_build/perfbench -ospserve .bench_build/ospserve -out .bench_build "$@"
