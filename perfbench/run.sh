#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it. Run it
# from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every other file the build writes stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	XDG_CACHE_HOME="$out/home/.cache" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
# With MADV_DONTNEED the runtime's scavenger hands freed heap back to the
# kernel, and every iteration faults it in again. On a VM each such fault
# also costs the host, by an amount that swings with the host's load, so
# the heap is released with MADV_FREE, which leaves the pages mapped.
GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}" exec "$out/perfbench" "$@"
