#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout's sources and runs it
# with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload service-remote --seed 1 --seconds 35 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build in the checkout; the toolchain never goes to the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
