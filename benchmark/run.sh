#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags, from the
# repository root:
#
#   bash benchmark/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and every temporary file stay under
# .bench_build/ in the current directory, so a run writes nothing
# outside the checkout. The first run compiles the standard library into
# that cache; later runs reuse it.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/home" "$out/tmp" "$out/gocache" "$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

go build -C "$root/benchmark" -o "$out/benchmark" . >&2
exec "$out/benchmark" "$@"
