#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags
# (--workload, --seed, --seconds, --trace). Run from the repository root:
#
#   bash perfbench/run.sh --workload canvas_deck --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary and
# the traced run's Chrome trace and self-time table.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/modcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
