#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run it from the
# root of a checkout:
#
#   bash bench/run.sh [-workload W] [-seed S] [-seconds N] [-trace 0|1|FILE] ...
#
# The Go build cache, the harness binary, the hbserved/hbfront targets
# and every temporary file stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -C bench -o "$out/hbbench" .
exec "$out/hbbench" "$@"
