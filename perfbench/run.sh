#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload tpcc --seed 1 --seconds 10 --trace 0
#
# Build products and the Go build cache stay under $CARGO_TARGET_DIR
# (default .bench_build) so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
go build -C "$root/perfbench" -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -work "$out/work" "$@"
