#!/usr/bin/env bash
# Builds the benchmark from source and runs it; all arguments pass through:
#
#   bash perfbench/run.sh --workload churn-epochs --seed 3 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, traces
# and result files stay in $CARGO_TARGET_DIR (default .bench_build) under
# the root.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
