#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing the arguments on:
#   bash perf/run.sh --workload tc_large --seed 7 --seconds 25 --trace 0
# A run may write only inside its checkout, so Go's build cache and temporary
# files go under .bench_build/ at its root, beside the binary, the span files
# and serve_mixed's cache directory.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
mkdir -p "$root/.bench_build/tmp"
export GOCACHE=$root/.bench_build/gocache GOTMPDIR=$root/.bench_build/tmp
go build -C "$root/perf" -o "$root/.bench_build/perf" .
cd "$root"
exec .bench_build/perf "$@"
