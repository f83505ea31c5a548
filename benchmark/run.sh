#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json "command"): builds the harness
# and hands it the arguments. Everything the build writes, Go's build cache
# included, stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p "$root/.bench_build/bin"
go build -C "$root/benchmark" -o "$root/.bench_build/bin/negbench" .
cd "$root"
exec "$root/.bench_build/bin/negbench" "$@"
