#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark inside the checkout, then run
# it with the caller's arguments (--workload W --seed N --seconds S --trace 0|1).
# Run from the repository root; everything it writes stays under the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/qosbench" .)
exec "$build/qosbench" -out "$here/out" "$@"
