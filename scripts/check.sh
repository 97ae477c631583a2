#!/bin/sh
# CI gate: everything a change must pass before merging. `go test` also runs
# internal/archtest, the structural rules (one codec, one clock, ...).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race -shuffle=on ./...

# bench/ is a nested module the lines above do not reach; an internal API
# change that stops it compiling fails bench/run.sh, and with it the PR.
echo "== benchmark module (vet, all workloads at 1/200 scale)"
(cd bench && go vet ./... && go test ./...)

# The gates below run without -race, which would distort allocation counts,
# heap sizes and timings.
echo "== telemetry zero-alloc gate (tracing off allocates nothing; a ring tracer adds nothing to a cached negotiate+reject)"
go test -run 'TestNoopTelemetryZeroAlloc' ./internal/telemetry ./internal/core
go test -count=1 -run 'TestTracerOnAllocBound' ./internal/core

echo "== negotiate allocation gates (cache hit: count and bytes; cache miss: independent of product size; policy off must stay free; a step-5 refusal adds nothing; Network.Open allocates only its path)"
go test -count=1 -run 'TestCachedNegotiateAllocBound|TestMissPathAllocBound|TestPolicyOffAllocBound|TestRefusalAllocBound' ./internal/core
go test -count=1 -run 'TestOpenAllocatesOnlyThePath' ./internal/network

echo "== wire allocation gate (negotiate+reject over the binary codec, minus the same pair in-process)"
go test -count=1 -run 'TestWireNegotiateAllocBound' ./internal/protocol

echo "== bounded-retention gate (100k cycles, live heap flat)"
go test -count=1 -run 'TestSteadyStateHeapFlat' ./internal/core

echo "== selection-policy study gate (E20)"
go test -count=1 -run 'TestE20PolicyStudy' ./internal/experiments

echo "== benchmarks (smoke, 1 iteration)"
./scripts/bench.sh -smoke

# Exercise the comparison machinery (parsing, stats, delta table) without
# gating on timings: a 1-iteration run on an arbitrary CI machine is far too
# noisy to hold to the 10% bar `make bench-compare` applies locally.
echo "== bench compare (smoke vs committed baseline)"
./scripts/bench.sh -compare BENCH_BASELINE.json 1 100000 1x >/dev/null

echo "== fuzz (smoke, 5s per target)"
go test -run '^$' -fuzz '^FuzzCurveEval$' -fuzztime 5s ./internal/profile
go test -run '^$' -fuzz '^FuzzServerInput$' -fuzztime 5s ./internal/protocol
go test -run '^$' -fuzz '^FuzzFrameDecode$' -fuzztime 5s ./internal/protocol
go test -run '^$' -fuzz '^FuzzBinaryBody$' -fuzztime 5s ./internal/protocol
go test -run '^$' -fuzz '^FuzzTableClassify$' -fuzztime 5s ./internal/cost

echo "check: OK"
