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

# `make stress` at its default: the session lifecycle's epoch guard and
# unlock window under many concurrent transitions, beyond what the short
# runs above reach.
echo "== lifecycle stress (race, 2000 operations per worker)"
QOSNEG_STRESS_ITERS=2000 go test -race -count=1 -run 'TestLifecycleStress|TestChaos' ./internal/core

# E20's cells must not depend on timing: each run reruns the matrix and
# compares it with the golden, so a cell that timing decides fails here.
echo "== E20 policy study, 20 runs"
go test -count=20 -run TestE20PolicyStudy ./internal/experiments

# bench/ is a nested module the lines above do not reach; an internal API
# change that stops it compiling fails bench/run.sh, and with it the PR.
echo "== benchmark module (vet, all workloads at 1/200 scale)"
(cd bench && go vet ./... && go test ./...)

# The gates below run without -race, which would distort allocation counts,
# heap sizes and timings.
echo "== telemetry zero-alloc gate (tracing off allocates nothing; a ring tracer adds nothing to a cached negotiate+reject)"
go test -run 'TestNoopTelemetryZeroAlloc' ./internal/telemetry ./internal/core
go test -count=1 -run 'TestTracerOnAllocBound' ./internal/core

echo "== negotiate allocation gates (cache hit: count and bytes, a commitment holding ids only; steps 2-4 on a memoized ranking allocate nothing; cache miss: builds only the offers it keeps, so independent of product size, and bounded in bytes; the top K at product 4 096 allocates within 10% of the bytes it does at product 64; policy off must stay free; a metrics registry adds nothing to a cached negotiate+reject; a step-5 refusal adds nothing, and one the plan finds after planning two choices allocates nothing; an adaptation whose first alternate commits allocates nothing in step 5; a CMFS refusal allocates at most its error, a plan nothing, admitted or refused, and a clean CMFS sweep nothing; Network.Open+Release and Network.Plan on an opened pair allocate nothing, a plan refused on a held path too, the first Open of a pair on a star exactly its 3 route arrays; a violating adaptation scan over 32 playing sessions allocates at most 28 objects and 15 248 B; a ranked offer and a held choice stay four words, a step-5 refusal value at most 136 B, a session inside the 352-byte size class, an offer-cache entry with its two ranking slots inside the 160-byte class, and step 5's plan carry inside the 768-byte size class)"
go test -count=1 -run 'TestCachedNegotiateAllocBound|TestRankingHitAllocatesNothing|TestMissPathAllocBound|TestPolicyOffAllocBound|TestMetricsOnAllocBound|TestRefusalAllocBound|TestPlanRefusalAllocBound|TestAdaptStep5AllocBound|TestSessionSize|TestLastPlanSize|TestHeldChoiceSize|TestCommitFailureSize' ./internal/core
go test -count=1 -run 'TestRankedSize|TestTopKBytesIndependentOfProduct' ./internal/offer
go test -count=1 -run 'TestEntrySize' ./internal/offercache
go test -count=1 -run 'TestAdmissionCostGates|TestPlanAllocationGate' ./internal/cmfs
go test -count=1 -run 'TestOpenAllocatesOnlyThePath|TestPlanAllocatesNothing' ./internal/network
go test -count=1 -run 'TestScanAllocBound' ./internal/adaptation

echo "== wire allocation gate (negotiate+reject over the binary codec, minus the same pair in-process)"
go test -count=1 -run 'TestWireNegotiateAllocBound' ./internal/protocol

echo "== bounded-retention gate (100k cycles, live heap flat)"
go test -count=1 -run 'TestSteadyStateHeapFlat' ./internal/core

echo "== benchmarks (smoke, 1 iteration)"
./scripts/bench.sh -smoke

# Exercise the comparison machinery (parsing, stats, delta table) without
# gating on timings: a 1-iteration run on an arbitrary CI machine is far too
# noisy to hold to the 10% bar `make bench-compare` applies locally.
echo "== bench compare (smoke vs committed baseline)"
./scripts/bench.sh -compare BENCH_BASELINE.json 1 100000 1x >/dev/null

# The Makefile's fuzz target is the one list of fuzz targets.
echo "== fuzz (smoke, 5s per target)"
make fuzz

echo "check: OK"
