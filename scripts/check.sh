#!/bin/sh
# CI gate: everything a change must pass before merging.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== no deprecated API twins"
if grep -rn 'Deprecated:' --include='*.go' .; then
	echo "check: a Deprecated: marker means two ways to make one call; delete the old one" >&2
	exit 1
fi

echo "== one way to assemble a system"
if grep -rn 'core\.NewManager(' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=shard .; then
	echo "check: only internal/shard builds managers; assemble through testbed.New or qosneg.New, not a second way" >&2
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

echo "== lifecycle stress gate (short)"
go test -race -short -count=1 -run 'TestLifecycleStress' ./internal/core

echo "== sharded lifecycle stress gate (race, short)"
go test -race -short -count=1 -run 'TestShardLifecycleStress' ./internal/shard

echo "== overload shed gate (race, short)"
go test -race -short -count=1 -run 'TestOverloadShedBurst|TestServeThreadsAdmission' .

echo "== wire stream-slot gate (race: a client inside its stream cap is never shed for it)"
go test -race -count=1 -run 'TestStreamSlotFreedBeforeFIN|TestStreamCapShedsInsteadOfStalling' ./internal/protocol

echo "== telemetry zero-alloc gate (tracing off allocates nothing; a ring tracer adds nothing to a cached negotiate+reject)"
go test -run 'TestNoopTelemetryZeroAlloc' ./internal/telemetry ./internal/core
go test -count=1 -run 'TestTracerOnAllocBound' ./internal/core

echo "== negotiate allocation gates (cache hit: count and bytes; cache miss: independent of product size; policy off must stay free)"
go test -count=1 -run 'TestCachedNegotiateAllocBound|TestMissPathAllocBound|TestPolicyOffAllocBound' ./internal/core

echo "== wire allocation gate (negotiate+reject over the binary codec, minus the same pair in-process)"
go test -count=1 -run 'TestWireNegotiateAllocBound' ./internal/protocol

echo "== bounded-retention gate (100k cycles, live heap flat; retired-session answers)"
go test -count=1 -run 'TestSteadyStateHeapFlat' ./internal/core
go test -race -count=1 -run 'TestRetiredSession|TestWatchSurvivesEviction' ./internal/shard ./internal/protocol ./cmd/qosctl

echo "== policy equivalence gate (race)"
go test -race -count=1 -run 'TestPolicyOffEquivalence|TestPolicyReorderedFailover' ./internal/policy

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
