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

echo "== one wire codec"
if grep -rnE 'CodecJSON|exchangeJSON|watchJSON|\.[A-Za-z]+\("codec"' --include='*.go' --exclude='*_test.go' --exclude-dir=bench .; then
	echo "check: binary/2 is the only wire codec; JSON is the hello line alone" >&2
	exit 1
fi
# The hello line is the only JSON line: only the two ends of the handshake
# may read or write one.
stray=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec awk '
	/^func / { fn = $0 }
	/(write|read)EnvelopeLine\(/ && !/^func / &&
	fn !~ /^func \(s \*Server\) handle\(/ && fn !~ /^func \(c \*Client\) handshake\(/ {
		print FILENAME ":" FNR ": " $0
	}' {} +)
if [ -n "$stray" ]; then
	echo "$stray"
	echo "check: a JSON envelope line outside Server.handle and Client.handshake" >&2
	exit 1
fi

echo "== one negotiate RPC"
if grep -rnE 'BatchNegotiate|MsgBatch|BatchItem|batch-negotiate|TimeoutMs' --include='*.go' --exclude='*_test.go' --exclude-dir=bench .; then
	echo "check: one request negotiates one document; a batch is concurrent Negotiate calls on one connection, canceled by CANCEL frames" >&2
	exit 1
fi

echo "== one breaker table"
if grep -rnE 'ApplyQuarantine|PublishQuarantine|Breakers' --include='*.go' --exclude='*_test.go' --exclude-dir=bench .; then
	echo "check: a fleet's shards share one server table; a quarantine is one fact, never copied from shard to shard" >&2
	exit 1
fi

echo "== no unset knobs"
if grep -rnE '\bThompson\b|\bsplitmix\b|SetOccupancy|MaxOccupancy|HintDecay|MinRetryAfter|MaxRetryAfter|AdaptationPolicy|OrderTargets|OrderCommits|WithOptions\(|policy-seed|\.topK\(\)' --include='*.go' --exclude='*_test.go' --exclude-dir=bench .; then
	echo "check: a setting only its default ever reaches is a constant; one core.Policy orders step 5 and adaptation" >&2
	exit 1
fi

echo "== one clock"
if grep -rnE 'time\.(Now|Since|Until|AfterFunc|NewTicker|NewTimer|After|Tick)\b' --include='*.go' --exclude='*_test.go' \
	internal/core internal/shard internal/admission internal/adaptation internal/session \
	internal/protocol/server.go internal/protocol/playout.go; then
	echo "check: time enters through internal/clock; read the component's clock.Clock, not the time package" >&2
	exit 1
fi
if grep -rn 'time\.NewTicker' --include='*.go' --exclude='*_test.go' --exclude-dir=bench .; then
	echo "check: playout ticks on a clock.Clock in session.Player, not on a ticker" >&2
	exit 1
fi
# A function that both advances and completes sessions is a playout loop;
# session.Player is the one.
loops=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './internal/session/*' -exec awk '
	function flush() { if (adv && cmp) print file ": " fn; adv = cmp = 0 }
	FNR == 1 { flush(); file = FILENAME }
	/^func / { flush(); fn = $0 }
	/\.Advance\(/ && !/^func / { adv = 1 }
	/\.Complete\(/ && !/^func / { cmp = 1 }
	END { flush() }' {} +)
if [ -n "$loops" ]; then
	echo "$loops"
	echo "check: a second Advance/Complete playout loop outside internal/session; drive sessions with session.Player" >&2
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

echo "== sharded shared-state gate (race)"
go test -race -count=1 -run 'TestFleetSharedState|TestCrossShardQuarantinePropagation|TestConcurrentCrossShardTrips|TestFleetBreakerMatchesOneShard' ./internal/shard
go test -race -count=1 -run 'TestBanditFleetPropagation' ./internal/policy

echo "== overload shed gate (race, short)"
go test -race -short -count=1 -run 'TestOverloadShedBurst|TestServeThreadsAdmission' .

echo "== wire gate (race: a client inside its stream cap is never shed for it; old peers refused at the handshake; a canceled handshake leaves no connection; a state-changing RPC is never retried)"
go test -race -count=1 -run 'TestStreamSlotFreedBeforeFIN|TestStreamCapShedsInsteadOfStalling|TestOldPeersRefusedAtHandshake|TestBinaryOnlyClientRefusesLegacyServer|TestDialContextHandshakeDeadline|TestNewClientHandshakeCancel|TestNonIdempotentNotRetried' ./internal/protocol

echo "== step-5 critical section gate (race: concurrent connects on one bottleneck never overcommit it; the ledger balances)"
go test -race -count=1 -run 'TestConcurrentConnectCloseNeverOvercommits' ./internal/transport

echo "== telemetry zero-alloc gate (tracing off allocates nothing; a ring tracer adds nothing to a cached negotiate+reject)"
go test -run 'TestNoopTelemetryZeroAlloc' ./internal/telemetry ./internal/core
go test -count=1 -run 'TestTracerOnAllocBound' ./internal/core

echo "== negotiate allocation gates (cache hit: count and bytes; cache miss: independent of product size; policy off must stay free; a step-5 refusal adds nothing; Network.Open allocates only its path)"
go test -count=1 -run 'TestCachedNegotiateAllocBound|TestMissPathAllocBound|TestPolicyOffAllocBound|TestRefusalAllocBound' ./internal/core
go test -count=1 -run 'TestOpenAllocatesOnlyThePath' ./internal/network

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
