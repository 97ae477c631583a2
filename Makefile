# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race bench bench-compare profile cover check experiments golden fmt vet fuzz stress clean

all: build test

# The full CI gate: gofmt, vet, build, race-enabled tests, the nested bench/
# module, the allocation and retention gates, and smoke runs of
# every benchmark and fuzz target.
check:
	./scripts/check.sh

# Smoke-run the fuzz targets (also part of `make check`).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCurveEval$$' -fuzztime 5s ./internal/profile
	$(GO) test -run '^$$' -fuzz '^FuzzServerInput$$' -fuzztime 5s ./internal/protocol
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime 5s ./internal/protocol
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryBody$$' -fuzztime 5s ./internal/protocol
	$(GO) test -run '^$$' -fuzz '^FuzzTableClassify$$' -fuzztime 5s ./internal/cost

# Long concurrency stress on the session lifecycle (the epoch guard and the
# resource ledger), beyond the short gate `make check` runs. Scale the
# per-worker operation count with QOSNEG_STRESS_ITERS.
stress:
	QOSNEG_STRESS_ITERS=$${QOSNEG_STRESS_ITERS:-2000} $(GO) test -race -count=1 -v -run 'TestLifecycleStress|TestChaos' ./internal/core

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Repeated experiment benchmarks; writes BENCH_<date>.json. Use
# `./scripts/bench.sh -smoke` for the 1-iteration CI smoke run.
bench:
	./scripts/bench.sh

# Rerun the suite and diff it against the committed baseline; fails when the
# E6 negotiation benchmarks regress more than 10% on their minimum.
bench-compare:
	./scripts/bench.sh -compare BENCH_BASELINE.json

# CPU and heap profiles of the cached E6 negotiation hot path, an
# every-allocation heap profile of the offer-cache miss path
# (BenchmarkMissPath), and a CPU and an every-allocation profile of one
# session's lifecycle over the binary wire codec (BenchmarkWireLifecycle),
# written to ./profiles/ for `go tool pprof`
# (`-sample_index=alloc_objects` ranks call sites by allocation count).
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench '^BenchmarkE6Negotiate$$' -benchtime 2s \
		-cpuprofile profiles/e6.cpu.pprof -memprofile profiles/e6.mem.pprof \
		-o profiles/e6.test .
	$(GO) test -run '^$$' -bench '^BenchmarkMissPath$$' -benchtime 2000x \
		-memprofile profiles/miss.mem.pprof -memprofilerate 1 \
		-o profiles/miss.test ./internal/offer
	$(GO) test -run '^$$' -bench '^BenchmarkWireLifecycle$$/^codec=binary$$' -benchtime 2s \
		-cpuprofile profiles/wire.cpu.pprof -o profiles/wire.test .
	$(GO) test -run '^$$' -bench '^BenchmarkWireLifecycle$$/^codec=binary$$' -benchtime 2000x \
		-memprofile profiles/wire.mem.pprof -memprofilerate 1 -o profiles/wire.test .
	@echo "profile: wrote profiles/{e6.cpu,e6.mem,miss.mem,wire.cpu,wire.mem}.pprof"

cover:
	$(GO) test -cover ./...

# Regenerate every paper artefact (EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/nodsim -exp all

# Rewrite internal/experiments/testdata/all.golden from a fresh run of every
# experiment; TestGolden compares against it, and its diff is the change's
# experiment diff.
golden:
	$(GO) test ./internal/experiments -run TestGolden -update

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
