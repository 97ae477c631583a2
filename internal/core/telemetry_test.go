package core

import (
	"testing"
	"time"

	"qosneg/internal/cmfs"
	"qosneg/internal/cost"
	"qosneg/internal/network"
	"qosneg/internal/telemetry"
	"qosneg/internal/transport"
)

// metricsBed rebuilds the standard bed's manager with telemetry installed.
func metricsBed(t *testing.T, reg *telemetry.Registry, tr telemetry.Tracer) *bed {
	t.Helper()
	b := newBed(t, cmfs.DefaultConfig(), 0)
	opts := DefaultOptions()
	opts.Metrics = reg
	opts.Tracer = tr
	man := NewManager(b.reg, transport.New(b.net, 3), cost.DefaultPricing(), opts)
	for id, s := range b.servers {
		man.AddServer(s, network.NodeID(id))
	}
	b.man = man
	return b
}

func TestNegotiationMetricsRecorded(t *testing.T) {
	reg := telemetry.NewRegistry()
	ring := telemetry.NewRing(128)
	b := metricsBed(t, reg, ring)

	res, err := b.man.Negotiate(b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Succeeded {
		t.Fatalf("status = %v, want SUCCEEDED", res.Status)
	}
	if err := b.man.Confirm(res.Session.ID); err != nil {
		t.Fatal(err)
	}
	if err := b.man.Complete(res.Session.ID); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if got := s.CounterValue(MetricNegotiations, Succeeded.String()); got != 1 {
		t.Fatalf("negotiations{SUCCEEDED} = %d, want 1", got)
	}
	e2e, ok := s.Find(MetricNegotiationTime, "")
	if !ok || e2e.Count != 1 {
		t.Fatalf("end-to-end histogram = %+v ok=%v, want one observation", e2e, ok)
	}
	for _, step := range []telemetry.Step{
		telemetry.StepLocalNegotiation, telemetry.StepClassification,
		telemetry.StepCommitment, telemetry.StepConfirmation,
	} {
		h, ok := s.Find(MetricStepTime, step.String())
		if !ok || h.Count != 1 {
			t.Fatalf("step %s histogram = %+v ok=%v, want one observation", step, h, ok)
		}
	}
	if got := s.CounterValue(MetricRevenue, ""); got == 0 {
		t.Fatalf("revenue = 0 after Complete, want > 0")
	}

	// The ring saw the timed spans plus the commitment outcome.
	var steps []telemetry.Step
	for _, e := range ring.Events() {
		steps = append(steps, e.Step)
	}
	want := map[telemetry.Step]bool{}
	for _, st := range steps {
		want[st] = true
	}
	for _, st := range []telemetry.Step{
		telemetry.StepLocalNegotiation, telemetry.StepClassification,
		telemetry.StepCommitment, telemetry.StepConfirmation,
	} {
		if !want[st] {
			t.Fatalf("ring missing %s span; got %v", st, steps)
		}
	}
}

func TestBreakerMetricsRecorded(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := metricsBed(t, reg, nil)
	b.man.opts.Health = HealthPolicy{FailureThreshold: 1, Cooldown: time.Minute}
	flaky := flakify(b)
	for _, fs := range flaky {
		fs.setDown(true)
	}

	res, err := b.man.Negotiate(b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != FailedTryLater {
		t.Fatalf("status = %v, want FAILEDTRYLATER", res.Status)
	}

	s := reg.Snapshot()
	if got := s.CounterValue(MetricNegotiations, FailedTryLater.String()); got != 1 {
		t.Fatalf("negotiations{FAILEDTRYLATER} = %d, want 1", got)
	}
	if got := s.CounterValue(MetricCommitFailures, CauseServerDown.String()); got == 0 {
		t.Fatalf("commit_failures{server-down} = 0, want > 0")
	}
	if got := s.CounterValue(MetricQuarantines, ""); got == 0 {
		t.Fatalf("quarantines = 0, want > 0")
	}
	quarantined := false
	for _, g := range s.Gauges {
		if g.Name == MetricQuarantined && g.Value > 0 {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("no positive %s gauge after breaker trip", MetricQuarantined)
	}
}

// TestNoopTelemetryZeroAlloc pins the disabled-telemetry negotiation hot
// path: with no Trace callback, no Tracer and no Metrics registry, the
// manager's instrumentation helpers must allocate nothing. The fmt.Sprintf
// call sites this PR guarded (skip-dead, commit-attempt, commit-failed,
// exhausted, quarantine) are all gated on tracing(), so this test plus the
// guards is the allocation proof for the whole trace surface.
func TestNoopTelemetryZeroAlloc(t *testing.T) {
	b := newBed(t, cmfs.DefaultConfig(), 0)
	m := b.man
	if m.tracing() {
		t.Fatalf("bed unexpectedly has tracing enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if m.tracing() {
			t.Errorf("tracing() flipped")
		}
		m.trace("commit-attempt", "", "")
		m.span(telemetry.Event{Step: telemetry.StepCommitment})
		tm := m.stepTimer()
		tm.lap(telemetry.StepLocalNegotiation)
		tm.lap(telemetry.StepClassification)
		m.met.outcome(Succeeded)
		m.met.commitFailure(CauseCapacity)
		m.met.skip()
		m.met.quarantineTrip()
		m.met.adapt(true)
		m.met.addRevenue(100)
		m.met.observeNegotiation(time.Millisecond)
		m.met.step(telemetry.StepCommitment).Observe(time.Millisecond)
		m.met.serverHealthGauges("server-1", 0, time.Time{})
	})
	if allocs != 0 {
		t.Fatalf("disabled-telemetry hot path allocated %.1f per run, want 0", allocs)
	}
}

// TestCachedNegotiateAllocBound pins what a full cached negotiate-and-reject
// cycle allocates (telemetry disabled, candidate set memoized), in count and
// in bytes. The bounds sit just above the measured 48 allocations and 3.7 KB:
// a ranked list copied out of the shared product, a re-materialized
// acceptable/feasible partition or an eager fmt.Sprintf call site each
// overshoot them.
func TestCachedNegotiateAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short race beds")
	}
	b := defaultBed(t)
	u := tvProfile()
	cycle := func() {
		res, err := b.man.Negotiate(b.mach, "news-1", u)
		if err != nil || res.Session == nil {
			t.Fatalf("negotiate: %v (%+v)", err, res.Status)
		}
		if err := b.man.Reject(res.Session.ID); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the cache and the lazy substrate (path caches, tombstone ring).
	for i := 0; i < 2*TombstoneRing; i++ {
		cycle()
	}
	hitsBefore := b.man.Stats().OfferCacheHits
	res := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			cycle()
		}
	})
	if got := b.man.Stats().OfferCacheHits; got < hitsBefore+res.N {
		t.Fatalf("measured loop was not cache-hot: hits %d -> %d over %d cycles", hitsBefore, got, res.N)
	}
	const maxAllocs, maxBytes = 56, 4500
	if res.AllocsPerOp() > maxAllocs || res.AllocedBytesPerOp() > maxBytes {
		t.Fatalf("cached negotiate+reject allocated %d objects, %d bytes per cycle, want <= %d and <= %d",
			res.AllocsPerOp(), res.AllocedBytesPerOp(), maxAllocs, maxBytes)
	}
	t.Logf("cached negotiate+reject: %d allocs, %d bytes per cycle", res.AllocsPerOp(), res.AllocedBytesPerOp())
}
