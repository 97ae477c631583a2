package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"qosneg/internal/cmfs"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/offer"
	"qosneg/internal/qos"
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

	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
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

	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
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
// path: with no Tracer and no Metrics registry, the manager's push series
// are nil and recording through them — as every call site does, unguarded —
// must allocate nothing. (Its counted facts are atomics the registry reads
// at Snapshot time, so they cost no recording at all.) The call sites that render a detail string
// (commit-failed, exhausted, quarantine, stale-install) are all gated on
// Options.Tracer, so this test plus the guards is the allocation proof for
// the whole trace surface.
func TestNoopTelemetryZeroAlloc(t *testing.T) {
	b := newBed(t, cmfs.DefaultConfig(), 0)
	m := b.man
	if m.opts.Tracer != nil || m.opts.Metrics != nil || m.met.negSeconds != nil {
		t.Fatalf("bed unexpectedly has telemetry enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.span(telemetry.Event{Step: telemetry.StepCommitment})
		tm := m.stepTimer()
		tm.lap(telemetry.StepLocalNegotiation)
		tm.lap(telemetry.StepClassification)
		m.met.commitSkips.Inc()
		m.met.negSeconds.Observe(time.Millisecond)
		m.met.steps[telemetry.StepCommitment].Observe(time.Millisecond)
		m.met.policyReorders.With("negotiate").Inc()
		m.met.policyChosenRank(3)
		m.met.policyWasted.Add(1)
	})
	if allocs != 0 {
		t.Fatalf("disabled-telemetry hot path allocated %.1f per run, want 0", allocs)
	}
}

// cachedCycleAllocs measures what one cache-hot negotiate-and-reject cycle on
// the bed allocates.
func cachedCycleAllocs(t *testing.T, b *bed) testing.BenchmarkResult {
	t.Helper()
	u := tvProfile()
	cycle := func() {
		res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", u)
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
	return res
}

// TestCachedNegotiateAllocBound pins what a full cached negotiate-and-reject
// cycle allocates (telemetry disabled, candidate set and ranking memoized),
// in count and in bytes. A cycle makes 3: the session, the user offer,
// whose sections point at the chosen variants' own QoS, and the
// commitment's hold array. The count bound is exactly that, which a user
// offer boxing a copy of each section (2 more), a ranked list copied out of
// the shared ranking, a re-materialized acceptable/feasible partition, a
// profile section boxed per candidate, an eager fmt.Sprintf call site, a
// step-5 path search that allocates, a retired session joining a key the
// memo already rendered, or a hot entry whose ranking is scored again
// instead of served from its memo (5 more) overshoots. The byte bound is
// the measured 704 bytes plus 8%; a commitment that copies each choice's
// reservation and connection (160 bytes a choice) instead of their ids
// overshoots it.
func TestCachedNegotiateAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short race beds")
	}
	res := cachedCycleAllocs(t, defaultBed(t))
	const maxAllocs, maxBytes = 3, 760
	if res.AllocsPerOp() > maxAllocs || res.AllocedBytesPerOp() > maxBytes {
		t.Fatalf("cached negotiate+reject allocated %d objects, %d bytes per cycle, want <= %d and <= %d",
			res.AllocsPerOp(), res.AllocedBytesPerOp(), maxAllocs, maxBytes)
	}
	t.Logf("cached negotiate+reject: %d allocs, %d bytes per cycle", res.AllocsPerOp(), res.AllocedBytesPerOp())
}

// TestRankingHitAllocatesNothing pins that steps 2–4 on a hot entry whose
// ranking slot holds the profile's classification — the machine
// fingerprint, the profile's rank digest, the entry lookup — allocate
// nothing: the memoized ranking is handed out as it is.
func TestRankingHitAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short race beds")
	}
	b := defaultBed(t)
	ctx := context.Background()
	u := tvProfile()
	for i := 0; i < 2; i++ { // a miss stores the entry, its first hit fills the slot
		res, err := b.man.NegotiateContext(ctx, b.mach, "news-1", u)
		if err != nil || res.Session == nil {
			t.Fatalf("warm-up: %v (%+v)", err, res.Status)
		}
		if err := b.man.Reject(res.Session.ID); err != nil {
			t.Fatal(err)
		}
	}
	doc, docGen, err := b.man.registry.Snapshot("news-1")
	if err != nil {
		t.Fatal(err)
	}
	exclude, _, exclHash := b.man.servers.exclusion(b.man.clk)
	timer := b.man.stepTimer()
	var ranked offer.Classified
	allocs := testing.AllocsPerRun(100, func() {
		ranked, err = b.man.classify(ctx, &doc, docGen, &b.mach, &u, exclude, exclHash, &timer)
	})
	if err != nil {
		t.Fatal(err)
	}
	if memo := memoFor(t, b, u).Ranked; !sameArray(memo.All(), ranked.All()) {
		t.Fatal("the measured classification was not served from the memo")
	}
	if allocs != 0 {
		t.Fatalf("steps 2-4 on a memo hit allocated %.1f objects, want 0", allocs)
	}
}

// TestTracerOnAllocBound pins that installing a tracer costs the cached
// negotiate-and-reject cycle no allocation: a ring stores events by value,
// and on the success path the manager hands it only strings that already
// exist (the cached offer key, the status name). A string rendered for a
// sink nobody installed — or rendered whether or not the decision needs one —
// shows here as tracer-on allocating more than tracer-off.
func TestTracerOnAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short race beds")
	}
	off := cachedCycleAllocs(t, defaultBed(t))
	on := cachedCycleAllocs(t, metricsBed(t, nil, telemetry.NewRing(256)))
	if on.AllocsPerOp() > off.AllocsPerOp() {
		t.Fatalf("cached negotiate+reject allocated %d objects per cycle with a ring tracer, %d without: the tracer must not add any",
			on.AllocsPerOp(), off.AllocsPerOp())
	}
	t.Logf("cached negotiate+reject: %d allocs with a ring tracer, %d without", on.AllocsPerOp(), off.AllocsPerOp())
}

// TestMetricsOnAllocBound pins that a metrics registry costs the cached
// negotiate-and-reject cycle no allocation: the outcome and offer-cache
// facts are the manager's own atomics, read at Snapshot time, and the push
// series are resolved at construction. A per-event series lookup that
// allocates, or a second count kept in the registry that does, shows here
// as registry-on allocating more than registry-off.
func TestMetricsOnAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short race beds")
	}
	off := cachedCycleAllocs(t, defaultBed(t))
	on := cachedCycleAllocs(t, metricsBed(t, telemetry.NewRegistry(), nil))
	if on.AllocsPerOp() > off.AllocsPerOp() {
		t.Fatalf("cached negotiate+reject allocated %d objects per cycle with a registry, %d without: metrics must not add any",
			on.AllocsPerOp(), off.AllocsPerOp())
	}
	t.Logf("cached negotiate+reject: %d allocs with a registry, %d without", on.AllocsPerOp(), off.AllocsPerOp())
}

// missDoc is a video × audio × caption document with side variants each, so
// its offer product is side³.
func missDoc(id media.DocumentID, side int) media.Document {
	dur := time.Minute
	server := func(j int) media.ServerID { return media.ServerID(fmt.Sprintf("server-%d", 1+j%2)) }
	video := media.Monomedia{ID: "video", Kind: qos.Video, Duration: dur}
	audio := media.Monomedia{ID: "audio", Kind: qos.Audio, Duration: dur}
	text := media.Monomedia{ID: "caption", Kind: qos.Text}
	for j := 0; j < side; j++ {
		video.Variants = append(video.Variants, media.VideoVariant(
			media.VariantID(fmt.Sprintf("video-v%d", j+1)), server(j), media.MPEG1,
			qos.VideoQoS{Color: qos.ColorQualities()[j%4], FrameRate: 25 - 2*j, Resolution: qos.TVResolution}, dur))
		grade := qos.CDQuality
		if j%2 == 1 {
			grade = qos.TelephoneQuality
		}
		audio.Variants = append(audio.Variants, media.AudioVariant(
			media.VariantID(fmt.Sprintf("audio-v%d", j+1)), server(j+1), media.MPEG1Audio,
			qos.AudioQoS{Grade: grade, Language: qos.English}, dur))
		text.Variants = append(text.Variants, media.TextVariant(
			media.VariantID(fmt.Sprintf("caption-v%d", j+1)), server(j), qos.English, 4096))
	}
	return media.Document{ID: id, Title: "Miss", CopyrightFee: 100, Monomedia: []media.Monomedia{video, audio, text}}
}

// TestMissPathAllocBound pins what a negotiate-and-reject cycle allocates
// when the offer cache misses: every cycle takes a document it has not seen,
// so steps 2–4 filter afresh and classify, writing only the offers the top
// K keeps into slots of its own. A 216-offer document may cost at most 8
// allocations more than an 8-offer one — per-offer allocation anywhere on
// the path costs hundreds — and the absolute bound is the measured 13 plus
// 15%. The bytes of a cycle at product 216 are bounded too, at the measured
// 24 962 plus 10%: building the whole product, as the offer cache's
// memoized product once did, took 66 594, and choices that copied their
// variant instead of pointing at the candidate's took 130 203.
func TestMissPathAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short race beds")
	}
	const runs = 400
	measure := func(side int) (allocs, bytes float64) {
		b := defaultBed(t)
		u := tvProfile()
		ids := make([]media.DocumentID, runs+1) // one warm-up cycle, as testing.AllocsPerRun runs
		for i := range ids {
			ids[i] = media.DocumentID(fmt.Sprintf("miss-%d", i))
			if err := b.reg.Add(missDoc(ids[i], side)); err != nil {
				t.Fatal(err)
			}
		}
		// Warm the lazy substrate (path caches, pooled collectors) on the
		// bed's own article, not on a measured document.
		for i := 0; i < 8; i++ {
			res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", u)
			if err != nil || res.Session == nil {
				t.Fatalf("warm-up: %v (%+v)", err, res.Status)
			}
			if err := b.man.Reject(res.Session.ID); err != nil {
				t.Fatal(err)
			}
		}
		missesBefore := b.man.Stats().OfferCacheMisses
		cycle := func(id media.DocumentID) {
			res, err := b.man.NegotiateContext(context.Background(), b.mach, id, u)
			if err != nil || res.Session == nil {
				t.Fatalf("negotiate: %v (%+v)", err, res.Status)
			}
			if got, want := len(res.Session.Ranked()), min(side*side*side, DefaultTopK); got != want {
				t.Fatalf("ranked %d offers of a product of %d, want %d", got, side*side*side, want)
			}
			if err := b.man.Reject(res.Session.ID); err != nil {
				t.Fatal(err)
			}
		}
		// testing.AllocsPerRun's method, keeping TotalAlloc as well.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		cycle(ids[0])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, id := range ids[1:] {
			cycle(id)
		}
		runtime.ReadMemStats(&after)
		allocs = float64((after.Mallocs - before.Mallocs) / runs)
		bytes = float64(after.TotalAlloc-before.TotalAlloc) / runs
		if got := b.man.Stats().OfferCacheMisses; got < missesBefore+runs {
			t.Fatalf("measured loop did not miss every time: misses %d -> %d over %d cycles", missesBefore, got, runs)
		}
		return allocs, bytes
	}
	small, _ := measure(2)
	large, largeBytes := measure(6)
	t.Logf("miss negotiate+reject: %.0f allocs at product 8, %.0f allocs and %.0f bytes at product 216", small, large, largeBytes)
	const maxGrowth, maxAllocs, maxBytes = 8, 15, 27500
	if large-small > maxGrowth {
		t.Errorf("product 216 allocates %.0f per cycle, product 8 %.0f: grows by more than %d with the product", large, small, maxGrowth)
	}
	if large > maxAllocs {
		t.Errorf("miss negotiate+reject allocated %.0f objects per cycle at product 216, want <= %d", large, maxAllocs)
	}
	if largeBytes > maxBytes {
		t.Errorf("miss negotiate+reject allocated %.0f bytes per cycle at product 216, want <= %d", largeBytes, maxBytes)
	}
}
