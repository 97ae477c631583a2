package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}

	// A gauge is a collector: the registry reads its owner's value.
	depth := int64(7)
	r.Collect(Collector{Name: "g", Help: "a gauge", Gauge: true, Owner: &depth,
		Read: func(emit func(string, int64)) { emit("", depth) }})
	depth -= 3
	if g := r.Snapshot().Gauges; len(g) != 1 || g[0].Name != "g" || g[0].Value != 4 {
		t.Fatalf("gauges = %+v, want g = 4", g)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on kind mismatch")
		}
	}()
	r.Collect(Collector{Name: "m", Gauge: true, Read: func(func(string, int64)) {}})
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.001, 0.01, 0.1})
	for i := 0; i < 10; i++ {
		h.Observe(500 * time.Microsecond) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond) // second bucket
	}
	h.Observe(2 * time.Second) // +Inf bucket

	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(s.Histograms))
	}
	p := s.Histograms[0]
	if p.Count != 21 {
		t.Fatalf("count = %d, want 21", p.Count)
	}
	wantCum := []uint64{10, 20, 20}
	for i, b := range p.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket[%d] = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	// Median falls in the second bucket (1ms..10ms); interpolated ≈ 1.45ms.
	if q := p.Quantile(0.5); q < time.Millisecond || q > 10*time.Millisecond {
		t.Fatalf("p50 = %v, want within (1ms, 10ms)", q)
	}
	// p99 lands in the +Inf bucket and clamps to the last finite bound.
	if q := p.Quantile(0.99); q != 100*time.Millisecond {
		t.Fatalf("p99 = %v, want clamp to 100ms", q)
	}
	if q := (HistogramPoint{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

func TestFamilies(t *testing.T) {
	r := NewRegistry()
	cf := r.CounterFamily("req_total", "requests", "kind")
	cf.With("a").Add(2)
	cf.With("b").Inc()
	if cf.With("a") != cf.With("a") {
		t.Fatalf("family series not stable")
	}
	hf := r.HistogramFamily("op_seconds", "op latency", "op", []float64{0.01, 0.1})
	hf.With("read").Observe(5 * time.Millisecond)

	s := r.Snapshot()
	if got := s.CounterValue("req_total", ""); got != 3 {
		t.Fatalf("summed counters = %d, want 3", got)
	}
	if got := s.CounterValue("req_total", "a"); got != 2 {
		t.Fatalf("label-a counter = %d, want 2", got)
	}
	if _, ok := s.Find("op_seconds", "read"); !ok {
		t.Fatalf("Find(op_seconds, read) missed")
	}
	if _, ok := s.Find("op_seconds", "write"); ok {
		t.Fatalf("Find(op_seconds, write) matched unexpectedly")
	}
}

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "jobs processed").Add(3)
	r.Collect(Collector{Name: "workers", Help: "live workers", Gauge: true,
		Read: func(emit func(string, int64)) { emit("", 2) }})
	r.CounterFamily("outcomes_total", "by status", "status").With("ok").Inc()
	r.Histogram("lat_seconds", "latency", []float64{0.01}).Observe(time.Millisecond)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# HELP jobs_total jobs processed",
		"# TYPE jobs_total counter",
		"jobs_total 3",
		"# TYPE workers gauge",
		"workers 2",
		`outcomes_total{status="ok"} 1`,
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="+Inf"} 1`,
		"lat_seconds_sum 0.001",
		"lat_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, body)
		}
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Inc()
	r.Histogram("h_seconds", "", []float64{0.1}).Observe(time.Millisecond)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Counters) != 1 || back.Counters[0].Value != 1 {
		t.Fatalf("round-trip counters = %+v", back.Counters)
	}
	if len(back.Histograms) != 1 || back.Histograms[0].Count != 1 {
		t.Fatalf("round-trip histograms = %+v", back.Histograms)
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "").Inc()
	r.PublishExpvar("telemetry_test_snapshot")
	r.PublishExpvar("telemetry_test_snapshot") // must not panic
	v := expvar.Get("telemetry_test_snapshot")
	if v == nil {
		t.Fatalf("expvar not published")
	}
	if !strings.Contains(v.String(), "x_total") {
		t.Fatalf("expvar body missing counter: %s", v.String())
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Trace(Event{Step: StepCommitment, Detail: string(rune('0' + i))})
	}
	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("ring kept %d events, want 3", len(ev))
	}
	if ev[0].Detail != "3" || ev[2].Detail != "5" {
		t.Fatalf("ring order = %v..%v, want 3..5", ev[0].Detail, ev[2].Detail)
	}
	half := NewRing(4)
	half.Trace(Event{Step: StepRedial})
	if got := half.Events(); len(got) != 1 || got[0].Step != StepRedial {
		t.Fatalf("partial ring events = %+v", got)
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, (*Ring)(nil)) != nil {
		t.Fatalf("Multi of nothing should be nil")
	}
	a, b := NewRing(2), NewRing(2)
	m := Multi(nil, a, b)
	m.Trace(Event{Step: StepQuarantine, Server: "s1"})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatalf("multi did not fan out")
	}
	if Multi(a) != Tracer(a) {
		t.Fatalf("single-tracer Multi should unwrap")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Step: StepCommitment, Offer: "video", Server: "s1", Status: "SUCCEEDED", Elapsed: time.Millisecond, Detail: "OIF=0.5"}
	s := e.String()
	for _, want := range []string{"commitment", "offer=video", "server=s1", "status=SUCCEEDED", "elapsed=1ms", "OIF=0.5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Event.String() = %q missing %q", s, want)
		}
	}
	if got := Step(200).String(); got != "unknown" {
		t.Fatalf("unknown step = %q", got)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	h := r.Histogram("h_seconds", "", LatencyBuckets)
	f := r.CounterFamily("f_total", "", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(time.Duration(j) * time.Microsecond)
				f.With([]string{"a", "b"}[i%2]).Inc()
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	s := r.Snapshot()
	if got := s.CounterValue("f_total", ""); got != 8000 {
		t.Fatalf("family total = %d, want 8000", got)
	}
}

// TestNoopTelemetryZeroAlloc pins the disabled state: a nil registry, the
// nil metrics it hands out, nil families, nil rings, collectors registered
// on it — every operation on them must allocate nothing. scripts/check.sh
// gates on this test.
func TestNoopTelemetryZeroAlloc(t *testing.T) {
	var (
		c  = Noop.Counter("c_total", "")
		h  = Noop.Histogram("h_seconds", "", LatencyBuckets)
		cf = Noop.CounterFamily("cf_total", "", "k")
		hf = Noop.HistogramFamily("hf_seconds", "", "k", LatencyBuckets)
		rg *Ring
		g  = Collector{Name: "g", Gauge: true, Owner: rg, Read: func(emit func(string, int64)) { emit("", 1) }}
	)
	if c != nil || h != nil || cf != nil || hf != nil {
		t.Fatalf("nil registry must hand out nil metrics")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		_ = c.Value()
		Noop.Collect(g)
		h.Observe(time.Millisecond)
		_ = h.Count()
		cf.With("a").Inc()
		hf.With("a").Observe(time.Millisecond)
		rg.Trace(Event{Step: StepCommitment})
		_ = Noop.Snapshot()
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocated %.1f per run, want 0", allocs)
	}
}

func TestEnabledHistogramObserveZeroAlloc(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", LatencyBuckets)
	c := r.Counter("c_total", "")
	cf := r.CounterFamily("cf_total", "", "k")
	series := cf.With("steady") // hot paths cache the series
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(750 * time.Microsecond)
		c.Inc()
		series.Inc()
	})
	if allocs != 0 {
		t.Fatalf("enabled hot path allocated %.1f per run, want 0", allocs)
	}
}

// TestCollectors: a collector's series are read at Snapshot time, several
// owners of one name sum per label value, a second registration by the same
// owner is ignored, and the exposition renders collectors like the push
// metrics they replace.
func TestCollectors(t *testing.T) {
	r := NewRegistry()
	type shard struct{ ok, failed int64 }
	a, b := &shard{ok: 2}, &shard{ok: 1, failed: 4}
	for _, o := range []*shard{a, b, a} {
		o := o
		r.Collect(Collector{Name: "outcomes_total", Help: "Outcomes.", Label: "result", Owner: o,
			Read: func(emit func(string, int64)) {
				emit("ok", o.ok)
				if o.failed > 0 {
					emit("failed", o.failed)
				}
			}})
	}
	r.Collect(Collector{Name: "open", Help: "Open things.", Gauge: true, Owner: a,
		Read: func(emit func(string, int64)) { emit("", a.ok-a.failed) }})
	a.ok = 5
	s := r.Snapshot()
	if got := s.CounterValue("outcomes_total", "ok"); got != 6 {
		t.Errorf("outcomes_total{result=ok} = %d, want 6 (5 + 1, read at Snapshot)", got)
	}
	if got := s.CounterValue("outcomes_total", "failed"); got != 4 {
		t.Errorf("outcomes_total{result=failed} = %d, want 4", got)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 5 || s.Gauges[0].Labels != nil {
		t.Errorf("gauges = %+v, want one unlabeled open = 5", s.Gauges)
	}
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# HELP outcomes_total Outcomes.\n# TYPE outcomes_total counter\n" +
		"outcomes_total{result=\"failed\"} 4\noutcomes_total{result=\"ok\"} 6\n" +
		"# HELP open Open things.\n# TYPE open gauge\nopen 5\n"
	if buf.String() != want {
		t.Errorf("exposition =\n%s\nwant\n%s", buf.String(), want)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on kind mismatch")
		}
	}()
	r.Counter("open", "")
}

// TestSnapshotAllocsFlatInUnlabelledCollectors: a snapshot's allocations do
// not grow with the number of unlabelled collectors, so a registry read on
// every metrics request costs the same however many owners it reads. Each
// collector is one point, written into slices sized once, and every
// collector's label values are sorted in one scratch slice.
func TestSnapshotAllocsFlatInUnlabelledCollectors(t *testing.T) {
	snapshotAllocs := func(n int) float64 {
		reg := NewRegistry()
		for i := range n {
			owner := new(int)
			*owner = i
			reg.Collect(Collector{Name: fmt.Sprintf("c%d_total", i), Help: "A count.", Owner: owner,
				Read: func(emit func(string, int64)) { emit("", int64(*owner)) }})
			reg.Collect(Collector{Name: fmt.Sprintf("g%d", i), Help: "A level.", Gauge: true, Owner: owner,
				Read: func(emit func(string, int64)) { emit("", int64(*owner)) }})
		}
		if got := reg.Snapshot(); len(got.Counters) != n || len(got.Gauges) != n {
			t.Fatalf("%d collectors of each kind: %d counters, %d gauges", n, len(got.Counters), len(got.Gauges))
		}
		return testing.AllocsPerRun(100, func() { reg.Snapshot() })
	}
	few, many := snapshotAllocs(2), snapshotAllocs(64)
	t.Logf("snapshot of 2+2 collectors: %.0f allocs; of 64+64: %.0f", few, many)
	if many > few {
		t.Errorf("a snapshot of 64+64 unlabelled collectors allocates %.0f objects, of 2+2 %.0f: want no growth", many, few)
	}
}
