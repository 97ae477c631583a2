package admission

import (
	"sync"
	"testing"
	"time"

	"qosneg/internal/clock"
	"qosneg/internal/sim"
	"qosneg/internal/telemetry"
)

func TestNilControllerAdmitsEverything(t *testing.T) {
	var c *Controller
	rel, retry, ok := c.Admit()
	if !ok || retry != 0 || rel != nil {
		t.Fatalf("nil controller: Admit() = (rel!=nil:%v, %v, %v), want (nil, 0, true)", rel != nil, retry, ok)
	}
	if d, sat := c.Saturated(); sat || d != 0 {
		t.Fatalf("nil controller: Saturated() = (%v, %v), want (0, false)", d, sat)
	}
	if c.RetryHint() != 0 || c.SLO() != 0 {
		t.Fatalf("nil controller leaks hints: hint %v slo %v", c.RetryHint(), c.SLO())
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil controller stats = %+v, want zero", st)
	}
}

func TestAdmitUpToLimitThenShed(t *testing.T) {
	eng := sim.NewEngine()
	c := New(Config{SLO: 50 * time.Millisecond, MaxInFlight: 2, MinInFlight: 1, Clock: clock.Sim(eng)})
	rel1, _, ok1 := c.Admit()
	rel2, _, ok2 := c.Admit()
	if !ok1 || !ok2 {
		t.Fatalf("first two admits refused: %v %v", ok1, ok2)
	}
	if _, retry, ok := c.Admit(); ok {
		t.Fatal("third admit allowed past MaxInFlight=2")
	} else if retry <= 0 {
		t.Fatalf("shed carried RetryAfter %v, want > 0", retry)
	}
	if d, sat := c.Saturated(); !sat || d <= 0 {
		t.Fatalf("Saturated() = (%v, %v) at the limit, want a positive hint", d, sat)
	}
	rel1()
	if _, _, ok := c.Admit(); !ok {
		t.Fatal("admit refused after a release freed a slot")
	}
	rel2()
	st := c.Stats()
	if st.Admitted != 3 || st.Sheds != 2 {
		t.Fatalf("stats = %+v, want 3 admitted / 2 sheds (one refused Admit + one Saturated)", st)
	}
}

func TestHintMIAD(t *testing.T) {
	eng := sim.NewEngine()
	c := New(Config{SLO: 100 * time.Millisecond, MaxInFlight: 1, MinInFlight: 1, Clock: clock.Sim(eng)})
	rel, _, _ := c.Admit() // pin the only slot
	// Each shed separated by growEvery doubles the hint from minRetryAfter
	// up to the maxRetryAfter cap.
	want := []time.Duration{200, 400, 800, 1600, 3200, 6400, 10000, 10000}
	for i, w := range want {
		eng.Run(eng.Now() + 150*time.Millisecond)
		_, retry, ok := c.Admit()
		if ok {
			t.Fatalf("shed %d admitted", i)
		}
		if retry != w*time.Millisecond {
			t.Fatalf("shed %d: hint %v, want %v", i, retry, w*time.Millisecond)
		}
	}
	rel()
	// Age the pinned slot's (long) latency sample out of the window so the
	// healthy intervals below actually read as healthy.
	eng.Run(eng.Now() + window + time.Second)
	// Healthy completions walk the hint back down additively, hintDecay
	// per adjustment interval.
	for i := 0; i < 3; i++ {
		eng.Run(eng.Now() + adjustWait + 50*time.Millisecond)
		rel, _, ok := c.Admit()
		if !ok {
			t.Fatalf("healthy admit %d refused", i)
		}
		eng.Run(eng.Now() + time.Millisecond)
		rel()
	}
	if h := c.RetryHint(); h != 9700*time.Millisecond {
		t.Fatalf("hint after 3 healthy intervals = %v, want 9.7s", h)
	}
}

func TestLimitAIMD(t *testing.T) {
	eng := sim.NewEngine()
	c := New(Config{SLO: 10 * time.Millisecond, MaxInFlight: 64, MinInFlight: 4, Clock: clock.Sim(eng)})
	// Slow completions breach the SLO: the limit halves per adjustment.
	slow := func() {
		eng.Run(eng.Now() + adjustWait)
		rel, _, ok := c.Admit()
		if !ok {
			t.Fatal("admit refused below the limit")
		}
		eng.Run(eng.Now() + 50*time.Millisecond) // latency 50ms > SLO 10ms
		rel()
	}
	slow()
	if lim := c.Stats().Limit; lim != 32 {
		t.Fatalf("limit after one breach = %d, want 32", lim)
	}
	slow()
	if lim := c.Stats().Limit; lim != 16 {
		t.Fatalf("limit after two breaches = %d, want 16", lim)
	}
	for i := 0; i < 8; i++ {
		slow()
	}
	if lim := c.Stats().Limit; lim != 4 {
		t.Fatalf("limit never drops below MinInFlight: %d, want 4", lim)
	}
	// Fast completions: additive recovery, one per adjustment interval.
	fast := func() {
		eng.Run(eng.Now() + adjustWait)
		rel, _, ok := c.Admit()
		if !ok {
			t.Fatal("admit refused below the limit")
		}
		eng.Run(eng.Now() + time.Millisecond)
		rel()
	}
	// The old slow samples must age out of the window first.
	eng.Run(eng.Now() + window + time.Second)
	fast()
	fast()
	fast()
	if lim := c.Stats().Limit; lim != 7 {
		t.Fatalf("limit after 3 healthy intervals = %d, want 7", lim)
	}
	if p99 := c.Stats().P99; p99 != time.Millisecond {
		t.Fatalf("windowed p99 = %v, want 1ms", p99)
	}
}

func TestInstrumentRecordsDecisions(t *testing.T) {
	eng := sim.NewEngine()
	reg := telemetry.NewRegistry()
	c := New(Config{SLO: 50 * time.Millisecond, MaxInFlight: 1, Clock: clock.Sim(eng)})
	c.Instrument(reg)
	rel, _, _ := c.Admit()
	c.Admit() // shed
	rel()
	snap := reg.Snapshot()
	if v := snap.CounterValue(MetricAdmitted, ""); v != 1 {
		t.Fatalf("%s = %d, want 1", MetricAdmitted, v)
	}
	if v := snap.CounterValue(MetricSheds, ""); v != 1 {
		t.Fatalf("%s = %d, want 1", MetricSheds, v)
	}
	found := false
	for _, g := range snap.Gauges {
		if g.Name == MetricLimit {
			found = true
		}
	}
	if !found {
		t.Fatalf("%s gauge not registered", MetricLimit)
	}
}

func TestAdmitConcurrent(t *testing.T) {
	c := New(Config{SLO: time.Second, MaxInFlight: 8, MinInFlight: 8})
	var wg sync.WaitGroup
	var admitted, shed atomic64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				rel, retry, ok := c.Admit()
				if ok {
					admitted.add(1)
					rel()
				} else {
					if retry <= 0 {
						t.Error("shed without a RetryAfter hint")
						return
					}
					shed.add(1)
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in-flight %d after full drain, want 0", st.InFlight)
	}
	if st.Admitted != admitted.load() || st.Sheds != shed.load() {
		t.Fatalf("stats %+v disagree with callers (admitted %d, shed %d)", st, admitted.load(), shed.load())
	}
	if st.Admitted == 0 {
		t.Fatal("no request was ever admitted")
	}
}

// atomic64 is a tiny locked counter for cross-goroutine test bookkeeping.
type atomic64 struct {
	mu sync.Mutex
	v  uint64
}

func (a *atomic64) add(d uint64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() uint64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
