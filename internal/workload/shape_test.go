package workload

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qosneg/internal/clock"
)

func shaped(shape Shape) *Generator {
	s := spec()
	s.MeanInterArrival = 10 * time.Millisecond
	s.Shape = shape
	g, err := NewGenerator(s)
	if err != nil {
		panic(err)
	}
	return g
}

// timeline returns the first n arrival offsets of g's stream.
func timeline(g *Generator, n int) []time.Duration {
	out := make([]time.Duration, n)
	var at time.Duration
	for i := range out {
		at += g.Next().InterArrival
		out[i] = at
	}
	return out
}

func TestOpenLoopTimelineMonotone(t *testing.T) {
	for _, shape := range []Shape{Poisson, Bursty, Diurnal} {
		g := shaped(shape)
		for i := 0; i < 1000; i++ {
			if gap := g.Next().InterArrival; gap < 0 {
				t.Fatalf("shape %d: arrival %d has gap %v", shape, i, gap)
			}
		}
	}
}

func TestOpenLoopDeterminism(t *testing.T) {
	a, b := timeline(shaped(Diurnal), 200), timeline(shaped(Diurnal), 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBurstyCompressesGaps(t *testing.T) {
	// The bursty timeline packs the same number of arrivals into less time
	// than the plain Poisson one.
	plain, burst := timeline(shaped(Poisson), 2000), timeline(shaped(Bursty), 2000)
	if burst[1999] >= plain[1999] {
		t.Fatalf("bursty timeline (%v) not denser than poisson (%v)", burst[1999], plain[1999])
	}
}

func TestDiurnalModulatesRate(t *testing.T) {
	// Count arrivals per half-period: the peak half must see more than the
	// trough half.
	peak, trough := 0, 0
	for _, at := range timeline(shaped(Diurnal), 5000) {
		if at%diurnalPeriod < diurnalPeriod/2 {
			peak++
		} else {
			trough++
		}
	}
	if peak <= trough {
		t.Fatalf("diurnal peak half (%d) not denser than trough half (%d)", peak, trough)
	}
}

func TestDriveDoesNotWaitForHandlers(t *testing.T) {
	s := spec()
	s.MeanInterArrival = time.Millisecond
	g, err := NewGenerator(s)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	var fired atomic.Int64
	var handlers sync.WaitGroup
	handlers.Add(n)
	release := make(chan struct{})
	g.Drive(clock.Wall{}, n, func(Request) {
		defer handlers.Done()
		fired.Add(1)
		<-release // handlers block; the schedule must not
	})
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d arrivals fired while handlers blocked: closed-loop behaviour", fired.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	handlers.Wait()
}

// lateClock fires each timer by hand, late by however much the test says,
// and records when each was armed and for how long.
type lateClock struct {
	now         time.Time
	armed, dues []time.Time
	next        func()
}

func (c *lateClock) Now() time.Time { return c.now }
func (c *lateClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	c.armed = append(c.armed, c.now)
	c.dues = append(c.dues, c.now.Add(d))
	c.next = f
	return nil
}
func (c *lateClock) Sleep(time.Duration) { panic("Drive never sleeps") }

// fire runs the armed timer late after it is due.
func (c *lateClock) fire(late time.Duration) {
	c.now = c.dues[len(c.dues)-1].Add(late)
	c.next()
}

func TestDriveKeepsAbsoluteTimeline(t *testing.T) {
	want := timeline(shaped(Poisson), 4)
	clk := &lateClock{now: clock.Epoch}
	handled := 0
	shaped(Poisson).Drive(clk, 4, func(Request) { handled++ })
	clk.fire(0)
	clk.fire(want[3]) // so late that the next arrival is already past due
	clk.fire(0)
	if handled != 3 || len(clk.dues) != 4 {
		t.Fatalf("handled %d arrivals with %d timers armed, want 3 and 4", handled, len(clk.dues))
	}
	// Every timer is due at its arrival's offset from Drive's call, however
	// late the one before fired.
	for i, due := range clk.dues {
		if want := clock.Epoch.Add(want[i]); !due.Equal(want) {
			t.Errorf("timer %d armed at %v is due at %v, want %v", i, clk.armed[i], due, want)
		}
	}
	if !clk.dues[2].Before(clk.armed[2]) {
		t.Error("the arrival after a late one was not armed past due")
	}
}
