package workload

import (
	"context"
	"sync"
	"testing"
	"time"
)

func openSpec(shape Shape) OpenLoopSpec {
	s := spec()
	s.MeanInterArrival = 10 * time.Millisecond
	return OpenLoopSpec{Spec: s, Shape: shape}
}

func TestOpenLoopTimelineMonotone(t *testing.T) {
	for _, shape := range []Shape{Poisson, Bursty, Diurnal} {
		o, err := NewOpenLoop(openSpec(shape))
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		last := time.Duration(-1)
		for i := 0; i < 1000; i++ {
			a := o.Next()
			if a.At < last {
				t.Fatalf("%v: arrival %d at %v before previous %v", shape, i, a.At, last)
			}
			last = a.At
		}
	}
}

func TestOpenLoopDeterminism(t *testing.T) {
	o1, _ := NewOpenLoop(openSpec(Diurnal))
	o2, _ := NewOpenLoop(openSpec(Diurnal))
	for i := 0; i < 200; i++ {
		a, b := o1.Next(), o2.Next()
		if a.At != b.At || a.Document != b.Document {
			t.Fatalf("streams diverge at %d: %v vs %v", i, a.At, b.At)
		}
	}
}

func TestBurstyCompressesGaps(t *testing.T) {
	// With a large burst factor the bursty timeline must pack the same
	// number of arrivals into less time than the plain Poisson one.
	plain, _ := NewOpenLoop(openSpec(Poisson))
	burst, _ := NewOpenLoop(openSpec(Bursty))
	var plainEnd, burstEnd time.Duration
	for i := 0; i < 2000; i++ {
		plainEnd = plain.Next().At
		burstEnd = burst.Next().At
	}
	if burstEnd >= plainEnd {
		t.Fatalf("bursty timeline (%v) not denser than poisson (%v)", burstEnd, plainEnd)
	}
}

func TestDiurnalModulatesRate(t *testing.T) {
	// Count arrivals per half-period: the peak half must see more than the
	// trough half.
	s := openSpec(Diurnal)
	s.DiurnalPeriod = time.Second
	s.DiurnalAmplitude = 0.9
	o, err := NewOpenLoop(s)
	if err != nil {
		t.Fatal(err)
	}
	peak, trough := 0, 0
	for i := 0; i < 5000; i++ {
		a := o.Next()
		if a.At%s.DiurnalPeriod < s.DiurnalPeriod/2 {
			peak++
		} else {
			trough++
		}
	}
	if peak <= trough {
		t.Fatalf("diurnal peak half (%d) not denser than trough half (%d)", peak, trough)
	}
}

func TestOpenLoopRunDoesNotWaitForHandlers(t *testing.T) {
	s := openSpec(Poisson)
	s.MeanInterArrival = time.Millisecond
	o, err := NewOpenLoop(s)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	var mu sync.Mutex
	fired := 0
	release := make(chan struct{})
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		done <- o.Run(context.Background(), n, func(Request) {
			mu.Lock()
			fired++
			mu.Unlock()
			<-release // handlers block; the schedule must not
		})
	}()
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		f := fired
		mu.Unlock()
		if f == n {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d/%d arrivals fired while handlers blocked — closed-loop behaviour", f, n)
		case <-time.After(time.Millisecond):
		}
	}
	elapsed := time.Since(start)
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	// All n arrivals fired while every handler was still blocked, well
	// before any completion: the loop is open.
	if elapsed > 4*time.Second {
		t.Fatalf("schedule took %v with blocked handlers", elapsed)
	}
}

func TestOpenLoopRunCancel(t *testing.T) {
	s := openSpec(Poisson)
	s.MeanInterArrival = time.Hour // the second arrival is far away
	o, err := NewOpenLoop(s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if err := o.Run(ctx, 100, func(Request) {}); err != context.Canceled {
		t.Fatalf("Run under cancellation = %v, want context.Canceled", err)
	}
}
