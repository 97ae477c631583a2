package workload

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// Shape selects the arrival-rate envelope of an open-loop schedule.
type Shape int

const (
	// Poisson arrivals at a constant mean rate.
	Poisson Shape = iota
	// Bursty alternates on/off duty phases: during a burst the rate is
	// multiplied by BurstFactor, between bursts it drops to the base rate.
	Bursty
	// Diurnal modulates the rate sinusoidally around the mean with period
	// DiurnalPeriod — a compressed day/night cycle.
	Diurnal
)

func (s Shape) String() string {
	switch s {
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	case Diurnal:
		return "diurnal"
	}
	return fmt.Sprintf("shape(%d)", int(s))
}

// OpenLoopSpec parameterizes an open-loop schedule: arrivals are placed on
// an absolute timeline up front, independent of completions. A closed-loop
// driver (Generator.Drive) waits for each handler and so can never overload
// the system under test; an open loop keeps sending at the scheduled rate —
// the only way to observe shedding behaviour.
type OpenLoopSpec struct {
	Spec
	Shape Shape
	// BurstFactor multiplies the arrival rate during a burst (Bursty only;
	// default 10). BurstOn/BurstOff set the duty cycle (defaults 200ms on,
	// 800ms off).
	BurstFactor float64
	BurstOn     time.Duration
	BurstOff    time.Duration
	// DiurnalPeriod is the sinusoid's period (Diurnal only; default 2s);
	// DiurnalAmplitude in [0,1) scales the swing around the mean rate
	// (default 0.8).
	DiurnalPeriod    time.Duration
	DiurnalAmplitude float64
}

// Arrival is one scheduled request on the open-loop timeline.
type Arrival struct {
	// At is the offset from schedule start.
	At time.Duration
	Request
}

// OpenLoop generates arrivals on an absolute timeline.
type OpenLoop struct {
	gen    *Generator
	spec   OpenLoopSpec
	cursor time.Duration
}

// NewOpenLoop builds an open-loop schedule generator.
func NewOpenLoop(spec OpenLoopSpec) (*OpenLoop, error) {
	gen, err := NewGenerator(spec.Spec)
	if err != nil {
		return nil, err
	}
	if spec.BurstFactor <= 0 {
		spec.BurstFactor = 10
	}
	if spec.BurstOn <= 0 {
		spec.BurstOn = 200 * time.Millisecond
	}
	if spec.BurstOff <= 0 {
		spec.BurstOff = 800 * time.Millisecond
	}
	if spec.DiurnalPeriod <= 0 {
		spec.DiurnalPeriod = 2 * time.Second
	}
	if spec.DiurnalAmplitude <= 0 || spec.DiurnalAmplitude >= 1 {
		spec.DiurnalAmplitude = 0.8
	}
	return &OpenLoop{gen: gen, spec: spec}, nil
}

// Next places the next arrival on the timeline. The base generator draws an
// exponential gap; the shape warps it by the instantaneous rate multiplier
// at the cursor, so bursts compress gaps and troughs stretch them.
func (o *OpenLoop) Next() Arrival {
	req := o.gen.Next()
	gap := req.InterArrival
	switch o.spec.Shape {
	case Bursty:
		cycle := o.spec.BurstOn + o.spec.BurstOff
		if o.cursor%cycle < o.spec.BurstOn {
			gap = time.Duration(float64(gap) / o.spec.BurstFactor)
		}
	case Diurnal:
		phase := 2 * math.Pi * float64(o.cursor%o.spec.DiurnalPeriod) / float64(o.spec.DiurnalPeriod)
		rate := 1 + o.spec.DiurnalAmplitude*math.Sin(phase)
		gap = time.Duration(float64(gap) / rate)
	}
	if gap < 0 {
		gap = 0
	}
	o.cursor += gap
	return Arrival{At: o.cursor, Request: req}
}

// Run fires count arrivals in real time: each handler runs on its own
// goroutine at its scheduled instant whether or not earlier handlers have
// finished — the schedule never waits for completions. Run returns once
// every handler has returned or ctx is canceled (scheduled-but-unfired
// arrivals are dropped on cancellation; in-flight handlers are awaited
// either way).
func (o *OpenLoop) Run(ctx context.Context, count int, handle func(Request)) error {
	start := time.Now()
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 0; i < count; i++ {
		a := o.Next()
		if d := a.At - time.Since(start); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		} else if err := ctx.Err(); err != nil {
			// Even when behind schedule, cancellation still stops the loop.
			return err
		}
		wg.Add(1)
		go func(req Request) {
			defer wg.Done()
			handle(req)
		}(a.Request)
	}
	return nil
}
