// Package workload generates synthetic request streams for the
// reproduction's experiments: Poisson session arrivals (optionally bursty
// or diurnal), Zipf-skewed document popularity and a mix of user profiles.
// The paper's evaluation is qualitative; these workloads quantify its
// claims (smart negotiation increases availability; cost limits
// greediness) under a controlled, seeded load.
package workload

import (
	"fmt"
	"math"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/clock"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/sim"
)

// Request is one generated session request.
type Request struct {
	// InterArrival is the gap between the previous request and this one.
	InterArrival time.Duration
	Client       client.Machine
	Document     media.DocumentID
	Profile      profile.UserProfile
}

// Shape selects the arrival-rate envelope of a request stream.
type Shape int

const (
	// Poisson arrivals at a constant mean rate.
	Poisson Shape = iota
	// Bursty alternates on/off duty phases: for burstOn of every
	// burstOn+burstOff the rate is burstFactor times the base rate.
	Bursty
	// Diurnal modulates the rate sinusoidally around the mean, with period
	// diurnalPeriod and relative swing diurnalAmplitude: a compressed
	// day/night cycle.
	Diurnal
)

const (
	burstFactor      = 10
	burstOn          = 200 * time.Millisecond
	burstOff         = 800 * time.Millisecond
	diurnalPeriod    = 2 * time.Second
	diurnalAmplitude = 0.8
)

// Spec parameterizes a Generator.
type Spec struct {
	// Seed makes the stream reproducible.
	Seed int64
	// MeanInterArrival is the Poisson process's mean gap between
	// arrivals.
	MeanInterArrival time.Duration
	// Shape warps the gaps by the rate envelope (default Poisson).
	Shape Shape
	// Documents is the catalog, most popular first; popularity is
	// Zipf-distributed with exponent ZipfS (default 1.2).
	Documents []media.DocumentID
	ZipfS     float64
	// Clients issue requests round-robin weighted uniformly.
	Clients []client.Machine
	// Profiles is the profile mix, drawn uniformly unless Weights is
	// set (same length, relative frequencies).
	Profiles []profile.UserProfile
	Weights  []int
}

// Validate reports an error for an unusable spec.
func (s Spec) Validate() error {
	if s.MeanInterArrival <= 0 {
		return fmt.Errorf("workload: non-positive mean inter-arrival")
	}
	if len(s.Documents) == 0 || len(s.Clients) == 0 || len(s.Profiles) == 0 {
		return fmt.Errorf("workload: documents, clients and profiles must be non-empty")
	}
	if s.Weights != nil && len(s.Weights) != len(s.Profiles) {
		return fmt.Errorf("workload: %d weights for %d profiles", len(s.Weights), len(s.Profiles))
	}
	total := 0
	for _, w := range s.Weights {
		if w < 0 {
			return fmt.Errorf("workload: negative weight")
		}
		total += w
	}
	if s.Weights != nil && total == 0 {
		return fmt.Errorf("workload: all weights zero")
	}
	return nil
}

// Generator produces a deterministic request stream.
type Generator struct {
	spec Spec
	rng  *sim.Rand
	wsum int
	// at is the arrival timeline's cursor, the sum of the gaps drawn.
	at time.Duration
}

// NewGenerator builds a generator from the spec.
func NewGenerator(spec Spec) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.ZipfS == 0 {
		spec.ZipfS = 1.2
	}
	g := &Generator{spec: spec, rng: sim.NewRand(spec.Seed)}
	for _, w := range spec.Weights {
		g.wsum += w
	}
	return g, nil
}

// Next draws the next request. Its gap is exponential, warped by the
// shape's rate multiplier at the timeline's cursor, so bursts compress
// gaps and troughs stretch them.
func (g *Generator) Next() Request {
	doc := g.spec.Documents[0]
	if len(g.spec.Documents) > 1 {
		doc = g.spec.Documents[g.rng.Zipf(len(g.spec.Documents), g.spec.ZipfS)]
	}
	gap := g.rng.Exp(g.spec.MeanInterArrival)
	switch g.spec.Shape {
	case Bursty:
		if g.at%(burstOn+burstOff) < burstOn {
			gap /= burstFactor
		}
	case Diurnal:
		phase := 2 * math.Pi * float64(g.at%diurnalPeriod) / float64(diurnalPeriod)
		gap = time.Duration(float64(gap) / (1 + diurnalAmplitude*math.Sin(phase)))
	}
	g.at += gap
	return Request{
		InterArrival: gap,
		Client:       g.spec.Clients[g.rng.Intn(len(g.spec.Clients))],
		Document:     doc,
		Profile:      g.pickProfile(),
	}
}

func (g *Generator) pickProfile() profile.UserProfile {
	if g.wsum == 0 {
		return g.spec.Profiles[g.rng.Intn(len(g.spec.Profiles))]
	}
	r := g.rng.Intn(g.wsum)
	for i, w := range g.spec.Weights {
		if r < w {
			return g.spec.Profiles[i]
		}
		r -= w
	}
	return g.spec.Profiles[len(g.spec.Profiles)-1]
}

// Drive schedules count arrivals on clk and returns; handle runs for each
// as its timer fires (on a Sim clock as the engine runs, on the wall clock
// each on a goroutine of its own). Arrival i is due at the sum of the
// first i gaps after the call, so a late timer brings the next arrival
// forward instead of shifting the rest of the schedule. Each arrival arms
// the next before it calls handle, so a handler that blocks never delays
// the schedule: the loop is open.
func (g *Generator) Drive(clk clock.Clock, count int, handle func(Request)) {
	origin := clk.Now().Add(-g.at) // the timeline's zero: earlier draws are past
	var arm func(remaining int)
	arm = func(remaining int) {
		if remaining <= 0 {
			return
		}
		req := g.Next()
		clk.AfterFunc(origin.Add(g.at).Sub(clk.Now()), func() {
			arm(remaining - 1)
			handle(req)
		})
	}
	arm(count)
}
