// Package workload generates synthetic request streams for the
// reproduction's experiments: Poisson session arrivals, Zipf-skewed
// document popularity and a mix of user profiles. The paper's evaluation is
// qualitative; these workloads quantify its claims (smart negotiation
// increases availability; cost limits greediness) under a controlled,
// seeded load.
package workload

import (
	"fmt"
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

// Spec parameterizes a Generator.
type Spec struct {
	// Seed makes the stream reproducible.
	Seed int64
	// MeanInterArrival is the Poisson process's mean gap between
	// arrivals.
	MeanInterArrival time.Duration
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

// Next draws the next request.
func (g *Generator) Next() Request {
	doc := g.spec.Documents[0]
	if len(g.spec.Documents) > 1 {
		doc = g.spec.Documents[g.rng.Zipf(len(g.spec.Documents), g.spec.ZipfS)]
	}
	return Request{
		InterArrival: g.rng.Exp(g.spec.MeanInterArrival),
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

// Drive schedules count arrivals on clk, calling handle for each. Each
// arrival is armed by the one before it, one inter-arrival gap later.
func (g *Generator) Drive(clk clock.Clock, count int, handle func(Request)) {
	var arrive func(remaining int)
	arrive = func(remaining int) {
		if remaining <= 0 {
			return
		}
		req := g.Next()
		clk.AfterFunc(req.InterArrival, func() {
			handle(req)
			arrive(remaining - 1)
		})
	}
	arrive(count)
}
