package workload

import (
	"testing"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/clock"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/sim"
)

func spec() Spec {
	return Spec{
		Seed:             42,
		MeanInterArrival: 10 * time.Second,
		Documents:        []media.DocumentID{"d1", "d2", "d3", "d4"},
		Clients: []client.Machine{
			client.Workstation("c1", "n1"),
			client.Workstation("c2", "n2"),
		},
		Profiles: profile.DefaultProfiles(),
	}
}

func TestSpecValidate(t *testing.T) {
	if err := spec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []func(*Spec){
		func(s *Spec) { s.MeanInterArrival = 0 },
		func(s *Spec) { s.Documents = nil },
		func(s *Spec) { s.Clients = nil },
		func(s *Spec) { s.Profiles = nil },
		func(s *Spec) { s.Weights = []int{1} },
		func(s *Spec) { s.Weights = []int{0, 0, 0} },
		func(s *Spec) { s.Weights = []int{1, -1, 1} },
	}
	for i, mutate := range bad {
		s := spec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g1, _ := NewGenerator(spec())
	g2, _ := NewGenerator(spec())
	for i := 0; i < 100; i++ {
		a, b := g1.Next(), g2.Next()
		if a.InterArrival != b.InterArrival || a.Document != b.Document ||
			a.Client.ID != b.Client.ID || a.Profile.Name != b.Profile.Name {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestPopularitySkew(t *testing.T) {
	g, _ := NewGenerator(spec())
	counts := map[media.DocumentID]int{}
	for i := 0; i < 5000; i++ {
		counts[g.Next().Document]++
	}
	if counts["d1"] <= counts["d4"] {
		t.Errorf("zipf skew missing: %v", counts)
	}
	if len(counts) < 3 {
		t.Errorf("popularity too concentrated: %v", counts)
	}
}

func TestProfileWeights(t *testing.T) {
	s := spec()
	s.Weights = []int{0, 0, 1} // only the third profile
	g, err := NewGenerator(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if got := g.Next().Profile.Name; got != s.Profiles[2].Name {
			t.Fatalf("weighted draw picked %s", got)
		}
	}
}

func TestMeanInterArrival(t *testing.T) {
	g, _ := NewGenerator(spec())
	var sum time.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		sum += g.Next().InterArrival
	}
	mean := float64(sum) / n / float64(10*time.Second)
	if mean < 0.9 || mean > 1.1 {
		t.Errorf("mean inter-arrival ratio = %.3f", mean)
	}
}

func TestDrive(t *testing.T) {
	g, _ := NewGenerator(spec())
	eng := sim.NewEngine()
	var got []Request
	g.Drive(clock.Sim(eng), 20, func(r Request) { got = append(got, r) })
	eng.RunAll()
	if len(got) != 20 {
		t.Fatalf("handled %d requests", len(got))
	}
	if eng.Now() == 0 {
		t.Error("virtual time did not advance")
	}
}
