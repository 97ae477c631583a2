package cmfs

import (
	"fmt"
	"math/rand"
	"testing"

	"qosneg/internal/qos"
	"qosneg/internal/telemetry"
)

// TestPlanMatchesReserve holds Plan to Reserve on two servers built alike:
// planning a run of streams, each on top of the ones planned before it,
// admits or refuses each as reserving them one after another does, a
// refused plan's figures rendering Reserve's error text, and leaves the
// planned server as it was.
func TestPlanMatchesReserve(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for run := 0; run < 200; run++ {
		cfg := DefaultConfig()
		cfg.DiskRate = qos.BitRate(1+rng.Intn(64)) * qos.MBitPerSecond
		cfg.MaxStreams = rng.Intn(8)
		cfg.Policy = AdmissionPolicy(rng.Intn(2))
		planned, reserved := MustServer("s", cfg), MustServer("s", cfg)
		for _, s := range []*Server{planned, reserved} {
			s.SetDegradation([]float64{0, 0.5, 0.9}[run%3])
			for i := run % 4; i > 0; i-- {
				s.Reserve(stream(qos.MBitPerSecond))
			}
		}
		held, load := planned.ActiveStreams(), planned.Utilization()
		var p Plan
		for i := 0; i < 10; i++ {
			q := stream(qos.BitRate(rng.Intn(8)) * qos.MBitPerSecond / 2)
			next, perr := planned.Plan(q, p)
			_, rerr := reserved.Reserve(q)
			if perr == ErrAdmission {
				r := next.Refusal(planned.ID())
				perr = &r
			}
			if fmt.Sprint(perr) != fmt.Sprint(rerr) {
				t.Fatalf("run %d stream %d: Plan %v, Reserve %v", run, i, perr, rerr)
			}
			if perr == nil {
				p = next
			}
		}
		if planned.ActiveStreams() != held || planned.Utilization() != load {
			t.Fatalf("run %d: planning changed the server", run)
		}
	}
}

// TestPlanAllocationGate is the plan's allocation gate: a plan allocates
// nothing, admitted or refused.
func TestPlanAllocationGate(t *testing.T) {
	s := MustServer("s1", DefaultConfig())
	s.Instrument(telemetry.NewRegistry())
	q := stream(qos.MBitPerSecond)
	var p Plan
	for i := 0; i < 10; i++ {
		var err error
		if p, err = s.Plan(q, p); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := s.Plan(q, p); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("an admitting Plan allocated %.0f objects, want 0", allocs)
	}
	if err := s.SetDegradation(0.99); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := s.Plan(q, p); err == nil {
			t.Fatal("the degraded server admitted the stream")
		}
	}); allocs != 0 {
		t.Errorf("a refusing Plan allocated %.0f objects, want 0", allocs)
	}
}
