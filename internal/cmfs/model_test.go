package cmfs

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"qosneg/internal/qos"
	"qosneg/internal/telemetry"
)

// The reference model: the admission arithmetic as plain loops that re-sum
// the stream set on every call. The server keeps the same sum as a running
// total; the differential test below holds every answer to these.

// refDemand re-sums the admitted streams' per-round transfer.
func refDemand(s *Server) int64 {
	var demand int64
	for _, r := range s.streams {
		demand += s.bytesPerRound(r.Rate)
	}
	return demand
}

// refAdmit is the admission test for a charged rate.
func refAdmit(s *Server, rate qos.BitRate) error {
	if rate < 0 {
		return fmt.Errorf("cmfs %s: negative rate", s.id)
	}
	n := len(s.streams) + 1
	if s.cfg.MaxStreams > 0 && n > s.cfg.MaxStreams {
		return fmt.Errorf("%w: server %s at stream cap %d", ErrAdmission, s.id, s.cfg.MaxStreams)
	}
	demand := refDemand(s) + s.bytesPerRound(rate)
	if budget := s.roundBudget(n); demand > budget {
		return fmt.Errorf("%w: server %s needs %d bytes/round, budget %d", ErrAdmission, s.id, demand, budget)
	}
	return nil
}

// refUtilization is the consumed fraction of the current round budget.
func refUtilization(s *Server) float64 {
	budget := s.roundBudget(len(s.streams))
	if budget == 0 {
		if len(s.streams) == 0 {
			return 0
		}
		return 1
	}
	return float64(refDemand(s)) / float64(budget)
}

// refOvercommitted sorts every stream and keeps the cheapest that fit.
func refOvercommitted(s *Server) []Reservation {
	res := make([]Reservation, 0, len(s.streams))
	for _, r := range s.streams {
		res = append(res, r)
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Rate != res[j].Rate {
			return res[i].Rate < res[j].Rate
		}
		return res[i].ID < res[j].ID
	})
	budget := s.roundBudget(len(s.streams))
	var demand int64
	keep := 0
	for _, r := range res {
		d := s.bytesPerRound(r.Rate)
		if demand+d > budget {
			break
		}
		demand += d
		keep++
	}
	victims := res[keep:]
	out := make([]Reservation, len(victims))
	copy(out, victims)
	sort.Slice(out, func(i, j int) bool { return out[i].Rate > out[j].Rate })
	return out
}

// modelOp is one call in a model scenario.
type modelOp int

const (
	opReserve modelOp = iota
	opRelease
	opDegrade
	opAdmit
	opUtilization
	opOvercommitted
	nModelOps
)

// modelStep is one call and its argument: a request for Reserve and Admit,
// a fraction for SetDegradation, and for Release an
// index into the live reservations (or, past their end, an id never
// granted).
type modelStep struct {
	Op       modelOp
	Q        qos.NetworkQoS
	Fraction float64
	Pick     int
}

// modelScenario is a server configuration and a call sequence.
type modelScenario struct {
	Cfg   Config
	Steps []modelStep
}

// Generate draws the policy, a stream cap or none, and 120 calls whose
// rates come from a small set, so equal rates tie in Overcommitted's
// order; the rates span discrete media to streams that fill a third of the
// disk, with the odd negative one, and degradations run up to 0.9, so
// refusals by the cap and by the round budget both occur.
func (modelScenario) Generate(rng *rand.Rand, _ int) reflect.Value {
	sc := modelScenario{Cfg: smallConfig()}
	sc.Cfg.Policy = AdmissionPolicy(rng.Intn(2))
	sc.Cfg.MaxStreams = []int{0, 0, 1, 8, 1 + rng.Intn(40)}[rng.Intn(5)]
	rates := []qos.BitRate{0, 20 * qos.KBitPerSecond, 64 * qos.KBitPerSecond, 64 * qos.KBitPerSecond,
		250 * qos.KBitPerSecond, qos.MBitPerSecond, 2 * qos.MBitPerSecond, 3 * qos.MBitPerSecond}
	weights := [nModelOps]int{opReserve: 8, opRelease: 3, opDegrade: 1, opAdmit: 2, opUtilization: 1, opOvercommitted: 2}
	total := 0
	for _, w := range weights {
		total += w
	}
	for i := 0; i < 120; i++ {
		var st modelStep
		for pick := rng.Intn(total); pick >= weights[st.Op]; st.Op++ {
			pick -= weights[st.Op]
		}
		avg := rates[rng.Intn(len(rates))]
		if rng.Intn(40) == 0 {
			avg = -qos.KBitPerSecond
		}
		st.Q = qos.NetworkQoS{AvgBitRate: avg, MaxBitRate: avg * qos.BitRate(rng.Intn(4))}
		st.Fraction = []float64{0, 0, 0.1, 0.25, 0.5, 0.75, 0.9}[rng.Intn(7)]
		st.Pick = rng.Intn(64)
		sc.Steps = append(sc.Steps, st)
	}
	return reflect.ValueOf(sc)
}

// sameError reports whether two errors agree on ErrAdmission,
// ErrUnknownReservation and their text.
func sameError(got, want error) bool {
	return errors.Is(got, ErrAdmission) == errors.Is(want, ErrAdmission) &&
		errors.Is(got, ErrUnknownReservation) == errors.Is(want, ErrUnknownReservation) &&
		fmt.Sprint(got) == fmt.Sprint(want)
}

// TestServerMatchesModel is the differential test of the running demand
// sum: random call sequences, under both policies and with and without a
// stream cap, get from the server exactly what the re-summing reference
// computes on the same state: admission errors (by errors.Is and by
// text), bit-identical utilizations, and Overcommitted element
// for element in order (nil and empty alike). The running sum equals the
// re-sum after every call.
func TestServerMatchesModel(t *testing.T) {
	var admitted, refusedBudget, refusedCap, victimSweeps int
	f := func(sc modelScenario) bool {
		s := MustServer("s1", sc.Cfg)
		s.Instrument(telemetry.NewRegistry())
		var live []ReservationID
		for i, st := range sc.Steps {
			switch st.Op {
			case opReserve:
				want := refAdmit(s, s.chargedRate(st.Q))
				r, err := s.Reserve(st.Q)
				if !sameError(err, want) {
					t.Errorf("step %d: Reserve(%v) = %v, reference %v", i, st.Q, err, want)
					return false
				}
				switch {
				case err == nil:
					admitted++
					live = append(live, r.ID)
				case errors.Is(err, ErrAdmission) && s.cfg.MaxStreams > 0 && len(s.streams) >= s.cfg.MaxStreams:
					refusedCap++
				case errors.Is(err, ErrAdmission):
					refusedBudget++
				}
			case opRelease:
				id := ReservationID(1000 + st.Pick)
				if st.Pick < len(live) {
					id = live[st.Pick]
					live = append(live[:st.Pick], live[st.Pick+1:]...)
				}
				var want error
				if _, ok := s.streams[id]; !ok {
					want = fmt.Errorf("%w: %d on server %s", ErrUnknownReservation, id, s.id)
				}
				if err := s.Release(id); !sameError(err, want) {
					t.Errorf("step %d: Release(%d) = %v, reference %v", i, id, err, want)
					return false
				}
			case opDegrade:
				if err := s.SetDegradation(st.Fraction); err != nil {
					t.Fatal(err)
				}
			case opAdmit:
				if err, want := s.Admit(st.Q), refAdmit(s, s.chargedRate(st.Q)); !sameError(err, want) {
					t.Errorf("step %d: Admit(%v) = %v, reference %v", i, st.Q, err, want)
					return false
				}
			case opUtilization:
				if got, want := s.Utilization(), refUtilization(s); got != want {
					t.Errorf("step %d: Utilization = %v, reference %v", i, got, want)
					return false
				}
			case opOvercommitted:
				got, want := s.Overcommitted(), refOvercommitted(s)
				if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Errorf("step %d: Overcommitted =\n\t%v\nreference\n\t%v", i, got, want)
					return false
				}
				if len(got) > 0 {
					victimSweeps++
				}
			}
			if got, want := s.demand, refDemand(s); got != want {
				t.Errorf("step %d (%v): running demand %d, re-summed %d", i, st.Op, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1996))}); err != nil {
		t.Fatal(err)
	}
	// The generator must reach every outcome, or the test proves little.
	if admitted < 1000 || refusedBudget < 200 || refusedCap < 200 || victimSweeps < 200 {
		t.Fatalf("admitted %d, refused by budget %d, by cap %d, sweeps with victims %d: the scenarios are too one-sided",
			admitted, refusedBudget, refusedCap, victimSweeps)
	}
	t.Logf("admitted %d, refused by budget %d, by cap %d, sweeps with victims %d", admitted, refusedBudget, refusedCap, victimSweeps)
}

// TestAdmissionCostGates pins what a step-5 attempt costs a congested
// server: a refused Reserve allocates at most its one error value, on
// either refusal, and a sweep of a server whose streams all fit allocates
// nothing.
func TestAdmissionCostGates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxStreams = 0
	s := MustServer("s1", cfg)
	s.Instrument(telemetry.NewRegistry())
	q := stream(qos.MBitPerSecond)
	for i := 0; i < 30; i++ {
		if _, err := s.Reserve(q); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if over := s.Overcommitted(); over != nil {
			t.Fatalf("healthy server reports %d victims", len(over))
		}
	}); allocs != 0 {
		t.Errorf("clean Overcommitted allocated %.1f objects, want 0", allocs)
	}
	if err := s.SetDegradation(0.5); err != nil {
		t.Fatal(err)
	}
	refuse := func() {
		if _, err := s.Reserve(q); !errors.Is(err, ErrAdmission) {
			t.Fatalf("Reserve = %v, want an admission refusal", err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, refuse); allocs > 1 {
		t.Errorf("budget refusal allocated %.1f objects, want at most 1", allocs)
	}
	capped := MustServer("s2", smallConfig())
	for i := 0; i < smallConfig().MaxStreams; i++ {
		if _, err := capped.Reserve(qos.NetworkQoS{}); err != nil {
			t.Fatal(err)
		}
	}
	s = capped
	if allocs := testing.AllocsPerRun(1000, refuse); allocs > 1 {
		t.Errorf("stream-cap refusal allocated %.1f objects, want at most 1", allocs)
	}
}
