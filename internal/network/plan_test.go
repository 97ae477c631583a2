package network

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"qosneg/internal/ledger"
	"qosneg/internal/qos"
	"qosneg/internal/telemetry"
)

// TestPlanMatchesOpen holds Plan to Open on two clones of one random
// network: planning the scenario's requests, each on top of the ones
// planned before it, picks the route, metrics and refusal that opening them
// one after another does, past planWidth too, and leaves the planned clone
// untouched. Releases are left out: a plan only adds.
func TestPlanMatchesOpen(t *testing.T) {
	f := func(s openScenario) bool {
		planned, opened := s.build(t), s.build(t)
		before := planned.state()
		var p Plan
		for i, st := range s.Steps {
			if st.Release > 0 {
				continue
			}
			next := p
			pm, perr := planned.n.Plan(st.Src, st.Dst, st.Q, st.K, &next)
			r, om, oerr := opened.n.Open(st.Src, st.Dst, st.Q, st.K)
			if (perr == nil) != (oerr == nil) || errors.Is(perr, ErrNoPath) != errors.Is(oerr, ErrNoPath) || pm != om {
				t.Errorf("step %d %+v:\n\tPlan %+v %v\n\tOpen %+v %v", i, st, pm, perr, om, oerr)
				return false
			}
			want := p.n
			if perr == nil {
				want++
				if got := next.last().rt.path; fmt.Sprint(got) != fmt.Sprint(r.Path) {
					t.Errorf("step %d %+v: Plan took %v, Open %v", i, st, got, r.Path)
					return false
				}
			}
			if next.n != want {
				t.Errorf("step %d: a plan of %d connections became %d", i, p.n, next.n)
				return false
			}
			p = next
		}
		if after := planned.state(); after != before {
			t.Errorf("Plan changed the network:\n\tbefore %s\n\tafter  %s", before, after)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// last returns the plan's latest charge.
func (p *Plan) last() *charge {
	if p.n > planWidth {
		return &p.more[p.n-planWidth-1]
	}
	return &p.fixed[p.n-1]
}

// TestPlanAllocatesNothing is the plan's allocation gate: on a pair opened
// before, a plan that fits allocates nothing, with connections already
// planned up to planWidth, and neither does one refused on a path another
// reservation holds. A plan no route could carry is refused as Open
// refuses it.
func TestPlanAllocatesNothing(t *testing.T) {
	n, err := BuildStar(StarSpec{Clients: []NodeID{"c1"}, Servers: []NodeID{"s1", "s2", "s3"}})
	if err != nil {
		t.Fatal(err)
	}
	n.Instrument(telemetry.NewRegistry())
	n.SetLedger(ledger.New())
	q := request(qos.MBitPerSecond)
	var p Plan
	for _, s := range []NodeID{"s1", "s2", "s3"} {
		if _, err = n.Plan(s, "c1", q, 3, &p); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		next := p
		if _, err := n.Plan("s2", "c1", q, 3, &next); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Plan on an opened pair allocated %.0f objects, want 0", allocs)
	}
	if got := n.ActiveReservations(); got != 0 {
		t.Errorf("planning left %d reservations", got)
	}
	// Another caller holds the client's access link.
	spare, _ := n.Available("access-c1:rev")
	if _, err := n.Reserve(Path{"access-c1:rev"}, request(spare-qos.MBitPerSecond/2)); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := n.Plan("s2", "c1", q, 3, &Plan{}); err != ErrPathHeld {
			t.Fatalf("a plan on a held path: %v, want ErrPathHeld", err)
		}
	}); allocs != 0 {
		t.Errorf("a Plan refused on a held path allocated %.0f objects, want 0", allocs)
	}
	if _, err := n.Plan("s2", "c1", request(qos.BitRate(1)<<40), 3, &Plan{}); !errors.Is(err, ErrNoPath) || errors.Is(err, ErrPathHeld) {
		t.Errorf("a plan no route could carry: %v, want ErrNoPath and not ErrPathHeld", err)
	}
}

// TestPlanMatchesWalk holds Plan to the reference walk on
// TestRoutesMatchWalk's scenarios, where links are added, reservations
// opened and released, and links degraded before the run: before every
// request, Plan on an empty plan picks the route, metrics and refusal the
// walk's Open picks, and charges nothing. TestPlanMatchesOpen covers plans
// of several connections.
func TestPlanMatchesWalk(t *testing.T) {
	var planned, refused int
	f := func(s routeScenario) bool {
		a, b := s.build(t), s.build(t)
		var ra, rb []Reservation
		for i, st := range s.Steps {
			for _, l := range s.Adds[i] {
				a.n.AddLink(l)
				b.n.AddLink(l)
			}
			if st.Release > 0 {
				if st.Release > len(ra) || ra[st.Release-1].ID == 0 {
					continue
				}
				a.n.Release(ra[st.Release-1].ID)
				b.n.Release(rb[st.Release-1].ID)
				ra[st.Release-1], rb[st.Release-1] = Reservation{}, Reservation{}
				continue
			}
			before := a.state()
			var p Plan
			pm, perr := a.n.Plan(st.Src, st.Dst, st.Q, st.K, &p)
			if after := a.state(); after != before {
				t.Errorf("step %d: Plan changed the network:\n\tbefore %s\n\tafter  %s", i, before, after)
				return false
			}
			r1, _, _ := a.n.Open(st.Src, st.Dst, st.Q, st.K)
			r2, wm, werr := openRef(b.n, st.Src, st.Dst, st.Q, st.K)
			if (perr == nil) != (werr == nil) || errors.Is(perr, ErrNoPath) != errors.Is(werr, ErrNoPath) || pm != wm {
				t.Errorf("step %d %+v:\n\tPlan %+v %v\n\twalk %+v %v", i, st, pm, perr, wm, werr)
				return false
			}
			if perr == nil {
				if got := p.last().rt.path; fmt.Sprint(got) != fmt.Sprint(r2.Path) {
					t.Errorf("step %d %+v: Plan took %v, the walk %v", i, st, got, r2.Path)
					return false
				}
				planned++
			} else {
				if p.Len() != 0 {
					t.Errorf("step %d: a refused Plan grew the plan to %d", i, p.Len())
					return false
				}
				refused++
			}
			ra, rb = append(ra, r1), append(rb, r2)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1996))}); err != nil {
		t.Fatal(err)
	}
	if planned < 100 || refused < 100 {
		t.Fatalf("planned %d, refused %d: the scenarios are too one-sided", planned, refused)
	}
	t.Logf("%d requests planned, %d refused", planned, refused)
}
