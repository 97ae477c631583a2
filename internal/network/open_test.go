package network

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"qosneg/internal/ledger"
	"qosneg/internal/qos"
	"qosneg/internal/telemetry"
)

// openScenario is a random topology plus a sequence of path requests, the
// input of the Open differential test.
type openScenario struct {
	Nodes    int
	Links    []Link
	Degraded map[LinkID]float64
	Steps    []openStep
}

// openStep is one request; Release, when set, instead releases the
// reservation made by an earlier step.
type openStep struct {
	Src, Dst NodeID
	Q        qos.NetworkQoS
	K        int
	Release  int
}

// Generate draws a mesh of up to 7 nodes with capacities from a small set
// (so bottlenecks tie), some degraded links, and requests that include
// unknown endpoints, infeasible rates and tight jitter, loss and delay
// bounds.
func (openScenario) Generate(rng *rand.Rand, _ int) reflect.Value {
	node := func(i int) NodeID { return NodeID(fmt.Sprintf("n%d", i)) }
	s := openScenario{Nodes: 2 + rng.Intn(6), Degraded: map[LinkID]float64{}}
	caps := []qos.BitRate{4 * qos.MBitPerSecond, 10 * qos.MBitPerSecond, 10 * qos.MBitPerSecond, 20 * qos.MBitPerSecond}
	nlinks := rng.Intn(3 * s.Nodes)
	for i := 0; i < nlinks; i++ {
		a, b := rng.Intn(s.Nodes), rng.Intn(s.Nodes)
		if a == b {
			continue
		}
		l := Link{
			ID:       LinkID(fmt.Sprintf("l%d", i)),
			From:     node(a),
			To:       node(b),
			Capacity: caps[rng.Intn(len(caps))],
			Delay:    time.Duration(1+rng.Intn(3)) * time.Millisecond,
			Jitter:   time.Duration(rng.Intn(3)) * time.Millisecond,
			Loss:     float64(rng.Intn(3)) * 0.0005,
		}
		s.Links = append(s.Links, l)
		if rng.Intn(5) == 0 {
			s.Degraded[l.ID] = 0.25 * float64(1+rng.Intn(3))
		}
	}
	endpoint := func() NodeID {
		if rng.Intn(12) == 0 {
			return "ghost"
		}
		return node(rng.Intn(s.Nodes))
	}
	for i := 0; i < 12; i++ {
		if i > 0 && rng.Intn(4) == 0 {
			s.Steps = append(s.Steps, openStep{Release: 1 + rng.Intn(i)})
			continue
		}
		q := qos.NetworkQoS{AvgBitRate: qos.BitRate(1+rng.Intn(24)) * qos.MBitPerSecond / 2}
		q.MaxBitRate = 2 * q.AvgBitRate
		if rng.Intn(3) == 0 {
			q.Jitter = time.Duration(rng.Intn(6)) * time.Millisecond
		}
		if rng.Intn(3) == 0 {
			q.LossRate = float64(rng.Intn(3)) * 0.0005
		}
		if rng.Intn(3) == 0 {
			q.Delay = time.Duration(1+rng.Intn(8)) * time.Millisecond
		}
		s.Steps = append(s.Steps, openStep{Src: endpoint(), Dst: endpoint(), Q: q, K: rng.Intn(5)})
	}
	return reflect.ValueOf(s)
}

// openClone is one of the two identical networks a scenario runs on.
type openClone struct {
	n   *Network
	reg *telemetry.Registry
	led *ledger.Ledger
}

func (s openScenario) build(t *testing.T) openClone {
	t.Helper()
	c := openClone{n: New(), reg: telemetry.NewRegistry(), led: ledger.New()}
	for _, l := range s.Links {
		if err := c.n.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	for id, f := range s.Degraded {
		if err := c.n.SetLinkDegradation(id, f); err != nil {
			t.Fatal(err)
		}
	}
	c.n.Instrument(c.reg)
	c.n.SetLedger(c.led)
	return c
}

// state is everything observable about a clone's reservation state.
func (c openClone) state() string {
	var links []string
	for _, l := range linkIDs(c.n) {
		a, _ := c.n.Available(l)
		links = append(links, fmt.Sprintf("%s=%d", l, a))
	}
	acq, rel := c.led.Counts()
	return fmt.Sprintf("links %v admits %d rejects %d active %d ledger open %d acquires %d releases %d violations %v",
		links,
		c.reg.Counter("qosneg_network_admits_total", "").Value(),
		c.reg.Counter("qosneg_network_rejects_total", "").Value(),
		c.n.ActiveReservations(), c.led.Open(), acq, rel, c.led.Violations())
}

// linkIDs returns a network's link ids, sorted.
func linkIDs(n *Network) []LinkID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]LinkID, 0, len(n.links))
	for id := range n.links {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// findReserve is what Open replaces: FindPaths, Reserve the first path,
// then read its metrics — three critical sections.
func findReserve(n *Network, src, dst NodeID, q qos.NetworkQoS, k int) (Reservation, PathMetrics, error) {
	paths, err := n.FindPaths(src, dst, q, k)
	if err != nil {
		return Reservation{}, PathMetrics{}, err
	}
	r, err := n.Reserve(paths[0], q)
	if err != nil {
		return Reservation{}, PathMetrics{}, err
	}
	m, err := n.Metrics(paths[0])
	return r, m, err
}

// TestOpenMatchesFindReserve is the differential test of Open: on two
// clones of one random network, every request gets the same path, metrics,
// reservation id and error from Open as from FindPaths(...)[0] → Reserve →
// Metrics, and leaves the same link availability, admit/reject counters
// and ledger entries behind.
func TestOpenMatchesFindReserve(t *testing.T) {
	var opened, refused int
	f := func(s openScenario) bool {
		a, b := s.build(t), s.build(t)
		var ra, rb []Reservation
		for i, st := range s.Steps {
			if st.Release > 0 {
				if st.Release > len(ra) || ra[st.Release-1].ID == 0 {
					continue
				}
				errA, errB := a.n.Release(ra[st.Release-1].ID), b.n.Release(rb[st.Release-1].ID)
				if (errA == nil) != (errB == nil) {
					t.Errorf("step %d: release: %v vs %v", i, errA, errB)
					return false
				}
				ra[st.Release-1], rb[st.Release-1] = Reservation{}, Reservation{}
				continue
			}
			r1, m1, err1 := a.n.Open(st.Src, st.Dst, st.Q, st.K)
			r2, m2, err2 := findReserve(b.n, st.Src, st.Dst, st.Q, st.K)
			if errors.Is(err1, ErrNoPath) != errors.Is(err2, ErrNoPath) || fmt.Sprint(err1) != fmt.Sprint(err2) {
				t.Errorf("step %d %+v: Open err %v, FindPaths/Reserve err %v", i, st, err1, err2)
				return false
			}
			if !reflect.DeepEqual(r1, r2) || m1 != m2 {
				t.Errorf("step %d %+v:\n\tOpen        %+v %+v\n\tFind/Reserve %+v %+v", i, st, r1, m1, r2, m2)
				return false
			}
			if sa, sb := a.state(), b.state(); sa != sb {
				t.Errorf("step %d %+v: state diverged\n\tOpen         %s\n\tFind/Reserve %s", i, st, sa, sb)
				return false
			}
			if err1 != nil {
				refused++
			} else {
				opened++
			}
			ra, rb = append(ra, r1), append(rb, r2)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1996))}); err != nil {
		t.Fatal(err)
	}
	// The generator must exercise both outcomes, or the test proves little.
	if opened < 200 || refused < 200 {
		t.Fatalf("opened %d, refused %d: the scenarios are too one-sided", opened, refused)
	}
	t.Logf("%d requests opened, %d refused", opened, refused)
}

// TestOpenAllocatesOnlyThePath pins Open's cost: the reservation's copy of
// its path is the only allocation; the walk runs on scratch the network
// owns.
func TestOpenAllocatesOnlyThePath(t *testing.T) {
	n, err := BuildStar(StarSpec{Clients: []NodeID{"c1", "c2"}, Servers: []NodeID{"s1", "s2", "s3"}})
	if err != nil {
		t.Fatal(err)
	}
	n.Instrument(telemetry.NewRegistry())
	n.SetLedger(ledger.New())
	dual := dualPath(t)
	q := request(2 * qos.MBitPerSecond)
	for _, tc := range []struct {
		name     string
		n        *Network
		src, dst NodeID
	}{
		{"star", n, "s2", "c1"},
		{"dual path", dual, "server", "client"},
	} {
		open := func() {
			r, _, err := tc.n.Open(tc.src, tc.dst, q, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.n.Release(r.ID); err != nil {
				t.Fatal(err)
			}
		}
		open() // grow the walker's scratch
		if allocs := testing.AllocsPerRun(1000, open); allocs != 1 {
			t.Errorf("%s: Open+Release allocated %.0f objects, want exactly 1 (the path copy)", tc.name, allocs)
		}
	}
}
