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

// routeScenario is an openScenario whose requests are interleaved with
// links added mid-sequence, the input of the route cache's differential
// test.
type routeScenario struct {
	openScenario
	// Adds maps a step index to the links installed just before it.
	Adds map[int][]Link
}

// Generate draws an openScenario, then links between its nodes (and now
// and then a new node) to add before a quarter of its steps.
func (routeScenario) Generate(rng *rand.Rand, size int) reflect.Value {
	s := routeScenario{openScenario: openScenario{}.Generate(rng, size).Interface().(openScenario), Adds: map[int][]Link{}}
	for i := range s.Steps {
		if i == 0 || rng.Intn(4) != 0 {
			continue
		}
		for j := 0; j < 1+rng.Intn(3); j++ {
			a, b := rng.Intn(s.Nodes+1), rng.Intn(s.Nodes+1)
			if a == b {
				continue
			}
			s.Adds[i] = append(s.Adds[i], Link{
				ID:       LinkID(fmt.Sprintf("x%d.%d", i, j)),
				From:     NodeID(fmt.Sprintf("n%d", a)),
				To:       NodeID(fmt.Sprintf("n%d", b)),
				Capacity: qos.BitRate(1+rng.Intn(2)) * 10 * qos.MBitPerSecond,
				Delay:    time.Duration(1+rng.Intn(3)) * time.Millisecond,
				Jitter:   time.Duration(rng.Intn(3)) * time.Millisecond,
				Loss:     float64(rng.Intn(3)) * 0.0005,
			})
		}
	}
	return reflect.ValueOf(s)
}

// refPath is one feasible path the reference walk found.
type refPath struct {
	path    Path
	metrics PathMetrics
}

// walkRef is the reference for the route cache: the depth-first walk Open
// and FindPaths ran before routes were cached. From src, over each node's
// links in installation order and pruning links that cannot carry the
// rate, it collects the first 4k feasible loop-free paths of at most
// maxHops links.
func walkRef(n *Network, src, dst NodeID, q qos.NetworkQoS, k int) ([]refPath, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, okS := n.nodes[src]
	d, okD := n.nodes[dst]
	if !okS || !okD {
		return nil, fmt.Errorf("%w: unknown endpoint %s or %s", ErrNoPath, src, dst)
	}
	limit := 4 * max(k, 1)
	visited := make([]bool, len(n.out))
	var stack []*linkState
	var found []refPath
	var walk func(at int)
	walk = func(at int) {
		if len(found) >= limit && len(stack) > 0 {
			return
		}
		if at == d {
			if m := linksMetrics(stack); feasibleLocked(m, q) {
				found = append(found, refPath{pathOf(stack), m})
			}
			return
		}
		if len(stack) >= maxHops {
			return
		}
		for _, ls := range n.out[at] {
			if visited[ls.to] || availableLocked(ls) < q.AvgBitRate {
				continue
			}
			visited[ls.to] = true
			stack = append(stack, ls)
			walk(ls.to)
			stack = stack[:len(stack)-1]
			visited[ls.to] = false
		}
	}
	visited[s] = true
	walk(s)
	if len(found) == 0 {
		return nil, fmt.Errorf("%w: %s → %s for %v", ErrNoPath, src, dst, q)
	}
	return found, nil
}

// findRef is FindPaths over the reference walk: the walk's paths, stably
// sorted best-first, cut to k.
func findRef(n *Network, src, dst NodeID, q qos.NetworkQoS, k int) ([]Path, error) {
	found, err := walkRef(n, src, dst, q, k)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(found, func(i, j int) bool { return found[i].metrics.better(found[j].metrics) })
	var out []Path
	for _, f := range found[:min(len(found), max(k, 1))] {
		out = append(out, f.path)
	}
	return out, nil
}

// openRef is Open over the reference walk: the earliest best path, then
// Reserve and Metrics on it.
func openRef(n *Network, src, dst NodeID, q qos.NetworkQoS, k int) (Reservation, PathMetrics, error) {
	found, err := walkRef(n, src, dst, q, k)
	if err != nil {
		return Reservation{}, PathMetrics{}, err
	}
	best := found[0]
	for _, f := range found[1:] {
		if f.metrics.better(best.metrics) {
			best = f
		}
	}
	r, err := n.Reserve(best.path, q)
	if err != nil {
		return Reservation{}, PathMetrics{}, err
	}
	m, err := n.Metrics(best.path)
	return r, m, err
}

// TestRoutesMatchWalk is the differential test of the route cache: on two
// clones of one random network, with links added between requests, every
// FindPaths and Open on one returns the same paths, metrics, reservation id
// and error as the reference walk on the other, and both leave the same
// link availability, counters and ledger entries behind.
func TestRoutesMatchWalk(t *testing.T) {
	var opened, refused, added int
	f := func(s routeScenario) bool {
		a, b := s.build(t), s.build(t)
		var ra, rb []Reservation
		for i, st := range s.Steps {
			for _, l := range s.Adds[i] {
				errA, errB := a.n.AddLink(l), b.n.AddLink(l)
				if (errA == nil) != (errB == nil) {
					t.Errorf("step %d: AddLink %s: %v vs %v", i, l.ID, errA, errB)
					return false
				}
				added++
			}
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
			p1, err1 := a.n.FindPaths(st.Src, st.Dst, st.Q, st.K)
			p2, err2 := findRef(b.n, st.Src, st.Dst, st.Q, st.K)
			if fmt.Sprint(err1) != fmt.Sprint(err2) || !reflect.DeepEqual(p1, p2) {
				t.Errorf("step %d %+v:\n\tFindPaths %v %v\n\twalk      %v %v", i, st, p1, err1, p2, err2)
				return false
			}
			r1, m1, err1 := a.n.Open(st.Src, st.Dst, st.Q, st.K)
			r2, m2, err2 := openRef(b.n, st.Src, st.Dst, st.Q, st.K)
			if errors.Is(err1, ErrNoPath) != errors.Is(err2, ErrNoPath) || fmt.Sprint(err1) != fmt.Sprint(err2) {
				t.Errorf("step %d %+v: Open err %v, walk err %v", i, st, err1, err2)
				return false
			}
			if !reflect.DeepEqual(r1, r2) || m1 != m2 {
				t.Errorf("step %d %+v:\n\tOpen %+v %+v\n\twalk %+v %+v", i, st, r1, m1, r2, m2)
				return false
			}
			if sa, sb := a.state(), b.state(); sa != sb {
				t.Errorf("step %d %+v: state diverged\n\tOpen %s\n\twalk %s", i, st, sa, sb)
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
	if opened < 200 || refused < 200 || added < 200 {
		t.Fatalf("opened %d, refused %d, links added %d: the scenarios are too one-sided", opened, refused, added)
	}
	t.Logf("%d requests opened, %d refused, %d links added mid-sequence", opened, refused, added)
}

// TestOpenAllocatesOnlyThePath pins Open's cost. Open+Release on a pair
// opened before reads the pair's cached routes and the network's scratch,
// and the reservation shares its route's Path, so it allocates nothing.
// The first Open of a pair enumerates the pair's routes into three
// exact-size arrays — the routes, their links and their Path copies, each
// laid out back to back — and, on the star below, allocates exactly those
// three: the first pair already made the cache map's storage.
func TestOpenAllocatesOnlyThePath(t *testing.T) {
	n, err := BuildStar(StarSpec{Clients: []NodeID{"c1", "c2"}, Servers: []NodeID{"s1", "s2", "s3"}})
	if err != nil {
		t.Fatal(err)
	}
	n.Instrument(telemetry.NewRegistry())
	n.SetLedger(ledger.New())
	dual := dualPath(t)
	q := request(2 * qos.MBitPerSecond)
	open := func(n *Network, src, dst NodeID) Reservation {
		r, _, err := n.Open(src, dst, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Release(r.ID); err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, tc := range []struct {
		name     string
		n        *Network
		src, dst NodeID
	}{
		{"star", n, "s2", "c1"},
		{"dual path", dual, "server", "client"},
	} {
		first := open(tc.n, tc.src, tc.dst) // cache the pair's routes
		if allocs := testing.AllocsPerRun(1000, func() { open(tc.n, tc.src, tc.dst) }); allocs != 0 {
			t.Errorf("%s: Open+Release on an opened pair allocated %.0f objects, want 0", tc.name, allocs)
		}
		if again := open(tc.n, tc.src, tc.dst); &again.Path[0] != &first.Path[0] {
			t.Errorf("%s: two reservations on one route hold separate copies of it", tc.name)
		}
	}
	// Each call opens a pair the star has not opened before; AllocsPerRun
	// spends the first on its warm-up run.
	fresh := [][2]NodeID{{"s3", "c1"}, {"s1", "c2"}}
	if allocs := testing.AllocsPerRun(1, func() {
		open(n, fresh[0][0], fresh[0][1])
		fresh = fresh[1:]
	}); allocs != 3 {
		t.Errorf("star: the first Open of a pair allocated %.0f objects, want exactly 3 (its routes, their links, their Path copies)", allocs)
	}
}

// BenchmarkNetworkOpen times Open+Release on a pair opened before, on the
// adapt-storm star (8 clients, 3 servers) and on the dual path.
func BenchmarkNetworkOpen(b *testing.B) {
	spec := StarSpec{}
	for i := 1; i <= 8; i++ {
		spec.Clients = append(spec.Clients, NodeID(fmt.Sprintf("client-%d", i)))
	}
	for i := 1; i <= 3; i++ {
		spec.Servers = append(spec.Servers, NodeID(fmt.Sprintf("server-%d", i)))
	}
	star, err := BuildStar(spec)
	if err != nil {
		b.Fatal(err)
	}
	dual, err := BuildDualPath("client", "server", 20*qos.MBitPerSecond, 10*qos.MBitPerSecond)
	if err != nil {
		b.Fatal(err)
	}
	q := request(2 * qos.MBitPerSecond)
	for _, bc := range []struct {
		name     string
		n        *Network
		src, dst NodeID
	}{
		{"star=8x3", star, "server-2", "client-5"},
		{"dualpath", dual, "server", "client"},
	} {
		openRelease := func(b *testing.B) {
			r, _, err := bc.n.Open(bc.src, bc.dst, q, 3)
			if err != nil {
				b.Fatal(err)
			}
			if err := bc.n.Release(r.ID); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(bc.name, func(b *testing.B) {
			openRelease(b) // open the pair
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				openRelease(b)
			}
		})
	}
}
