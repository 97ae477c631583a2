package network

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"qosneg/internal/qos"
)

func request(rate qos.BitRate) qos.NetworkQoS {
	return qos.NetworkQoS{MaxBitRate: rate * 2, AvgBitRate: rate, Jitter: 10 * time.Millisecond, LossRate: 0.003}
}

func dualPath(t *testing.T) *Network {
	t.Helper()
	n, err := BuildDualPath("client", "server", 10*qos.MBitPerSecond, 4*qos.MBitPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestLinkValidate(t *testing.T) {
	good := Link{ID: "l", From: "a", To: "b", Capacity: 1000, Delay: time.Millisecond, Jitter: time.Millisecond, Loss: 0.001}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}
	bad := []Link{
		{ID: "", From: "a", To: "b", Capacity: 1},
		{ID: "l", From: "a", To: "a", Capacity: 1},
		{ID: "l", From: "", To: "b", Capacity: 1},
		{ID: "l", From: "a", To: "b", Capacity: 0},
		{ID: "l", From: "a", To: "b", Capacity: 1, Delay: -1},
		{ID: "l", From: "a", To: "b", Capacity: 1, Loss: 1},
		{ID: "l", From: "a", To: "b", Capacity: 1, Loss: -0.1},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad link %d accepted", i)
		}
	}
}

func TestAddLinkDuplicate(t *testing.T) {
	n := New()
	l := Link{ID: "l", From: "a", To: "b", Capacity: 1000}
	if err := n.AddLink(l); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink(l); err == nil {
		t.Error("duplicate link id accepted")
	}
	if _, ok := n.Link("l"); !ok {
		t.Error("link not retrievable")
	}
	if _, ok := n.Link("ghost"); ok {
		t.Error("ghost link found")
	}
	nodes := n.Nodes()
	if len(nodes) != 2 || nodes[0] != "a" || nodes[1] != "b" {
		t.Errorf("Nodes = %v", nodes)
	}
}

func TestFindPathsPrefersFewestHops(t *testing.T) {
	n := dualPath(t)
	paths, err := n.FindPaths("client", "server", request(qos.MBitPerSecond), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("found %d paths, want 2 (primary + backup)", len(paths))
	}
	if len(paths[0]) != 3 || len(paths[1]) != 4 {
		t.Errorf("path lengths %d, %d; want 3 (primary) then 4 (backup)", len(paths[0]), len(paths[1]))
	}
	m, err := n.Metrics(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if m.Hops != 3 || m.Delay != 4*time.Millisecond || m.Jitter != 4*time.Millisecond {
		t.Errorf("primary metrics = %+v", m)
	}
}

func TestFindPathsInfeasibleRate(t *testing.T) {
	n := dualPath(t)
	// 20 Mbit/s exceeds both routes.
	if _, err := n.FindPaths("client", "server", request(20*qos.MBitPerSecond), 3); !errors.Is(err, ErrNoPath) {
		t.Errorf("want ErrNoPath, got %v", err)
	}
	// Unknown endpoints.
	if _, err := n.FindPaths("ghost", "server", request(1), 1); !errors.Is(err, ErrNoPath) {
		t.Errorf("unknown endpoint: %v", err)
	}
}

func TestFindPathsJitterBound(t *testing.T) {
	n := dualPath(t)
	// Tight jitter budget excludes the backup (8 ms total) but not the
	// primary (4 ms).
	q := request(qos.MBitPerSecond)
	q.Jitter = 5 * time.Millisecond
	paths, err := n.FindPaths("client", "server", q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 3 {
		t.Errorf("jitter bound should leave only the primary; got %d paths", len(paths))
	}
}

func TestFindPathsLossBound(t *testing.T) {
	n := dualPath(t)
	q := request(qos.MBitPerSecond)
	q.LossRate = 0.0001 // below any route's composed loss
	if _, err := n.FindPaths("client", "server", q, 3); !errors.Is(err, ErrNoPath) {
		t.Errorf("loss bound not enforced: %v", err)
	}
}

func TestReserveReleaseLifecycle(t *testing.T) {
	n := dualPath(t)
	q := request(6 * qos.MBitPerSecond)
	paths, err := n.FindPaths("client", "server", q, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := n.Reserve(paths[0], q)
	if err != nil {
		t.Fatal(err)
	}
	if n.ActiveReservations() != 1 {
		t.Errorf("ActiveReservations = %d", n.ActiveReservations())
	}
	// The 10 Mbit/s primary now has 4 Mbit/s spare: a second 6 Mbit/s
	// request must use the backup... which only has 4. So: no path.
	if _, err := n.FindPaths("client", "server", q, 1); !errors.Is(err, ErrNoPath) {
		t.Errorf("capacity accounting broken: %v", err)
	}
	// A 3 Mbit/s request fits on either route.
	if _, err := n.FindPaths("client", "server", request(3*qos.MBitPerSecond), 2); err != nil {
		t.Errorf("3 Mbit/s should fit: %v", err)
	}
	if err := n.Release(r.ID); err != nil {
		t.Fatal(err)
	}
	if err := n.Release(r.ID); !errors.Is(err, ErrUnknownReservation) {
		t.Errorf("double release: %v", err)
	}
	if _, err := n.FindPaths("client", "server", q, 1); err != nil {
		t.Errorf("release did not restore capacity: %v", err)
	}
}

func TestReserveAtomicity(t *testing.T) {
	n := dualPath(t)
	q := request(8 * qos.MBitPerSecond)
	paths, _ := n.FindPaths("client", "server", q, 1)
	if _, err := n.Reserve(paths[0], q); err != nil {
		t.Fatal(err)
	}
	// Same path again: must fail and leave capacities unchanged.
	if _, err := n.Reserve(paths[0], q); !errors.Is(err, ErrNoPath) {
		t.Fatalf("overcommit accepted: %v", err)
	}
	avail, _ := n.Available("access:fwd")
	if avail != 92*qos.MBitPerSecond {
		t.Errorf("access spare = %v, want 92 Mbit/s", avail)
	}
}

func TestReserveUnknownLink(t *testing.T) {
	n := dualPath(t)
	if _, err := n.Reserve(Path{"ghost"}, request(1)); err == nil {
		t.Error("unknown link accepted")
	}
}

func TestDegradationAndOvercommitted(t *testing.T) {
	n := dualPath(t)
	q := request(8 * qos.MBitPerSecond)
	paths, _ := n.FindPaths("client", "server", q, 1)
	r, err := n.Reserve(paths[0], q)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Overcommitted()) != 0 {
		t.Fatal("healthy network reports overcommitment")
	}
	// Degrade the primary inter-switch link to 50%: 5 Mbit/s < 8 reserved.
	if err := n.SetLinkDegradation("primary:fwd", 0.5); err != nil {
		t.Fatal(err)
	}
	victims := n.Overcommitted()
	if len(victims) != 1 || victims[0].ID != r.ID {
		t.Fatalf("victims = %+v", victims)
	}
	// Releasing the victim clears the overcommitment.
	if err := n.Release(r.ID); err != nil {
		t.Fatal(err)
	}
	if len(n.Overcommitted()) != 0 {
		t.Error("overcommitment persists after release")
	}
	// The backup route is still feasible for a smaller stream.
	if _, err := n.FindPaths("client", "server", request(3*qos.MBitPerSecond), 1); err != nil {
		t.Errorf("backup route gone: %v", err)
	}
	if err := n.SetLinkDegradation("ghost", 0.5); err == nil {
		t.Error("degrading unknown link accepted")
	}
	if err := n.SetLinkDegradation("primary:fwd", 1.5); err == nil {
		t.Error("fraction > 1 accepted")
	}
}

func TestBuildStar(t *testing.T) {
	n, err := BuildStar(StarSpec{
		Clients: []NodeID{"c1", "c2"},
		Servers: []NodeID{"s1", "s2", "s3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 clients + 3 servers + 1 switch.
	if got := len(n.Nodes()); got != 6 {
		t.Errorf("nodes = %d", got)
	}
	for _, c := range []NodeID{"c1", "c2"} {
		for _, s := range []NodeID{"s1", "s2", "s3"} {
			paths, err := n.FindPaths(s, c, request(2*qos.MBitPerSecond), 1)
			if err != nil || len(paths) != 1 || len(paths[0]) != 2 {
				t.Errorf("%s→%s: paths=%v err=%v", s, c, paths, err)
			}
		}
	}
	// Access links carry 10 Mbit/s by default: five 2 Mbit/s streams fill
	// the client access link.
	q := request(2 * qos.MBitPerSecond)
	for i := 0; i < 5; i++ {
		paths, err := n.FindPaths("s1", "c1", q, 1)
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		if _, err := n.Reserve(paths[0], q); err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}
	if _, err := n.FindPaths("s1", "c1", q, 1); !errors.Is(err, ErrNoPath) {
		t.Errorf("6th stream should be blocked: %v", err)
	}
	// The other client is unaffected.
	if _, err := n.FindPaths("s1", "c2", q, 1); err != nil {
		t.Errorf("c2 affected by c1 load: %v", err)
	}
}

func TestConcurrentReservations(t *testing.T) {
	n, err := BuildStar(StarSpec{Clients: []NodeID{"c1"}, Servers: []NodeID{"s1"},
		AccessCapacity: 1000 * qos.MBitPerSecond, BackboneCapacity: 1000 * qos.MBitPerSecond})
	if err != nil {
		t.Fatal(err)
	}
	q := request(qos.MBitPerSecond)
	paths, err := n.FindPaths("s1", "c1", q, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Half the goroutines Reserve the path found up front; the other half
	// Open the reverse pair, whose routes the first of them caches.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(open bool) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var r Reservation
				var err error
				if open {
					r, _, err = n.Open("c1", "s1", q, 1)
				} else {
					r, err = n.Reserve(paths[0], q)
				}
				if err != nil {
					continue
				}
				if err := n.Release(r.ID); err != nil {
					t.Error(err)
					return
				}
			}
		}(i%2 == 1)
	}
	wg.Wait()
	if n.ActiveReservations() != 0 {
		t.Errorf("leaked %d reservations", n.ActiveReservations())
	}
	for _, l := range []LinkID{"access-c1:rev", "access-c1:fwd"} {
		if avail, _ := n.Available(l); avail != 1000*qos.MBitPerSecond {
			t.Errorf("%s: capacity not restored: %v", l, avail)
		}
	}
}

// Property: reserve/release leaves every link's availability unchanged.
func TestReserveReleaseInvariantProperty(t *testing.T) {
	f := func(rateRaw uint32) bool {
		n, err := BuildDualPath("c", "s", 10*qos.MBitPerSecond, 4*qos.MBitPerSecond)
		if err != nil {
			return false
		}
		rate := qos.BitRate(rateRaw % 12_000_000)
		q := request(rate)
		before, _ := n.Available("primary:fwd")
		paths, err := n.FindPaths("c", "s", q, 1)
		if err != nil {
			return true
		}
		r, err := n.Reserve(paths[0], q)
		if err != nil {
			return true
		}
		n.Release(r.ID)
		after, _ := n.Available("primary:fwd")
		return before == after
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: best path returned first — no returned path has fewer hops than
// a later one reversed.
func TestPathOrderingProperty(t *testing.T) {
	n := dualPath(t)
	f := func(rateRaw uint32) bool {
		q := request(qos.BitRate(rateRaw % 4_000_000))
		paths, err := n.FindPaths("client", "server", q, 4)
		if err != nil {
			return true
		}
		for i := 1; i < len(paths); i++ {
			if len(paths[i]) < len(paths[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFindPathsDelayBound(t *testing.T) {
	n := dualPath(t)
	q := request(qos.MBitPerSecond)
	// Primary path delay 4 ms; backup 8 ms. A 5 ms bound keeps only the
	// primary.
	q.Delay = 5 * time.Millisecond
	paths, err := n.FindPaths("client", "server", q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 3 {
		t.Errorf("delay bound should leave only the primary; got %d paths", len(paths))
	}
	// A 1 ms bound excludes everything.
	q.Delay = time.Millisecond
	if _, err := n.FindPaths("client", "server", q, 3); !errors.Is(err, ErrNoPath) {
		t.Errorf("delay bound not enforced: %v", err)
	}
	// Zero means unconstrained.
	q.Delay = 0
	if _, err := n.FindPaths("client", "server", q, 3); err != nil {
		t.Errorf("unconstrained delay rejected: %v", err)
	}
}
