package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qosneg/internal/ledger"
	"qosneg/internal/network"
	"qosneg/internal/qos"
)

func request(rate qos.BitRate) qos.NetworkQoS {
	return qos.NetworkQoS{MaxBitRate: 2 * rate, AvgBitRate: rate, Jitter: 20 * time.Millisecond, LossRate: 0.01}
}

func dualPathSystem(t *testing.T) *System {
	t.Helper()
	n, err := network.BuildDualPath("client", "server", 10*qos.MBitPerSecond, 4*qos.MBitPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	return New(n, 3)
}

func TestConnectClose(t *testing.T) {
	s := dualPathSystem(t)
	c, err := s.Connect("server", "client", request(6*qos.MBitPerSecond))
	if err != nil {
		t.Fatal(err)
	}
	if c.Metrics.Hops != 3 {
		t.Errorf("expected the 3-hop primary, got %d hops", c.Metrics.Hops)
	}
	if s.Network().ActiveReservations() != 1 {
		t.Errorf("reservations = %d", s.Network().ActiveReservations())
	}
	if err := s.Close(c); err != nil {
		t.Fatal(err)
	}
	if s.Network().ActiveReservations() != 0 {
		t.Errorf("reservation leaked")
	}
}

func TestConnectFallsBackToAlternatePath(t *testing.T) {
	s := dualPathSystem(t)
	// Fill the primary (10 Mbit/s) with a 7 Mbit/s stream; a second
	// 3 Mbit/s stream fits either route, a third 4 Mbit/s one must take
	// the backup.
	first, err := s.Connect("server", "client", request(7*qos.MBitPerSecond))
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Connect("server", "client", request(4*qos.MBitPerSecond))
	if err != nil {
		t.Fatalf("backup route not used: %v", err)
	}
	if second.Metrics.Hops != 4 {
		t.Errorf("expected the 4-hop backup, got %d hops", second.Metrics.Hops)
	}
	_ = first
}

func TestConnectUnavailable(t *testing.T) {
	s := dualPathSystem(t)
	if _, err := s.Connect("server", "client", request(20*qos.MBitPerSecond)); !errors.Is(err, ErrUnavailable) {
		t.Errorf("want ErrUnavailable, got %v", err)
	}
}

func TestDiscreteMediaBypassNetwork(t *testing.T) {
	s := dualPathSystem(t)
	c, err := s.Connect("server", "client", qos.NetworkQoS{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Network().ActiveReservations() != 0 {
		t.Error("discrete media reserved bandwidth")
	}
	if err := s.Close(c); err != nil {
		t.Errorf("closing a zero connection: %v", err)
	}
}

func TestConcurrentConnects(t *testing.T) {
	n, err := network.BuildDualPath("client", "server", 10*qos.MBitPerSecond, 4*qos.MBitPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	s := New(n, 3)
	q := request(2 * qos.MBitPerSecond)
	var mu sync.Mutex
	var conns []Connection
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := s.Connect("server", "client", q)
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}()
	}
	wg.Wait()
	// Capacity: primary 10/2=5 streams, backup 4/2=2 streams → ≤7 total.
	if len(conns) == 0 || len(conns) > 7 {
		t.Errorf("established %d connections, want 1..7", len(conns))
	}
	for _, c := range conns {
		if err := s.Close(c); err != nil {
			t.Error(err)
		}
	}
	if n.ActiveReservations() != 0 {
		t.Errorf("leaked %d reservations", n.ActiveReservations())
	}
}

func TestNewClampsAlternates(t *testing.T) {
	n := network.New()
	s := New(n, 0)
	if s.alternates != 1 {
		t.Errorf("alternates = %d", s.alternates)
	}
}

// TestConcurrentConnectCloseNeverOvercommits runs Connect and Close from 8
// goroutines against a single 10 Mbit/s link that fits two 4 Mbit/s
// streams. Path choice and charge happen in one critical section, so no
// probe ever sees the link overcommitted, and every connection made is
// closed exactly once.
func TestConcurrentConnectCloseNeverOvercommits(t *testing.T) {
	n := network.New()
	if err := n.AddLink(network.Link{ID: "bottleneck", From: "server", To: "client",
		Capacity: 10 * qos.MBitPerSecond, Delay: time.Millisecond, Jitter: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	led := ledger.New()
	led.OnViolation(func(v string) { t.Errorf("ledger violation: %s", v) })
	n.SetLedger(led)
	s := New(n, 3)
	q := request(4 * qos.MBitPerSecond)
	var wg sync.WaitGroup
	var connected, refused atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				c, err := s.Connect("server", "client", q)
				if over := n.Overcommitted(); len(over) != 0 {
					t.Errorf("overcommitted: %+v", over)
					return
				}
				if err != nil {
					if !errors.Is(err, ErrUnavailable) {
						t.Errorf("connect: %v", err)
						return
					}
					refused.Add(1)
					continue
				}
				connected.Add(1)
				if err := s.Close(c); err != nil {
					t.Errorf("close: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n.ActiveReservations() != 0 {
		t.Errorf("leaked %d reservations", n.ActiveReservations())
	}
	if err := led.CheckEmpty(); err != nil {
		t.Error(err)
	}
	// One entry per connection: the network's reservation is the only
	// record of it.
	if acq, rel := led.Counts(); acq != rel || acq != uint64(connected.Load()) {
		t.Errorf("ledger: %d acquires, %d releases for %d connections", acq, rel, connected.Load())
	}
	if avail, _ := n.Available("bottleneck"); avail != 10*qos.MBitPerSecond {
		t.Errorf("bottleneck spare = %v after every close, want 10 Mbit/s", avail)
	}
	t.Logf("%d connections, %d refused", connected.Load(), refused.Load())
}
