package ledger_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"qosneg/internal/cmfs"
	"qosneg/internal/ledger"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/qos"
	"qosneg/internal/telemetry"
)

// stream is the network QoS of one 1.5 Mbit/s video stream.
var stream = qos.NetworkQoS{AvgBitRate: 1500 * qos.KBitPerSecond, MaxBitRate: 2 * qos.MBitPerSecond,
	Jitter: 20 * time.Millisecond, LossRate: 0.01}

// substrates is what the ledger reads in these tests: two CMFS servers and
// a network joining server-1 to client-1, each registered with l.
type substrates struct {
	servers [2]*cmfs.Server
	net     *network.Network
}

func newSubstrates(t *testing.T, l *ledger.Ledger) substrates {
	t.Helper()
	var s substrates
	for i, id := range []string{"server-1", "server-2"} {
		s.servers[i] = cmfs.MustServer(media.ServerID(id), cmfs.DefaultConfig())
		s.servers[i].SetLedger(l)
	}
	s.net = network.New()
	if err := s.net.AddDuplex("l1", "server-1", "client-1", 100*qos.MBitPerSecond, 5*time.Millisecond, time.Millisecond, 0.001); err != nil {
		t.Fatal(err)
	}
	s.net.SetLedger(l)
	return s
}

func (s substrates) reserve(t *testing.T, server int) cmfs.ReservationID {
	t.Helper()
	r, err := s.servers[server].Reserve(stream)
	if err != nil {
		t.Fatal(err)
	}
	return r.ID
}

func (s substrates) open(t *testing.T) network.ReservationID {
	t.Helper()
	r, _, err := s.net.Open("server-1", "client-1", stream, 1)
	if err != nil {
		t.Fatal(err)
	}
	return r.ID
}

func TestBalancedAccountIsEmpty(t *testing.T) {
	l := ledger.New()
	s := newSubstrates(t, l)
	stream, path := s.reserve(t, 0), s.open(t)
	if err := s.servers[0].Release(stream); err != nil {
		t.Fatal(err)
	}
	if err := s.net.Release(path); err != nil {
		t.Fatal(err)
	}
	if err := l.CheckEmpty(); err != nil {
		t.Fatal(err)
	}
	if a, r := l.Counts(); a != 2 || r != 2 {
		t.Errorf("counts = %d/%d", a, r)
	}
	if l.Open() != 0 {
		t.Errorf("open = %d", l.Open())
	}
}

func TestLeakDetected(t *testing.T) {
	l := ledger.New()
	s := newSubstrates(t, l)
	id := s.reserve(t, 0)
	err := l.CheckEmpty()
	if err == nil {
		t.Fatal("leak not detected")
	}
	if want := fmt.Sprintf("cmfs[server-1]/%d", id); !strings.Contains(err.Error(), want) {
		t.Errorf("leak not named %s: %v", want, err)
	}
}

func TestDoubleReleaseIsViolation(t *testing.T) {
	l := ledger.New()
	s := newSubstrates(t, l)
	var seen []string
	l.OnViolation(func(msg string) { seen = append(seen, msg) })
	id := s.open(t)
	if err := s.net.Release(id); err != nil {
		t.Fatal(err)
	}
	if err := s.net.Release(id); err == nil {
		t.Fatal("second release succeeded")
	}
	if len(seen) != 1 || !strings.Contains(seen[0], "double release") {
		t.Fatalf("violation callback = %v", seen)
	}
	if got := l.Violations(); len(got) != 1 {
		t.Errorf("violations = %v", got)
	}
	if a, r := l.Counts(); a != 1 || r != 2 {
		t.Errorf("counts = %d/%d, want 1/2: the bad release counts", a, r)
	}
	if err := l.CheckEmpty(); err == nil {
		t.Error("violations must fail the quiescence check")
	}
}

func TestInstrumentedCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	l := ledger.New()
	l.Instrument(reg)
	s := newSubstrates(t, l)
	first := s.reserve(t, 0)
	s.reserve(t, 0)
	if err := s.servers[0].Release(first); err != nil {
		t.Fatal(err)
	}
	if got := openGauge(reg); got != 1 {
		t.Errorf("open gauge = %d", got)
	}
	leaked := func() uint64 { return reg.Snapshot().CounterValue(ledger.MetricLeaked, "") }
	if leaked() != 0 {
		t.Errorf("leaked = %d before check", leaked())
	}
	if err := l.CheckEmpty(); err == nil {
		t.Fatal("leak not detected")
	}
	if leaked() != 1 {
		t.Errorf("leaked = %d after check", leaked())
	}
	// A double release counts immediately.
	id := s.open(t)
	s.net.Release(id)
	s.net.Release(id)
	if leaked() != 2 {
		t.Errorf("leaked = %d after double release", leaked())
	}
}

// openGauge reads the open-resources gauge from a snapshot of reg; -1 when
// it is not registered.
func openGauge(reg *telemetry.Registry) int64 {
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == ledger.MetricOpen {
			return g.Value
		}
	}
	return -1
}

func TestNilLedgerIsInert(t *testing.T) {
	var l *ledger.Ledger
	s := newSubstrates(t, l)
	s.reserve(t, 0)
	id := s.open(t)
	s.net.Release(id)
	s.net.Release(id)
	l.Acquire(ledger.KindCMFS, "s", 1)
	l.Release(ledger.KindCMFS, "s", 1)
	l.BadRelease(ledger.KindNetwork, "", 1)
	l.OnViolation(func(string) { t.Error("a nil ledger reported a violation") })
	l.Instrument(telemetry.NewRegistry())
	if l.Open() != 0 || l.Violations() != nil || l.CheckEmpty() != nil {
		t.Error("nil ledger must be inert")
	}
	if a, r := l.Counts(); a != 0 || r != 0 {
		t.Error("nil ledger counts")
	}
}

// TestInstrumentMidTrafficIsExact installs telemetry while the substrates
// grant and release concurrently: the open gauge must still equal the open
// count afterwards, whichever side of the installation each grant fell on.
func TestInstrumentMidTrafficIsExact(t *testing.T) {
	l := ledger.New()
	s := newSubstrates(t, l)
	const grants = 400 // each worker keeps every 100th
	var wg sync.WaitGroup
	for _, srv := range s.servers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= grants; i++ {
				r, err := srv.Reserve(stream)
				if err == nil && i%100 != 0 {
					err = srv.Release(r.ID)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= grants; i++ {
			r, _, err := s.net.Open("server-1", "client-1", stream, 1)
			if err == nil && i%100 != 0 {
				err = s.net.Release(r.ID)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	reg := telemetry.NewRegistry()
	l.Instrument(reg)
	wg.Wait()
	if got, want := openGauge(reg), int64(l.Open()); got != want || want != 3*grants/100 {
		t.Fatalf("open gauge = %d, Open = %d, want both %d", got, want, 3*grants/100)
	}
	if a, r := l.Counts(); a != 3*grants || r != 3*grants-3*grants/100 {
		t.Errorf("counts = %d/%d, want %d/%d", a, r, 3*grants, 3*grants-3*grants/100)
	}
}
