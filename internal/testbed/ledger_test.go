package testbed

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/faults"
	"qosneg/internal/ledger"
	"qosneg/internal/network"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/telemetry"
)

// stream is the network QoS of one 1.5 Mbit/s video stream.
var stream = qos.NetworkQoS{AvgBitRate: 1500 * qos.KBitPerSecond, MaxBitRate: 2 * qos.MBitPerSecond,
	Jitter: 20 * time.Millisecond, LossRate: 0.01}

// substrateOpen is what the bed's substrates hold open: every server's
// streams and the network's reservations.
func substrateOpen(b *Bed) int {
	n := b.Network.ActiveReservations()
	for _, s := range b.Servers {
		n += s.ActiveStreams()
	}
	return n
}

// negotiate reserves a session for the tv-quality profile on news-1.
func negotiate(t *testing.T, b *Bed, client int) *core.Session {
	t.Helper()
	res, err := b.Manager.NegotiateContext(context.Background(), b.Client(client), "news-1", profile.DefaultProfiles()[0])
	if err != nil || res.Session == nil {
		t.Fatalf("negotiate: %v (%v)", err, res.Status)
	}
	return res.Session
}

// TestLedgerNamesUnreleasedReservations holds CheckEmpty to the substrates'
// tables: a stream reserved on a server and a connection established, and
// neither released, are named by the ids their substrates granted; released,
// the ledger is empty and counts one acquire and one release of each.
func TestLedgerNamesUnreleasedReservations(t *testing.T) {
	b := MustNew(Spec{})
	res, err := b.Servers["server-1"].Reserve(stream)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := b.Transit.Connect("server-1", "client-1", stream)
	if err != nil {
		t.Fatal(err)
	}
	err = b.Ledger.CheckEmpty()
	for _, want := range []string{fmt.Sprintf("cmfs[server-1]/%d", res.ID), fmt.Sprintf("network/%d", conn.Reservation.ID)} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("CheckEmpty = %v, want it to name %s", err, want)
		}
	}
	if !strings.Contains(fmt.Sprint(err), "2 resources leaked") {
		t.Errorf("CheckEmpty = %v, want 2 resources leaked: a connection is one", err)
	}
	if got := b.Ledger.Open(); got != 2 {
		t.Errorf("Open = %d, want 2", got)
	}
	if err := b.Servers["server-1"].Release(res.ID); err != nil {
		t.Fatal(err)
	}
	if err := b.Transit.Close(conn); err != nil {
		t.Fatal(err)
	}
	if err := b.Ledger.CheckEmpty(); err != nil {
		t.Error(err)
	}
	if a, r := b.Ledger.Counts(); a != 2 || r != 2 {
		t.Errorf("Counts = %d/%d, want 2/2", a, r)
	}
}

// TestLedgerNetworkDoubleRelease holds the network to reporting a release
// of an id it no longer holds: the violation callback fires at once, and the
// leak counter counts it.
func TestLedgerNetworkDoubleRelease(t *testing.T) {
	b := MustNew(Spec{})
	reg := telemetry.NewRegistry()
	b.Ledger.Instrument(reg)
	var seen []string
	b.Ledger.OnViolation(func(v string) { seen = append(seen, v) })
	conn, err := b.Transit.Connect("server-1", "client-1", stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Transit.Close(conn); err != nil {
		t.Fatal(err)
	}
	if err := b.Transit.Close(conn); err == nil {
		t.Fatal("second close succeeded")
	}
	want := fmt.Sprintf("network/%d", conn.Reservation.ID)
	if len(seen) != 1 || !strings.Contains(seen[0], "double release") || !strings.Contains(seen[0], want) {
		t.Fatalf("violations = %q, want one double release of %s", seen, want)
	}
	if got := reg.Counter(ledger.MetricLeaked, "").Value(); got != 1 {
		t.Errorf("%s = %d, want 1", ledger.MetricLeaked, got)
	}
	if b.Ledger.CheckEmpty() == nil {
		t.Error("a violation must fail the quiescence check")
	}
}

// TestLedgerOpenMatchesSubstrates holds Open, and the open-resources gauge,
// to the substrates' own counts through a run: sessions reserved, confirmed,
// rejected and completed, every count read after every step.
func TestLedgerOpenMatchesSubstrates(t *testing.T) {
	b := MustNew(Spec{Servers: 3})
	if _, err := b.AddNewsArticle("news-1", "Election night", time.Minute); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	b.Ledger.Instrument(reg)
	check := func(when string) {
		t.Helper()
		want := substrateOpen(b)
		if got := b.Ledger.Open(); got != want {
			t.Errorf("%s: Open = %d, substrates hold %d", when, got, want)
		}
		for _, g := range reg.Snapshot().Gauges {
			if g.Name == ledger.MetricOpen && g.Value != int64(want) {
				t.Errorf("%s: %s = %d, substrates hold %d", when, ledger.MetricOpen, g.Value, want)
			}
		}
	}
	var live []*core.Session
	for i := range 6 {
		live = append(live, negotiate(t, b, 1+i%2))
		check(fmt.Sprintf("after negotiation %d", i))
	}
	if substrateOpen(b) == 0 {
		t.Fatal("the sessions hold nothing")
	}
	for i, s := range live {
		var err error
		switch i % 3 {
		case 0:
			err = b.Manager.Reject(s.ID)
		case 1:
			if err = b.Manager.Confirm(s.ID); err == nil {
				check(fmt.Sprintf("after confirming %d", s.ID))
				err = b.Manager.Complete(s.ID)
			}
		default:
			err = b.Manager.Abort(s.ID)
		}
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after ending %d", s.ID))
	}
	if err := b.Ledger.CheckEmpty(); err != nil {
		t.Error(err)
	}
}

// TestLedgerEmptyAfterCrash holds a crash's releases to the ledger: a fault
// injector's crash takes the crashed server's streams out of its table at
// once, and winding the sessions down afterwards, although the crashed
// server refuses their releases, leaves the ledger empty.
func TestLedgerEmptyAfterCrash(t *testing.T) {
	inj := faults.New(1996)
	b := MustNew(Spec{Servers: 2, Faults: inj})
	if _, err := b.AddNewsArticle("news-1", "Election night", time.Minute); err != nil {
		t.Fatal(err)
	}
	var live []*core.Session
	for i := range 4 {
		live = append(live, negotiate(t, b, 1+i%2))
	}
	if b.Servers["server-1"].ActiveStreams() == 0 {
		t.Fatal("no session holds a stream on server-1")
	}
	inj.Crash("server-1")
	if got := b.Servers["server-1"].ActiveStreams(); got != 0 {
		t.Fatalf("crashed server-1 still holds %d streams", got)
	}
	if got, want := b.Ledger.Open(), substrateOpen(b); got != want {
		t.Errorf("after the crash: Open = %d, substrates hold %d", got, want)
	}
	for _, s := range live {
		b.Manager.Abort(s.ID)
	}
	if err := b.Ledger.CheckEmpty(); err != nil {
		t.Error(err)
	}
}

// TestLedgerReadsDuringStorm reads the ledger — Open, CheckEmpty and a
// metrics snapshot — while goroutines reserve and release on every server
// and connect and close on the network. Run under -race it finds no race;
// it finds no deadlock between the ledger's lock and the substrates'; and
// once the storm is over the ledger is empty.
func TestLedgerReadsDuringStorm(t *testing.T) {
	b := MustNew(Spec{Servers: 2})
	reg := telemetry.NewRegistry()
	b.Ledger.Instrument(reg)
	b.Network.Instrument(reg)
	var wg sync.WaitGroup
	for w, id := range b.ServerIDs() {
		srv, node := b.Servers[id], network.NodeID(id)
		client := network.NodeID(fmt.Sprintf("client-%d", 1+w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2000 {
				res, err := srv.Reserve(stream)
				if err != nil {
					continue
				}
				conn, err := b.Transit.Connect(node, client, stream)
				if err == nil {
					if err := b.Transit.Close(conn); err != nil {
						t.Error(err)
					}
				}
				if err := srv.Release(res.ID); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for reads := 0; ; reads++ {
		select {
		case <-done:
			if err := b.Ledger.CheckEmpty(); err != nil {
				t.Error(err)
			}
			if b.Ledger.Open() != 0 {
				t.Errorf("Open = %d after the storm", b.Ledger.Open())
			}
			t.Logf("%d reads during the storm", reads)
			return
		default:
		}
		if open := b.Ledger.Open(); open < 0 || open > 4 {
			t.Fatalf("Open = %d mid-storm, want 0..4", open)
		}
		b.Ledger.CheckEmpty()
		reg.Snapshot()
	}
}
