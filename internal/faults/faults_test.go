package faults_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/faults"
	"qosneg/internal/network"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/testbed"
	"qosneg/internal/transport"
)

func stream(rate qos.BitRate) qos.NetworkQoS {
	return qos.NetworkQoS{MaxBitRate: rate, AvgBitRate: rate}
}

func wrappedServer(t *testing.T, seed int64) (*faults.Injector, *faults.Server, *cmfs.Server) {
	t.Helper()
	inj := faults.New(seed)
	raw, err := cmfs.NewServer("server-1", cmfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return inj, inj.WrapServer(raw, "server-1"), raw
}

func tvProfile() profile.UserProfile {
	return profile.UserProfile{
		Name: "tv",
		Desired: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.CDQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
		},
		Worst: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.BlackWhite, FrameRate: 10, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.TelephoneQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
		},
		Importance: profile.DefaultImportance(),
	}
}

// TestCrashLosesReservations: a crash drops every reservation granted
// through the wrapper (state loss on the inner server) and refuses further
// work with core.ErrServerDown until Restart.
func TestCrashLosesReservations(t *testing.T) {
	_, ws, raw := wrappedServer(t, 1)
	r1, err := ws.Reserve(stream(2 * qos.MBitPerSecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Reserve(stream(qos.MBitPerSecond)); err != nil {
		t.Fatal(err)
	}
	if raw.ActiveStreams() != 2 {
		t.Fatalf("inner streams = %d", raw.ActiveStreams())
	}

	ws.Crash()
	if !ws.Down() {
		t.Error("Down() = false after Crash")
	}
	if raw.ActiveStreams() != 0 {
		t.Errorf("crash kept %d inner streams; restart must lose state", raw.ActiveStreams())
	}
	if _, err := ws.Reserve(stream(qos.MBitPerSecond)); !errors.Is(err, core.ErrServerDown) {
		t.Errorf("Reserve on crashed server: %v", err)
	}
	if err := ws.Release(r1.ID); !errors.Is(err, core.ErrServerDown) {
		t.Errorf("Release on crashed server: %v", err)
	}

	ws.Restart()
	if ws.Down() {
		t.Error("Down() = true after Restart")
	}
	if _, err := ws.Reserve(stream(qos.MBitPerSecond)); err != nil {
		t.Errorf("Reserve after restart: %v", err)
	}
	if raw.ActiveStreams() != 1 {
		t.Errorf("streams after restart = %d; pre-crash state must not return", raw.ActiveStreams())
	}
}

// TestCrashAfterReserves: the scheduled crash fires right after the n-th
// grant — the crash-between-Reserve-and-Connect window.
func TestCrashAfterReserves(t *testing.T) {
	_, ws, raw := wrappedServer(t, 1)
	ws.CrashAfterReserves(2)
	if _, err := ws.Reserve(stream(qos.MBitPerSecond)); err != nil {
		t.Fatal(err)
	}
	if ws.Down() {
		t.Fatal("crashed one Reserve early")
	}
	if _, err := ws.Reserve(stream(qos.MBitPerSecond)); err != nil {
		t.Fatalf("the crashing Reserve must still grant: %v", err)
	}
	if !ws.Down() {
		t.Fatal("server still up after the scheduled crash")
	}
	if raw.ActiveStreams() != 0 {
		t.Errorf("granted-then-lost reservations leaked: %d streams", raw.ActiveStreams())
	}
	if _, err := ws.Reserve(stream(qos.MBitPerSecond)); !errors.Is(err, core.ErrServerDown) {
		t.Errorf("Reserve after scheduled crash: %v", err)
	}
}

// TestInjectedReserveFailureDeterministic: the same seed replays the same
// failure schedule, and injected failures are ErrInjected (transient), not
// hard down evidence.
func TestInjectedReserveFailureDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		_, ws, _ := wrappedServer(t, seed)
		ws.SetReserveFailure(0.5)
		var out []bool
		for i := 0; i < 32; i++ {
			_, err := ws.Reserve(qos.NetworkQoS{})
			if err != nil && !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("injected failure has wrong sentinel: %v", err)
			}
			if errors.Is(err, core.ErrServerDown) {
				t.Fatalf("injected failure must not be ErrServerDown: %v", err)
			}
			out = append(out, err != nil)
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Errorf("p=0.5 produced %d/%d failures; schedule not probabilistic", fails, len(a))
	}
}

// TestTransportFaults: crashed nodes refuse connects in both directions,
// probabilistic connect failures are ErrInjected, and Close always reaches
// the inner transport.
func TestTransportFaults(t *testing.T) {
	net, err := network.BuildStar(network.StarSpec{
		Clients: []network.NodeID{"client-1"},
		Servers: []network.NodeID{"server-1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(1)
	wt := inj.WrapTransport(transport.New(net, 3))
	raw, err := cmfs.NewServer("server-1", cmfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ws := inj.WrapServer(raw, "server-1")

	c, err := wt.Connect("server-1", "client-1", stream(qos.MBitPerSecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.Close(c); err != nil {
		t.Fatal(err)
	}
	if net.ActiveReservations() != 0 {
		t.Fatalf("close leaked %d reservations", net.ActiveReservations())
	}

	ws.Crash()
	if _, err := wt.Connect("server-1", "client-1", stream(qos.MBitPerSecond)); !errors.Is(err, core.ErrServerDown) {
		t.Errorf("connect from crashed node: %v", err)
	}
	if _, err := wt.Connect("client-1", "server-1", stream(qos.MBitPerSecond)); !errors.Is(err, core.ErrServerDown) {
		t.Errorf("connect to crashed node: %v", err)
	}
	ws.Restart()

	wt.SetConnectFailure(1)
	if _, err := wt.Connect("server-1", "client-1", stream(qos.MBitPerSecond)); !errors.Is(err, faults.ErrInjected) {
		t.Errorf("forced connect failure: %v", err)
	}
	if net.ActiveReservations() != 0 {
		t.Errorf("failed connects leaked %d reservations", net.ActiveReservations())
	}
	wt.SetConnectFailure(0)
	if _, err := wt.Connect("server-1", "client-1", stream(qos.MBitPerSecond)); err != nil {
		t.Errorf("connect after clearing faults: %v", err)
	}
}

func TestInjectorRegistry(t *testing.T) {
	inj, _, _ := wrappedServer(t, 1)
	if _, ok := inj.Server("server-1"); !ok {
		t.Error("wrapped server not registered")
	}
	if inj.Crash("nope") {
		t.Error("Crash(unknown) = true")
	}
	if !inj.Crash("server-1") || !inj.Restart("server-1") {
		t.Error("Crash/Restart on a known server = false")
	}
	if got := len(inj.Servers()); got != 1 {
		t.Errorf("Servers() = %d entries", got)
	}
}

// TestNegotiationFailsOverCrashMidCommit is the end-to-end scenario the
// injector exists for: server-1 crashes immediately after granting its first
// reservation, the in-flight commit observes the crash and rolls back, and
// negotiation completes on the surviving replica with no leaked resources.
func TestNegotiationFailsOverCrashMidCommit(t *testing.T) {
	inj := faults.New(7)
	bed := testbed.MustNew(testbed.Spec{Faults: inj})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	ws, ok := inj.Server("server-1")
	if !ok {
		t.Fatal("server-1 not wrapped")
	}
	ws.CrashAfterReserves(1)

	res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Status.Reserved() {
		t.Fatalf("status = %v (%s); want failover onto server-2", res.Status, res.Reason)
	}
	streams := 0
	for _, ch := range res.Session.Current.Choices {
		if ch.Variant.Server == "server-1" {
			t.Errorf("committed %s on the crashed server", ch.Variant.ID)
		}
		if !ch.Variant.NetworkQoS().Zero() {
			streams++
		}
	}
	if got := bed.Network.ActiveReservations(); got != streams {
		t.Errorf("network reservations = %d for %d committed streams", got, streams)
	}
	if got := bed.Servers["server-1"].ActiveStreams(); got != 0 {
		t.Errorf("crashed server leaked %d streams", got)
	}
	if d, ok := bed.Manager.Quarantined("server-1"); !ok || d <= 0 {
		t.Errorf("crashed server not quarantined (%v, %v)", d, ok)
	}

	// After a restart and the quarantine lapsing the server serves again;
	// here we only assert the restart accepts work.
	ws.Restart()
	if _, err := ws.Reserve(stream(qos.MBitPerSecond)); err != nil {
		t.Errorf("restarted server refuses work: %v", err)
	}
}
