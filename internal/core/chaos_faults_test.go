package core_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/faults"
	"qosneg/internal/ledger"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/sim"
	"qosneg/internal/telemetry"
	"qosneg/internal/testbed"
)

// TestChaosWithFaultInjection extends the chaos harness with the fault
// injector: servers crash and restart mid-run (including scheduled
// crash-between-Reserve-and-Connect), Reserve/Connect fail probabilistically,
// and after every step the resource invariant must hold — live network
// reservations equal the streams committed by Reserved/Playing sessions, and
// nothing leaks once everything is wound down. Server crashes lose only
// server-side admission state; network reservations are owned by sessions
// and must survive until the session ends.
func TestChaosWithFaultInjection(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1996} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runFaultChaos(t, seed)
		})
	}
}

func chaosProfile() profile.UserProfile {
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

func runFaultChaos(t *testing.T, seed int64) {
	inj := faults.New(seed)
	opts := core.DefaultOptions()
	// A short cooldown so quarantined servers cycle back into service
	// within the run instead of parking half the catalog.
	opts.Health = core.HealthPolicy{
		FailureThreshold: 3,
		Cooldown:         10 * time.Millisecond,
		RetryAfter:       time.Millisecond,
	}
	reg := telemetry.NewRegistry()
	opts.Metrics = reg
	bed := testbed.MustNew(testbed.Spec{Faults: inj})
	man := bareManager(bed, inj, opts)
	bed.Ledger.Instrument(reg)
	bed.Ledger.OnViolation(func(v string) {
		t.Errorf("seed %d: %s", seed, v)
	})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(seed)
	var live []core.SessionID
	serverIDs := bed.ServerIDs()
	randomServer := func() *faults.Server {
		s, ok := inj.Server(serverIDs[rng.Intn(len(serverIDs))])
		if !ok {
			t.Fatal("server not wrapped")
		}
		return s
	}
	pickLive := func() (core.SessionID, bool) {
		if len(live) == 0 {
			return 0, false
		}
		return live[rng.Intn(len(live))], true
	}

	countCommitted := func() int {
		n := 0
		for _, state := range []core.SessionState{core.Reserved, core.Playing} {
			for _, s := range bed.Manager.Sessions(state) {
				for _, ch := range s.Current.Choices {
					if !ch.Variant.NetworkQoS().Zero() {
						n++
					}
				}
			}
		}
		return n
	}
	checkInvariant := func(step int) {
		t.Helper()
		want := countCommitted()
		got := bed.Network.ActiveReservations()
		if got != want {
			t.Fatalf("seed %d step %d: %d network reservations for %d committed streams",
				seed, step, got, want)
		}
	}

	for step := 0; step < 300; step++ {
		switch op := rng.Intn(13); op {
		case 0, 1, 2, 3: // negotiate; any status is legal under injection
			res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), "news-1", chaosProfile())
			if err != nil {
				t.Fatal(err)
			}
			if res.Status == core.FailedTryLater && res.RetryAfter <= 0 {
				t.Fatalf("seed %d step %d: FAILEDTRYLATER without a retry hint", seed, step)
			}
			if res.Session != nil {
				live = append(live, res.Session.ID)
			}
		case 4: // confirm
			if id, ok := pickLive(); ok {
				bed.Manager.Confirm(id)
			}
		case 5: // reject
			if id, ok := pickLive(); ok {
				bed.Manager.Reject(id)
			}
		case 6: // renegotiate
			if id, ok := pickLive(); ok {
				bed.Manager.RenegotiateContext(context.Background(), id, chaosProfile())
			}
		case 7: // advance + complete
			if id, ok := pickLive(); ok {
				bed.Manager.Advance(id, time.Second)
				bed.Manager.Complete(id)
			}
		case 8: // abort
			if id, ok := pickLive(); ok {
				bed.Manager.Abort(id)
			}
		case 9: // crash a server outright
			randomServer().Crash()
		case 10: // restart a server
			randomServer().Restart()
		case 11: // schedule a crash inside the next commit window
			randomServer().CrashAfterReserves(1 + rng.Intn(2))
		case 12: // dial injected failure rates up or down
			inj.SetReserveFailure(float64(rng.Intn(3)) * 0.25)
			inj.SetConnectFailure(float64(rng.Intn(3)) * 0.2)
		}
		checkInvariant(step)
	}

	// Heal the world and wind everything down: no resource may remain.
	inj.SetReserveFailure(0)
	inj.SetConnectFailure(0)
	for _, id := range serverIDs {
		inj.Restart(id)
	}
	for _, id := range live {
		bed.Manager.Abort(id)
	}
	if got := bed.Network.ActiveReservations(); got != 0 {
		t.Fatalf("seed %d: %d network reservations leaked after winding down", seed, got)
	}
	for id, srv := range bed.Servers {
		if srv.ActiveStreams() != 0 {
			t.Fatalf("seed %d: server %s leaked %d streams", seed, id, srv.ActiveStreams())
		}
	}
	// The ledger's double-entry view of the same wind-down, and the
	// telemetry counters the observability surface exports: a sequential
	// run, even under fault injection, leaks nothing, double-releases
	// nothing, and never races an unlock window.
	if err := bed.Ledger.CheckEmpty(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	checkSessionTableAtFloor(t, man)
	if v := reg.Counter(ledger.MetricLeaked, "").Value(); v != 0 {
		t.Errorf("seed %d: %s = %d, want 0", seed, ledger.MetricLeaked, v)
	}
	for _, procedure := range []string{"adapt", "renegotiate"} {
		if v := reg.CounterFamily(core.MetricStaleInstalls, "", "procedure").With(procedure).Value(); v != 0 {
			t.Errorf("seed %d: %s{procedure=%q} = %d, want 0", seed, core.MetricStaleInstalls, procedure, v)
		}
	}
}
