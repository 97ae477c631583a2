package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/sim"
)

// TestChaosResourceAccounting drives the manager with a long random
// sequence of operations — negotiate, confirm, reject, renegotiate,
// complete, abort, adapt, degrade/recover servers and links — and checks
// the global resource invariant after every step: the number of live
// network reservations equals the number of continuous streams committed
// by sessions in the Reserved or Playing state, and nothing leaks when
// every session is wound down.
func TestChaosResourceAccounting(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1996} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaos(t, seed)
		})
	}
}

func runChaos(t *testing.T, seed int64) {
	b := defaultBed(t)
	rng := sim.NewRand(seed)
	var live []SessionID

	countCommitted := func() int {
		n := 0
		for _, state := range []SessionState{Reserved, Playing} {
			for _, s := range b.man.Sessions(state) {
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
		got := b.net.ActiveReservations()
		if got != want {
			t.Fatalf("seed %d step %d: %d network reservations for %d committed streams",
				seed, step, got, want)
		}
		for id, srv := range b.servers {
			if srv.Utilization() > 1.0000001 {
				t.Fatalf("seed %d step %d: healthy server %s overcommitted", seed, step, id)
			}
		}
	}

	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); op {
		case 0, 1, 2: // negotiate
			res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
			if err != nil {
				t.Fatal(err)
			}
			if res.Session != nil {
				live = append(live, res.Session.ID)
			}
		case 3: // confirm a random reserved session
			if id, ok := pick(rng, live); ok {
				b.man.Confirm(id)
			}
		case 4: // reject
			if id, ok := pick(rng, live); ok {
				b.man.Reject(id)
			}
		case 5: // renegotiate
			if id, ok := pick(rng, live); ok {
				b.man.RenegotiateContext(context.Background(), id, tvProfile())
			}
		case 6: // advance + complete
			if id, ok := pick(rng, live); ok {
				b.man.Advance(id, time.Second)
				b.man.Complete(id)
			}
		case 7: // abort
			if id, ok := pick(rng, live); ok {
				b.man.Abort(id)
			}
		case 8: // degrade or recover a server, then adapt victims
			victim := b.servers[media.ServerID(fmt.Sprintf("server-%d", rng.Intn(len(b.servers))+1))]
			if rng.Intn(2) == 0 {
				victim.SetDegradation(0.9)
			} else {
				victim.SetDegradation(0)
			}
			for _, over := range victim.Overcommitted() {
				if s, ok := b.man.SessionByServerReservation(victim.ID(), over.ID); ok && s.State() == Playing {
					b.man.Adapt(s.ID)
				}
			}
			// Invariant checks below exempt degraded servers; recover
			// for the utilization check's sake.
			victim.SetDegradation(0)
		case 9: // degrade and recover a network link
			link := network.LinkID("backbone-server-1:rev")
			b.net.SetLinkDegradation(link, 0.8)
			for _, over := range b.net.Overcommitted() {
				if s, ok := b.man.SessionByNetworkReservation(over.ID); ok && s.State() == Playing {
					b.man.Adapt(s.ID)
				}
			}
			b.net.SetLinkDegradation(link, 0)
		}
		checkInvariant(step)
	}

	// Wind everything down: no reservations may remain.
	for _, id := range live {
		b.man.Abort(id)
	}
	if got := b.net.ActiveReservations(); got != 0 {
		t.Fatalf("seed %d: %d reservations leaked after winding down", seed, got)
	}
	for id, srv := range b.servers {
		if srv.ActiveStreams() != 0 {
			t.Fatalf("seed %d: server %s leaked %d streams", seed, id, srv.ActiveStreams())
		}
	}
	// Double-entry view of the same invariant, plus: a single-threaded run
	// never races the unlock windows, so the epoch guard must never fire.
	if err := b.led.CheckEmpty(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if live, tombs := b.man.LiveSessions(), len(b.man.tombs); live != 0 || tombs > TombstoneRing {
		t.Fatalf("seed %d: %d live sessions and %d tombstones after winding down, want 0 and <= %d", seed, live, tombs, TombstoneRing)
	}
	if got := b.man.Stats().StaleInstalls; got != 0 {
		t.Fatalf("seed %d: %d stale installs in a sequential run", seed, got)
	}
}

func pick(rng *sim.Rand, ids []SessionID) (SessionID, bool) {
	if len(ids) == 0 {
		return 0, false
	}
	return ids[rng.Intn(len(ids))], true
}
