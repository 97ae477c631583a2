package protocol

import (
	"net"
	"runtime"
	"testing"
	"time"

	"qosneg/internal/adaptation"
	"qosneg/internal/clock"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/policy"
	"qosneg/internal/sim"
	"qosneg/internal/testbed"
)

// TestDaemonAdaptsDegradedSession serves a daemon on a Sim clock, as
// System.Serve does, over net.Pipe: playout and the adaptation monitor both
// run on the server's clock. A confirmed session's server degrades 30 s
// into playout; the next sweep adapts the session without the client
// asking, and the session then plays to completion from where it was: one
// transition, the position kept, and an empty ledger. It runs once with the
// paper's fixed tie-break order and once with the bandit policy ordering
// the adaptation's targets.
func TestDaemonAdaptsDegradedSession(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy core.Policy
	}{
		{"classical", nil},
		{"bandit", policy.NewBandit()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.DefaultOptions()
			opts.Policy = tc.policy
			daemonAdaptsDegradedSession(t, testbed.MustNew(testbed.Spec{Options: &opts}))
		})
	}
}

func daemonAdaptsDegradedSession(t *testing.T, bed *testbed.Bed) {
	if _, err := bed.AddNewsArticle("news-1", "Election night", time.Minute); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	srv := NewServer(bed.Manager, bed.Registry)
	srv.clk = clock.Sim(eng)
	player := AttachPlayout(srv, bed.Manager)
	var servers []*cmfs.Server
	for _, id := range bed.ServerIDs() {
		servers = append(servers, bed.Servers[id])
	}
	stopMonitor := AttachMonitor(srv, adaptation.New(bed.Manager, bed.Network, servers...))
	dial := func() *Client {
		a, b := net.Pipe()
		go srv.handle(a)
		c := NewClient(b)
		t.Cleanup(func() { c.Close() })
		return c
	}
	t.Cleanup(func() {
		stopMonitor()
		player.Stop()
		srv.Close()
	})

	ctl := dial()
	res, err := ctl.Negotiate(bg, bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("negotiate: %v %v", res.Status, err)
	}
	sess, err := bed.Manager.Session(res.Session)
	if err != nil {
		t.Fatal(err)
	}
	victim := sess.Current.Choices[0].Variant.Server

	updates := make(chan SessionInfo, 64)
	watchDone := make(chan error, 1)
	go func() {
		watchDone <- dial().Watch(bg, res.Session, playoutTick, func(i SessionInfo) { updates <- i })
	}()
	// The choice timer, the first monitor sweep and the watch's first poll
	// are armed.
	waitPending(t, eng, 3)
	if err := ctl.Confirm(bg, res.Session); err != nil {
		t.Fatal(err)
	}

	start := eng.Now()
	eng.Run(start + 30*time.Second)
	before, err := ctl.Session(bg, res.Session)
	if err != nil {
		t.Fatal(err)
	}
	if before.State != "playing" || before.Transitions != 0 {
		t.Fatalf("before the degradation: %+v", before)
	}
	if err := bed.Servers[victim].SetDegradation(0.99); err != nil {
		t.Fatal(err)
	}

	// Step the clock a tick at a time. Playout and the monitor's sweeps run
	// inside the engine, so each query after a step sees their effect.
	var adaptedAt, completedAt time.Duration
	var adapted SessionInfo
	for completedAt == 0 {
		if eng.Now()-start > 2*time.Minute {
			t.Fatal("playout never completed")
		}
		eng.Run(eng.Now() + playoutTick)
		info, err := ctl.Session(bg, res.Session)
		if err != nil {
			t.Fatal(err)
		}
		if info.Transitions > 0 && adaptedAt == 0 {
			adaptedAt, adapted = eng.Now()-start, info
		}
		if info.State == core.Completed.String() {
			completedAt = eng.Now() - start
		}
	}
	// The watch arms its next poll on its own goroutine, so the poll that
	// sees the completion can fall after the last step: keep the clock
	// moving until the watch has ended.
	for watching := true; watching; {
		select {
		case err := <-watchDone:
			if err != nil {
				t.Fatal(err)
			}
			watching = false
		default:
			eng.Run(eng.Now() + playoutTick)
			runtime.Gosched()
		}
	}
	var last SessionInfo
	for len(updates) > 0 {
		last = <-updates
	}

	if last.State != core.Completed.String() || last.Transitions != 1 {
		t.Fatalf("watch ended on %+v, want completed after 1 transition", last)
	}
	// The first sweep after the degradation adapted the session, and the
	// transition kept its position: playout went on from where it was.
	if adaptedAt == 0 || adaptedAt > 30*time.Second+adaptation.ScanInterval {
		t.Fatalf("adapted at %v, want within one sweep of the degradation at 30s", adaptedAt)
	}
	if d := adapted.Position - adaptedAt; d < -playoutTick || d > playoutTick {
		t.Errorf("position %v right after the adaptation at %v, want it held within one tick", adapted.Position, adaptedAt)
	}
	if d := completedAt - time.Minute; d < 0 || d > 2*playoutTick {
		t.Errorf("a one-minute article completed %v into playout", completedAt)
	}
	if err := bed.Ledger.CheckEmpty(); err != nil {
		t.Errorf("ledger after playout: %v", err)
	}
}
