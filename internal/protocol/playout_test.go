package protocol

import (
	"testing"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/session"
	"qosneg/internal/sim"
	"qosneg/internal/testbed"
)

func newPlayoutHarness(t *testing.T, docDuration time.Duration) (*harness, *session.Player, *sim.Engine) {
	t.Helper()
	bed := testbed.MustNew(testbed.Spec{})
	if _, err := bed.AddNewsArticle("news-1", "Short clip", docDuration); err != nil {
		t.Fatal(err)
	}
	h, eng := simHarness(t, bed)
	p := AttachPlayout(h.server, bed.Manager)
	t.Cleanup(p.Stop)
	return h, p, eng
}

func TestDaemonPlayoutCompletesSession(t *testing.T) {
	h, p, eng := newPlayoutHarness(t, 200*time.Millisecond)
	c := h.dial(t)
	res, err := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("negotiate: %v %v", res.Status, err)
	}
	if err := c.Confirm(bg, res.Session); err != nil {
		t.Fatal(err)
	}
	// The daemon drives the session on its clock; the 200 ms document
	// completes within a second of it.
	eng.Run(eng.Now() + time.Second)
	info, err := c.Session(bg, res.Session)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != core.Completed.String() {
		t.Fatalf("session never completed (playouts active: %d)", p.Active())
	}
	if info.Position < 200*time.Millisecond {
		t.Errorf("completed at position %v", info.Position)
	}
	if h.bed.Network.ActiveReservations() != 0 {
		t.Error("completed session left reservations")
	}
}

func TestDaemonPlayoutPositionAdvances(t *testing.T) {
	h, _, eng := newPlayoutHarness(t, 10*time.Second)
	c := h.dial(t)
	res, err := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Confirm(bg, res.Session); err != nil {
		t.Fatal(err)
	}
	eng.Run(eng.Now() + 3*playoutTick)
	info, err := c.Session(bg, res.Session)
	if err != nil {
		t.Fatal(err)
	}
	if info.Position <= 0 || info.State != "playing" {
		t.Fatal("position never advanced")
	}
}

func TestPlayoutStopIsClean(t *testing.T) {
	h, p, eng := newPlayoutHarness(t, time.Hour) // will not finish on its own
	c := h.dial(t)
	res, _ := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
	c.Confirm(bg, res.Session)
	if p.Active() != 1 {
		t.Fatalf("active = %d", p.Active())
	}
	p.Stop()
	if p.Active() != 0 {
		t.Errorf("active after stop = %d", p.Active())
	}
	// The session stays playing (daemon shutdown, not user action).
	eng.Run(eng.Now() + time.Second)
	info, err := c.Session(bg, res.Session)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "playing" {
		t.Errorf("state = %s", info.State)
	}
}
