package protocol

import (
	"testing"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/qos"
)

func TestRenegotiateOverWire(t *testing.T) {
	h := newHarness(t)
	c := h.dial(t)

	// First negotiation with a modest profile.
	u := tvProfile(time.Minute)
	u.Desired.Video.Color = qos.Grey
	u.Worst.Video.Color = qos.BlackWhite
	res, err := c.Negotiate(bg, h.bed.Client(1), "news-1", u)
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("negotiate: %v %v", res.Status, err)
	}

	// The user edits the profile upward and renegotiates.
	res2, err := c.Renegotiate(bg, res.Session, tvProfile(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != core.Succeeded {
		t.Fatalf("renegotiate status = %v (%s)", res2.Status, res2.Reason)
	}
	if res2.Session != res.Session {
		t.Errorf("session changed: %d → %d", res.Session, res2.Session)
	}
	if res2.Offer.Video.Color != qos.Color {
		t.Errorf("renegotiated offer = %+v", res2.Offer.Video)
	}
	// Confirm the renegotiated offer.
	if err := c.Confirm(bg, res2.Session); err != nil {
		t.Fatal(err)
	}
	info, _ := c.Session(bg, res2.Session)
	if info.State != "playing" {
		t.Errorf("state = %s", info.State)
	}
	if h.bed.Network.ActiveReservations() != 2 {
		t.Errorf("reservations = %d", h.bed.Network.ActiveReservations())
	}
}

func TestRenegotiateRearmsChoiceTimer(t *testing.T) {
	h, eng := simHarness(t, newsBed(t))
	c := h.dial(t)
	res, err := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	// Renegotiate onto a very short choice period and let it lapse.
	res2, err := c.Renegotiate(bg, res.Session, tvProfile(60*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res2.ChoicePeriod != 60*time.Millisecond {
		t.Errorf("choice period = %v", res2.ChoicePeriod)
	}
	eng.Run(eng.Now() + 60*time.Millisecond)
	if h.server.Expired() != 1 {
		t.Fatal("renegotiated choice period never expired")
	}
	if h.bed.Network.ActiveReservations() != 0 {
		t.Error("expired renegotiated session leaked reservations")
	}
}

func TestRenegotiateErrors(t *testing.T) {
	h := newHarness(t)
	c := h.dial(t)
	if _, err := c.Renegotiate(bg, 999, tvProfile(time.Minute)); err == nil {
		t.Error("unknown session accepted")
	}
	// Missing/invalid profile.
	bad := tvProfile(time.Minute)
	bad.Name = ""
	res, _ := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
	if _, err := c.Renegotiate(bg, res.Session, bad); err == nil {
		t.Error("invalid profile accepted")
	}
	// The session is still reserved and usable after the rejected request.
	if err := c.Confirm(bg, res.Session); err != nil {
		t.Errorf("session unusable after bad renegotiate: %v", err)
	}
}
