package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"qosneg/internal/cmfs"
	"qosneg/internal/cost"
	"qosneg/internal/qos"
)

func TestRenegotiateUpgradesOffer(t *testing.T) {
	b := defaultBed(t)
	// Start with the economy-ish profile: worst-acceptable b&w video.
	u := tvProfile()
	u.Desired.Video.Color = qos.Grey
	u.Worst.Video.Color = qos.BlackWhite
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", u)
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("negotiate: %v %v", res.Status, err)
	}
	id := res.Session.ID
	firstCost := res.Session.Cost()

	// The user edits the profile upward and pushes OK.
	u2 := tvProfile() // color, CD
	res2, err := b.man.RenegotiateContext(context.Background(), id, u2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != Succeeded {
		t.Fatalf("renegotiation status = %v (%s)", res2.Status, res2.Reason)
	}
	if res2.Session.ID != id {
		t.Errorf("renegotiation created a new session: %d", res2.Session.ID)
	}
	if res2.Offer.Video.Color != qos.Color {
		t.Errorf("renegotiated offer = %+v", res2.Offer.Video)
	}
	if res2.Session.Profile.Desired.Video.Color != qos.Color {
		t.Error("session profile not updated")
	}
	// The throughput-class tables may price grey and color video in the
	// same class; the upgrade must never come out cheaper.
	if res2.Session.Cost() < firstCost {
		t.Errorf("upgrade should not cost less: %v vs %v", res2.Session.Cost(), firstCost)
	}
	// The old reservation was replaced, not leaked: exactly one
	// commitment (two streams) live.
	if b.net.ActiveReservations() != 2 {
		t.Errorf("network reservations = %d", b.net.ActiveReservations())
	}
	// The renegotiated session confirms and plays normally.
	if err := b.man.Confirm(id); err != nil {
		t.Fatal(err)
	}
	if res2.Session.State() != Playing {
		t.Errorf("state = %v", res2.Session.State())
	}
}

func TestRenegotiateFailureAbortsSession(t *testing.T) {
	b := defaultBed(t)
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("negotiate: %v %v", res.Status, err)
	}
	id := res.Session.ID
	// Renegotiate with an impossible start-delay constraint: no offer can
	// be committed, and since every failure is a hard constraint the
	// status is FAILEDWITHOUTOFFER.
	u := tvProfile()
	u.Desired.Time.MaxStartDelay = time.Nanosecond
	res2, err := b.man.RenegotiateContext(context.Background(), id, u)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != FailedWithoutOffer {
		t.Fatalf("status = %v", res2.Status)
	}
	if res.Session.State() != Aborted {
		t.Errorf("state = %v", res.Session.State())
	}
	if b.net.ActiveReservations() != 0 {
		t.Error("failed renegotiation leaked reservations")
	}
	// A session lost to renegotiation cannot be confirmed.
	if err := b.man.Confirm(id); !errors.Is(err, ErrBadState) {
		t.Errorf("confirm after failed renegotiation: %v", err)
	}
}

func TestRenegotiateLocalFailure(t *testing.T) {
	b := defaultBed(t)
	res, _ := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	id := res.Session.ID
	u := tvProfile()
	u.Desired.Video.Resolution = qos.HDTVResolution // beyond the 1280px screen
	u.Worst.Video.Resolution = qos.HDTVResolution
	res2, err := b.man.RenegotiateContext(context.Background(), id, u)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != FailedWithLocalOffer {
		t.Fatalf("status = %v", res2.Status)
	}
	if res2.Offer == nil || res2.Offer.Video.Resolution != 1280 {
		t.Errorf("local offer = %+v", res2.Offer)
	}
	if res.Session.State() != Aborted {
		t.Errorf("state = %v", res.Session.State())
	}
}

func TestRenegotiateStateChecks(t *testing.T) {
	b := defaultBed(t)
	if _, err := b.man.RenegotiateContext(context.Background(), 42, tvProfile()); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("unknown session: %v", err)
	}
	res, _ := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	b.man.Confirm(res.Session.ID)
	if _, err := b.man.RenegotiateContext(context.Background(), res.Session.ID, tvProfile()); !errors.Is(err, ErrBadState) {
		t.Errorf("renegotiate while playing: %v", err)
	}
}

func TestRenegotiateCountsRequests(t *testing.T) {
	b := defaultBed(t)
	res, _ := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if _, err := b.man.RenegotiateContext(context.Background(), res.Session.ID, tvProfile()); err != nil {
		t.Fatal(err)
	}
	st := b.man.Stats()
	if st.Requests != 2 || st.Succeeded != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRenegotiateFreesBudgetForOthers(t *testing.T) {
	// Renegotiating downward releases capacity another user can take.
	b := newBed(t, cmfs.DefaultConfig(), 10*qos.MBitPerSecond)
	u := tvProfile()
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", u)
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("negotiate: %v %v", res.Status, err)
	}
	// Downgrade to the cheapest the catalog has.
	down := tvProfile()
	down.Desired.Video = &qos.VideoQoS{Color: qos.BlackWhite, FrameRate: 15, Resolution: qos.TVResolution}
	down.Worst.Video = &qos.VideoQoS{Color: qos.BlackWhite, FrameRate: 10, Resolution: qos.TVResolution}
	down.Desired.Audio.Grade = qos.TelephoneQuality
	down.Worst.Audio.Grade = qos.TelephoneQuality
	down.Desired.Cost.MaxCost = cost.Dollars(3)
	down.Worst.Cost.MaxCost = cost.Dollars(3)
	res2, err := b.man.RenegotiateContext(context.Background(), res.Session.ID, down)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Status.Reserved() {
		t.Fatalf("downgrade failed: %v (%s)", res2.Status, res2.Reason)
	}
	if res2.Session.Cost() >= res.Session.Cost() {
		t.Skipf("catalog pricing did not produce a cheaper downgrade")
	}
}
