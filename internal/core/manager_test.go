package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cmfs"
	"qosneg/internal/cost"
	"qosneg/internal/ledger"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/offer"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/registry"
	"qosneg/internal/transport"
)

// bed is a miniature prototype: one star network, two CMFS servers, a
// registry with one news article, and a QoS manager. Kept local to avoid an
// import cycle with the shared testbed package (which imports core).
type bed struct {
	reg     *registry.Registry
	net     *network.Network
	man     *Manager
	servers map[media.ServerID]*cmfs.Server
	mach    client.Machine
	doc     media.Document
	led     *ledger.Ledger
}

func newBed(t *testing.T, serverCfg cmfs.Config, access qos.BitRate) *bed {
	t.Helper()
	return newBedOpts(t, serverCfg, access, DefaultOptions())
}

func newBedOpts(t *testing.T, serverCfg cmfs.Config, access qos.BitRate, opts Options) *bed {
	t.Helper()
	net, err := network.BuildStar(network.StarSpec{
		Clients:        []network.NodeID{"client-1"},
		Servers:        []network.NodeID{"server-1", "server-2"},
		AccessCapacity: access,
	})
	if err != nil {
		t.Fatal(err)
	}
	led := ledger.New()
	led.OnViolation(func(v string) {
		t.Errorf("ledger violation: %s", v)
	})
	net.SetLedger(led)
	ts := transport.New(net, 3)
	ts.SetLedger(led)
	reg := registry.New()
	man := NewManager(reg, ts, cost.DefaultPricing(), opts)
	servers := map[media.ServerID]*cmfs.Server{}
	for _, id := range []media.ServerID{"server-1", "server-2"} {
		s, err := cmfs.NewServer(id, serverCfg)
		if err != nil {
			t.Fatal(err)
		}
		s.SetLedger(led)
		servers[id] = s
		man.AddServer(s, network.NodeID(id))
	}
	doc := media.BuildNewsArticle(media.NewsArticleSpec{
		ID:       "news-1",
		Title:    "Election night",
		Duration: 2 * time.Minute,
		Servers:  []media.ServerID{"server-1", "server-2"},
		VideoQualities: []qos.VideoQoS{
			{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			{Color: qos.Color, FrameRate: 15, Resolution: qos.TVResolution},
			{Color: qos.Grey, FrameRate: 25, Resolution: qos.TVResolution},
			{Color: qos.BlackWhite, FrameRate: 15, Resolution: qos.TVResolution},
		},
		AudioQualities: []qos.AudioQoS{
			{Grade: qos.CDQuality, Language: qos.English},
			{Grade: qos.TelephoneQuality, Language: qos.English},
		},
		CopyrightFee: 500,
	})
	if err := reg.Add(doc); err != nil {
		t.Fatal(err)
	}
	return &bed{
		reg: reg, net: net, man: man, servers: servers,
		mach: client.Workstation("client-1", "client-1"),
		doc:  doc, led: led,
	}
}

func defaultBed(t *testing.T) *bed {
	return newBed(t, cmfs.DefaultConfig(), 0)
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
			Video: &qos.VideoQoS{Color: qos.Grey, FrameRate: 15, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.TelephoneQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
		},
		Importance: profile.DefaultImportance(),
	}
}

func TestNegotiateSucceeded(t *testing.T) {
	b := defaultBed(t)
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Succeeded {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	if res.Session == nil || res.Offer == nil {
		t.Fatal("successful negotiation must carry a session and offer")
	}
	if res.Session.State() != Reserved {
		t.Errorf("session state = %v", res.Session.State())
	}
	// The best offer satisfies the desired QoS.
	if res.Offer.Video == nil || res.Offer.Video.Color != qos.Color || res.Offer.Video.FrameRate != 25 {
		t.Errorf("offer video = %+v", res.Offer.Video)
	}
	if res.Offer.Audio == nil || res.Offer.Audio.Grade != qos.CDQuality {
		t.Errorf("offer audio = %+v", res.Offer.Audio)
	}
	// Resources are committed on servers and network.
	total := 0
	for _, s := range b.servers {
		total += s.ActiveStreams()
	}
	if total != 2 {
		t.Errorf("server streams = %d, want 2 (video+audio)", total)
	}
	if b.net.ActiveReservations() != 2 {
		t.Errorf("network reservations = %d", b.net.ActiveReservations())
	}
	// The session's ranked list retains every feasible offer (4×2 = 8).
	if len(res.Session.Ranked()) != 8 {
		t.Errorf("ranked offers = %d, want 8", len(res.Session.Ranked()))
	}
	st := b.man.Stats()
	if st.Requests != 1 || st.Succeeded != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNegotiateUnknownDocument(t *testing.T) {
	b := defaultBed(t)
	if _, err := b.man.NegotiateContext(context.Background(), b.mach, "ghost", tvProfile()); err == nil {
		t.Error("unknown document accepted")
	}
}

func TestNegotiateFailedWithLocalOffer(t *testing.T) {
	b := defaultBed(t)
	mach := b.mach
	mach.Display.Color = qos.BlackWhite // the paper's example
	res, err := b.man.NegotiateContext(context.Background(), mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != FailedWithLocalOffer {
		t.Fatalf("status = %v", res.Status)
	}
	if len(res.Violations) == 0 {
		t.Error("violations missing")
	}
	if res.Offer == nil || res.Offer.Video.Color != qos.BlackWhite {
		t.Errorf("local offer = %+v", res.Offer)
	}
	if res.Session != nil {
		t.Error("no session may be reserved")
	}
	if b.net.ActiveReservations() != 0 {
		t.Error("resources leaked")
	}
}

func TestNegotiateFailedWithoutOffer(t *testing.T) {
	b := defaultBed(t)
	mach := b.mach
	// No audio decoder at all: the audio monomedia has no feasible
	// variant.
	mach.Decoders = []media.Format{media.MPEG1, media.GIF, media.PlainText}
	// Keep the local check passing: drop the audio requirement? No — the
	// local check tests hardware, not decoders; audio hardware is fine.
	res, err := b.man.NegotiateContext(context.Background(), mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != FailedWithoutOffer {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	if res.Session != nil || res.Offer != nil {
		t.Error("no offer may be returned")
	}
}

func TestNegotiateFailedTryLater(t *testing.T) {
	// Tiny servers: nothing can be admitted.
	cfg := cmfs.Config{
		DiskRate:    64 * qos.KBitPerSecond,
		SeekTime:    time.Millisecond,
		RoundLength: time.Second,
		MaxStreams:  1,
	}
	b := newBed(t, cfg, 0)
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != FailedTryLater {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	if b.net.ActiveReservations() != 0 {
		t.Error("rollback leaked network reservations")
	}
	for id, s := range b.servers {
		if s.ActiveStreams() != 0 {
			t.Errorf("rollback leaked streams on %s", id)
		}
	}
}

func TestNegotiateFailedWithOffer(t *testing.T) {
	b := defaultBed(t)
	// A profile nothing can satisfy at the desired level: super-color
	// 60 fps HDTV with a 1-cent budget — but whose worst-acceptable level
	// is low enough that feasible offers exist (they are all Constraint
	// on color/rate, or over budget).
	u := profile.UserProfile{
		Name: "dreamer",
		Desired: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.SuperColor, FrameRate: 60, Resolution: 1280},
			Cost:  profile.CostProfile{MaxCost: cost.Cents(1)},
		},
		Worst: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.SuperColor, FrameRate: 60, Resolution: 1280},
			Cost:  profile.CostProfile{MaxCost: cost.Cents(1)},
		},
		Importance: profile.DefaultImportance(),
	}
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", u)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != FailedWithOffer {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	if res.Session == nil || res.Offer == nil {
		t.Fatal("FAILEDWITHOFFER must still reserve an offer")
	}
	if res.Session.Current.Status != offer.Constraint {
		t.Errorf("offer status = %v", res.Session.Current.Status)
	}
	// The reserved offer is the best feasible one by classification.
	if err := b.man.Reject(res.Session.ID); err != nil {
		t.Fatal(err)
	}
}

func TestConfirmRejectLifecycle(t *testing.T) {
	b := defaultBed(t)
	res, _ := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	id := res.Session.ID

	if err := b.man.Confirm(id); err != nil {
		t.Fatal(err)
	}
	if res.Session.State() != Playing {
		t.Errorf("state = %v", res.Session.State())
	}
	if err := b.man.Confirm(id); !errors.Is(err, ErrBadState) {
		t.Errorf("double confirm: %v", err)
	}
	if err := b.man.Reject(id); !errors.Is(err, ErrBadState) {
		t.Errorf("reject while playing: %v", err)
	}
	if err := b.man.Advance(id, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if res.Session.Position() != 30*time.Second {
		t.Errorf("position = %v", res.Session.Position())
	}
	if err := b.man.Complete(id); err != nil {
		t.Fatal(err)
	}
	if res.Session.State() != Completed {
		t.Errorf("state = %v", res.Session.State())
	}
	if b.net.ActiveReservations() != 0 {
		t.Error("completion leaked reservations")
	}
	if err := b.man.Advance(id, time.Second); !errors.Is(err, ErrBadState) {
		t.Errorf("advance after completion: %v", err)
	}
}

func TestRejectReleasesResources(t *testing.T) {
	b := defaultBed(t)
	res, _ := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err := b.man.Reject(res.Session.ID); err != nil {
		t.Fatal(err)
	}
	if res.Session.State() != Aborted {
		t.Errorf("state = %v", res.Session.State())
	}
	if b.net.ActiveReservations() != 0 {
		t.Error("reject leaked network reservations")
	}
	for _, s := range b.servers {
		if s.ActiveStreams() != 0 {
			t.Error("reject leaked server streams")
		}
	}
}

func TestAbortFromAnyState(t *testing.T) {
	b := defaultBed(t)
	res, _ := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	id := res.Session.ID
	if err := b.man.Abort(id); err != nil {
		t.Fatal(err)
	}
	if err := b.man.Abort(id); err != nil {
		t.Errorf("abort must be idempotent: %v", err)
	}
	if b.net.ActiveReservations() != 0 {
		t.Error("abort leaked")
	}
	if err := b.man.Abort(999); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("unknown session: %v", err)
	}
}

func TestUnknownSessionOperations(t *testing.T) {
	b := defaultBed(t)
	for _, err := range []error{
		b.man.Confirm(42),
		b.man.Reject(42),
		b.man.Advance(42, time.Second),
		b.man.Complete(42),
	} {
		if !errors.Is(err, ErrUnknownSession) {
			t.Errorf("want ErrUnknownSession, got %v", err)
		}
	}
	if _, err := b.man.Session(42); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("Session(42): %v", err)
	}
}

func TestSessionsByState(t *testing.T) {
	b := defaultBed(t)
	r1, _ := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	r2, _ := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	b.man.Confirm(r2.Session.ID)
	if got := len(b.man.Sessions(Reserved)); got != 1 {
		t.Errorf("reserved = %d", got)
	}
	if got := len(b.man.Sessions(Playing)); got != 1 {
		t.Errorf("playing = %d", got)
	}
	_ = r1
}

func TestBlockingUnderLoad(t *testing.T) {
	// 10 Mbit/s access link: CD audio (~1.4) + color TV video (~1.3 avg)
	// per session; the access link should block after a handful of
	// sessions, and the manager must degrade offers before failing.
	b := newBed(t, cmfs.DefaultConfig(), 10*qos.MBitPerSecond)
	var statuses []NegotiationStatus
	for i := 0; i < 10; i++ {
		res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
		if err != nil {
			t.Fatal(err)
		}
		statuses = append(statuses, res.Status)
		if res.Session != nil {
			b.man.Confirm(res.Session.ID)
		}
	}
	if statuses[0] != Succeeded {
		t.Errorf("first request: %v", statuses[0])
	}
	last := statuses[len(statuses)-1]
	if last != FailedTryLater {
		t.Errorf("saturated system should FAILEDTRYLATER, got %v", last)
	}
	// Somewhere in between, the system degraded gracefully (either more
	// successes at lower quality or explicit FailedWithOffer).
	sawDegraded := false
	for _, s := range statuses {
		if s == FailedWithOffer {
			sawDegraded = true
		}
	}
	st := b.man.Stats()
	if st.Requests != 10 {
		t.Errorf("requests = %d", st.Requests)
	}
	t.Logf("statuses = %v, degraded=%v", statuses, sawDegraded)
}

func TestStartDelayConstraint(t *testing.T) {
	b := defaultBed(t)
	u := tvProfile()
	u.Desired.Time.MaxStartDelay = time.Millisecond // below round length
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", u)
	if err != nil {
		t.Fatal(err)
	}
	// Every offer fails the hard start-delay bound, so no retry can
	// help: FAILEDWITHOUTOFFER, not FAILEDTRYLATER.
	if res.Status != FailedWithoutOffer {
		t.Errorf("status = %v; start-delay bound not enforced", res.Status)
	}
	if res.RetryAfter != 0 {
		t.Errorf("RetryAfter = %v for a constraint failure", res.RetryAfter)
	}
}

func TestChoicePeriodDefaulting(t *testing.T) {
	b := defaultBed(t)
	u := tvProfile()
	res, _ := b.man.NegotiateContext(context.Background(), b.mach, "news-1", u)
	if res.Session.ChoicePeriod != 30*time.Second {
		t.Errorf("default choice period = %v", res.Session.ChoicePeriod)
	}
	b.man.Reject(res.Session.ID)
	u.Desired.Time.ChoicePeriod = 5 * time.Second
	res, _ = b.man.NegotiateContext(context.Background(), b.mach, "news-1", u)
	if res.Session.ChoicePeriod != 5*time.Second {
		t.Errorf("profile choice period = %v", res.Session.ChoicePeriod)
	}
}

func TestNegotiationStatusStrings(t *testing.T) {
	want := map[NegotiationStatus]string{
		Succeeded:            "SUCCEEDED",
		FailedWithOffer:      "FAILEDWITHOFFER",
		FailedTryLater:       "FAILEDTRYLATER",
		FailedWithoutOffer:   "FAILEDWITHOUTOFFER",
		FailedWithLocalOffer: "FAILEDWITHLOCALOFFER",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if !Succeeded.Reserved() || !FailedWithOffer.Reserved() || FailedTryLater.Reserved() {
		t.Error("Reserved() wrong")
	}
	if fmt.Sprintf("%v", NegotiationStatus(9)) == "" {
		t.Error("unknown status renders empty")
	}
	if Reserved.String() != "reserved" || SessionState(9).String() == "" {
		t.Error("session state strings")
	}
}
