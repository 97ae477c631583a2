package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/qos"
)

func playingSession(t *testing.T, b *bed) *Session {
	t.Helper()
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Status.Reserved() {
		t.Fatalf("negotiation failed: %v (%s)", res.Status, res.Reason)
	}
	if err := b.man.Confirm(res.Session.ID); err != nil {
		t.Fatal(err)
	}
	return res.Session
}

func TestAdaptSwitchesOffer(t *testing.T) {
	b := defaultBed(t)
	s := playingSession(t, b)
	if err := b.man.Advance(s.ID, 45*time.Second); err != nil {
		t.Fatal(err)
	}
	before := s.Current.Key()

	// Degrade the server carrying the video stream so the current offer
	// can no longer be supported there.
	videoServer := s.Current.Choices[0].Variant.Server
	if err := b.servers[videoServer].SetDegradation(0.99); err != nil {
		t.Fatal(err)
	}

	tr, err := b.man.Adapt(s.ID)
	if err != nil {
		t.Fatalf("Adapt: %v", err)
	}
	if s.State() != Playing {
		t.Errorf("state after adaptation = %v", s.State())
	}
	if s.Current.Key() == before {
		t.Error("adaptation did not switch offers")
	}
	if tr.From.Key() != before || tr.To.Key() != s.Current.Key() {
		t.Errorf("transition = %s → %s", tr.From.Key(), tr.To.Key())
	}
	// Position-preserving restart.
	if tr.Position != int64(45*time.Second) || s.Position() != 45*time.Second {
		t.Errorf("position = %v / %v", tr.Position, s.Position())
	}
	if s.Transitions() != 1 {
		t.Errorf("transitions = %d", s.Transitions())
	}
	// The new video variant avoids the degraded server.
	if got := s.Current.Choices[0].Variant.Server; got == videoServer {
		t.Errorf("new offer still uses degraded server %s", got)
	}
	st := b.man.Stats()
	if st.Adaptations != 1 || st.AdaptationFailures != 0 {
		t.Errorf("stats = %+v", st)
	}
	// Resource accounting is consistent: exactly one commitment live.
	if b.net.ActiveReservations() != 2 {
		t.Errorf("network reservations = %d", b.net.ActiveReservations())
	}
}

func TestAdaptFailsWhenEverythingDegraded(t *testing.T) {
	b := defaultBed(t)
	s := playingSession(t, b)
	for _, srv := range b.servers {
		if err := srv.SetDegradation(0.999); err != nil {
			t.Fatal(err)
		}
	}
	_, err := b.man.Adapt(s.ID)
	if !errors.Is(err, ErrAdaptationFailed) {
		t.Fatalf("want ErrAdaptationFailed, got %v", err)
	}
	if s.State() != Aborted {
		t.Errorf("state = %v", s.State())
	}
	if b.net.ActiveReservations() != 0 {
		t.Error("failed adaptation leaked network reservations")
	}
	for _, srv := range b.servers {
		if srv.ActiveStreams() != 0 {
			t.Error("failed adaptation leaked server streams")
		}
	}
	st := b.man.Stats()
	if st.AdaptationFailures != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAdaptRequiresPlayingState(t *testing.T) {
	b := defaultBed(t)
	res, _ := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if _, err := b.man.Adapt(res.Session.ID); !errors.Is(err, ErrBadState) {
		t.Errorf("adapt on reserved session: %v", err)
	}
	if _, err := b.man.Adapt(12345); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("adapt on unknown session: %v", err)
	}
}

func TestAdaptAfterNetworkDegradation(t *testing.T) {
	b := defaultBed(t)
	s := playingSession(t, b)
	b.man.Advance(s.ID, 10*time.Second)

	// Choke the backbone of the video server's attachment link. The
	// alternate offers on the other server must take over.
	videoServer := s.Current.Choices[0].Variant.Server
	// Streams flow server → hub → client, i.e. over the backbone link's
	// reverse direction.
	link := "backbone-" + string(videoServer) + ":rev"
	if err := b.net.SetLinkDegradation(network.LinkID(link), 0.995); err != nil {
		t.Fatal(err)
	}
	victims := b.net.Overcommitted()
	if len(victims) == 0 {
		t.Fatal("expected network overcommitment")
	}
	// Map the victim back to the session, as the adaptation monitor does.
	found := false
	for _, v := range victims {
		if sess, ok := b.man.SessionByNetworkReservation(v.ID); ok && sess.ID == s.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("victim reservation not mapped to session")
	}
	if _, err := b.man.Adapt(s.ID); err != nil {
		t.Fatalf("Adapt: %v", err)
	}
	if s.State() != Playing || s.Transitions() != 1 {
		t.Errorf("state=%v transitions=%d", s.State(), s.Transitions())
	}
}

func TestSessionByServerReservation(t *testing.T) {
	b := defaultBed(t)
	s := playingSession(t, b)
	srvID := s.Current.Choices[0].Variant.Server
	// Degrade hard so every stream on that server is a victim.
	b.servers[srvID].SetDegradation(0.99)
	victims := b.servers[srvID].Overcommitted()
	if len(victims) == 0 {
		t.Fatal("expected server overcommitment")
	}
	sess, ok := b.man.SessionByServerReservation(srvID, victims[0].ID)
	if !ok || sess.ID != s.ID {
		t.Errorf("mapping failed: %v %v", sess, ok)
	}
	if _, ok := b.man.SessionByServerReservation("ghost", 1); ok {
		t.Error("ghost reservation mapped")
	}
}

// TestAdaptDropsToScalableLayer verifies that the adaptation procedure can
// fall back to a reduced temporal layer of the *same* scalable variant when
// the serving machine degrades: the INRS scalable-decoder path.
func TestAdaptDropsToScalableLayer(t *testing.T) {
	b := defaultBed(t)
	dur := 2 * time.Minute
	sv := media.VideoVariant("sv1", "server-1", media.ScalableMPEG,
		qos.VideoQoS{Color: qos.Color, FrameRate: 24, Resolution: qos.TVResolution}, dur)
	doc := media.Document{
		ID: "scalable-1", Title: "Scalable",
		Monomedia: []media.Monomedia{{
			ID: "video", Kind: qos.Video, Duration: dur,
			Variants: []media.Variant{sv},
		}},
	}
	if err := b.reg.Add(doc); err != nil {
		t.Fatal(err)
	}
	u := tvProfile()
	u.Desired.Audio = nil
	u.Worst.Audio = nil
	u.Desired.Video.FrameRate = 24
	u.Worst.Video.FrameRate = 6
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "scalable-1", u)
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("negotiate: %v %v", res.Status, err)
	}
	if got := res.Session.Current.Choices[0].Variant.QoS.Video.FrameRate; got != 24 {
		t.Fatalf("initial layer = %d fps", got)
	}
	b.man.Confirm(res.Session.ID)

	// Degrade server-1 so the full layer no longer fits but a reduced one
	// does. Full layer avg rate: blocks avg × 8 × 24; budget after 90%
	// degradation ≈ 6.4 Mbit/s minus seek overhead.
	full := sv.NetworkQoS().AvgBitRate
	t.Logf("full layer rate %v", full)
	if err := b.servers["server-1"].SetDegradation(0.96); err != nil {
		t.Fatal(err)
	}
	tr, err := b.man.Adapt(res.Session.ID)
	if err != nil {
		t.Fatalf("Adapt: %v", err)
	}
	got := tr.To.Choices[0].Variant
	if got.QoS.Video.FrameRate >= 24 {
		t.Errorf("adapted layer = %d fps, want a reduced layer", got.QoS.Video.FrameRate)
	}
	if got.Server != "server-1" {
		t.Errorf("adapted to server %s; the scalable fallback stays on the same file", got.Server)
	}
	if res.Session.State() != Playing {
		t.Errorf("state = %v", res.Session.State())
	}
}
