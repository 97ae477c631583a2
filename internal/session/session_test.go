package session

import (
	"context"
	"testing"
	"time"

	"qosneg/internal/adaptation"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/sim"
	"qosneg/internal/testbed"
)

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

func reserved(t *testing.T, b *testbed.Bed, doc media.DocumentID) *core.Session {
	t.Helper()
	res, err := b.Manager.NegotiateContext(context.Background(), b.Client(1), doc, tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Status.Reserved() {
		t.Fatalf("negotiation: %v (%s)", res.Status, res.Reason)
	}
	return res.Session
}

func TestPlayToCompletion(t *testing.T) {
	b := testbed.MustNew(testbed.Spec{})
	doc, err := b.AddNewsArticle("news-1", "T", 90*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s := reserved(t, b, doc.ID)
	eng := sim.NewEngine()
	p := NewPlayer(eng, b.Manager)

	var out *Outcome
	if err := p.Play(s, doc, func(o Outcome) { out = &o }); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if out == nil {
		t.Fatal("playout never finished")
	}
	if out.State != core.Completed {
		t.Errorf("state = %v", out.State)
	}
	if out.Position != 90*time.Second {
		t.Errorf("position = %v", out.Position)
	}
	if out.FinishedAt < 90*time.Second {
		t.Errorf("finished at %v, before the document ended", out.FinishedAt)
	}
	if out.Transitions != 0 {
		t.Errorf("transitions = %d", out.Transitions)
	}
	if b.Network.ActiveReservations() != 0 {
		t.Error("completion leaked network reservations")
	}
}

func TestPlayWithMidStreamAdaptation(t *testing.T) {
	b := testbed.MustNew(testbed.Spec{})
	doc, err := b.AddNewsArticle("news-1", "T", 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	s := reserved(t, b, doc.ID)
	eng := sim.NewEngine()
	p := NewPlayer(eng, b.Manager)

	var servers []*cmfs.Server
	for _, id := range b.ServerIDs() {
		servers = append(servers, b.Servers[id])
	}
	mon := adaptation.New(b.Manager, b.Network, servers...)
	mon.Attach(eng, 5*time.Second, nil)

	var out *Outcome
	if err := p.Play(s, doc, func(o Outcome) { out = &o }); err != nil {
		t.Fatal(err)
	}
	// Degrade the video server at t=30s; the monitor adapts and playout
	// continues to completion.
	eng.MustSchedule(30*time.Second, func() {
		b.Servers[s.Current.Choices[0].Variant.Server].SetDegradation(0.99)
	})
	eng.Run(10 * time.Minute)
	if out == nil {
		t.Fatal("playout never finished")
	}
	if out.State != core.Completed {
		t.Errorf("state = %v", out.State)
	}
	if out.Transitions != 1 {
		t.Errorf("transitions = %d", out.Transitions)
	}
	if out.Position != 2*time.Minute {
		t.Errorf("position = %v", out.Position)
	}
}

func TestPlayAbortsWhenAdaptationFails(t *testing.T) {
	b := testbed.MustNew(testbed.Spec{})
	doc, err := b.AddNewsArticle("news-1", "T", 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	s := reserved(t, b, doc.ID)
	eng := sim.NewEngine()
	p := NewPlayer(eng, b.Manager)

	var servers []*cmfs.Server
	for _, id := range b.ServerIDs() {
		servers = append(servers, b.Servers[id])
	}
	adaptation.New(b.Manager, b.Network, servers...).Attach(eng, 5*time.Second, nil)

	var out *Outcome
	if err := p.Play(s, doc, func(o Outcome) { out = &o }); err != nil {
		t.Fatal(err)
	}
	eng.MustSchedule(30*time.Second, func() {
		for _, srv := range b.Servers {
			srv.SetDegradation(0.999)
		}
	})
	eng.Run(10 * time.Minute)
	if out == nil {
		t.Fatal("playout never finished")
	}
	if out.State != core.Aborted {
		t.Errorf("state = %v", out.State)
	}
	// The abort lands on the monitor scan following the t=30s degradation;
	// the playout position is within a tick of it.
	if out.Position < 29*time.Second || out.Position >= 2*time.Minute {
		t.Errorf("aborted at position %v", out.Position)
	}
}

func TestPlayDocumentMismatch(t *testing.T) {
	b := testbed.MustNew(testbed.Spec{})
	doc, _ := b.AddNewsArticle("news-1", "T", time.Minute)
	other, _ := b.AddNewsArticle("news-2", "U", time.Minute)
	s := reserved(t, b, doc.ID)
	eng := sim.NewEngine()
	p := NewPlayer(eng, b.Manager)
	if err := p.Play(s, other, nil); err == nil {
		t.Error("document mismatch accepted")
	}
}

func TestPlayRequiresReservedSession(t *testing.T) {
	b := testbed.MustNew(testbed.Spec{})
	doc, _ := b.AddNewsArticle("news-1", "T", time.Minute)
	s := reserved(t, b, doc.ID)
	b.Manager.Reject(s.ID)
	eng := sim.NewEngine()
	p := NewPlayer(eng, b.Manager)
	if err := p.Play(s, doc, nil); err == nil {
		t.Error("rejected session played")
	}
}

func TestPlayShortDocumentSubTick(t *testing.T) {
	b := testbed.MustNew(testbed.Spec{})
	doc, err := b.AddNewsArticle("news-1", "T", 1500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s := reserved(t, b, doc.ID)
	eng := sim.NewEngine()
	p := NewPlayer(eng, b.Manager)
	var out *Outcome
	if err := p.Play(s, doc, func(o Outcome) { out = &o }); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if out == nil || out.State != core.Completed {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Position != 1500*time.Millisecond {
		t.Errorf("position = %v", out.Position)
	}
}
