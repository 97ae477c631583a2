package qosneg

import (
	"context"
	"net"
	"testing"
	"time"

	"qosneg/internal/clock"
	"qosneg/internal/core"
	"qosneg/internal/protocol"
	"qosneg/internal/qos"
	"qosneg/internal/session"
	"qosneg/internal/sim"
)

func TestSystemNegotiatePlayComplete(t *testing.T) {
	sys, err := New(WithClients(1), WithServers(2))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := sys.AddNewsArticle("news-1", "Election night", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Negotiate(context.Background(), "client-1", doc.ID, "tv-quality")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Succeeded {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	eng := sim.NewEngine()
	sys.Monitor().Attach(clock.Sim(eng), nil)
	var out *session.Outcome
	if err := sys.Player(clock.Sim(eng)).Play(res.Session, doc, func(o session.Outcome) { out = &o }); err != nil {
		t.Fatal(err)
	}
	eng.Run(10 * time.Minute)
	if out == nil || out.State != core.Completed {
		t.Fatalf("outcome = %+v", out)
	}
	if sys.Network.ActiveReservations() != 0 {
		t.Error("leaked reservations")
	}
}

func TestSystemUnknownClientAndProfile(t *testing.T) {
	sys, _ := New()
	doc, _ := sys.AddNewsArticle("news-1", "T", time.Minute)
	if _, err := sys.Negotiate(context.Background(), "ghost", doc.ID, "tv-quality"); err == nil {
		t.Error("unknown client accepted")
	}
	if _, err := sys.Negotiate(context.Background(), "client-1", doc.ID, "ghost"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestSystemFactoryProfiles(t *testing.T) {
	sys, _ := New()
	names := sys.Profiles.List()
	if len(names) != 3 {
		t.Fatalf("profiles = %v", names)
	}
	// The economy profile yields a cheaper offer than premium.
	doc, _ := sys.AddNewsArticle("news-1", "T", time.Minute)
	eco, err := sys.Negotiate(context.Background(), "client-1", doc.ID, "economy")
	if err != nil || !eco.Status.Reserved() {
		t.Fatalf("economy: %v %v", eco.Status, err)
	}
	ecoCost := eco.Session.Cost()
	sys.Manager.Reject(eco.Session.ID)
	prem, err := sys.Negotiate(context.Background(), "client-1", doc.ID, "premium")
	if err != nil || !prem.Status.Reserved() {
		t.Fatalf("premium: %v %v", prem.Status, err)
	}
	if prem.Session.Cost() <= ecoCost {
		t.Errorf("premium %v should cost more than economy %v", prem.Session.Cost(), ecoCost)
	}
	// Premium gets at least TV-grade video.
	if prem.Offer.Video.Color < qos.Color {
		t.Errorf("premium video = %+v", prem.Offer.Video)
	}
}

func TestSystemServe(t *testing.T) {
	sys, err := New(WithClients(1), WithServers(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddNewsArticle("news-1", "T", time.Minute); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	type serveResult struct {
		srv *protocol.Server
		err error
	}
	done := make(chan serveResult, 1)
	go func() {
		srv, err := sys.Serve(l)
		done <- serveResult{srv, err}
	}()

	c, err := protocol.Dial(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	docs, err := c.ListDocuments(context.Background(), "")
	if err != nil || len(docs) != 1 {
		t.Fatalf("ListDocuments: %v %v", docs, err)
	}
	c.Close()
	l.Close()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("Serve: %v", r.err)
		}
		r.srv.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never returned after listener close")
	}
}

// TestSystemServePlaysConfirmedSessions: a session confirmed over a daemon
// started with System.Serve plays out, as on cmd/qosnegd, instead of holding
// its reservations forever at position zero.
func TestSystemServePlaysConfirmedSessions(t *testing.T) {
	sys, err := New(WithClients(1), WithServers(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddNewsArticle("news-1", "T", time.Minute); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvCh := make(chan *protocol.Server, 1)
	go func() {
		srv, _ := sys.Serve(l)
		srvCh <- srv
	}()
	defer func() {
		l.Close()
		(<-srvCh).Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := sys.Dial(ctx, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mach, err := sys.Client("client-1")
	if err != nil {
		t.Fatal(err)
	}
	u, err := sys.Profiles.Get("tv-quality")
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Negotiate(ctx, mach, "news-1", u)
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("negotiate: %v %v", res.Status, err)
	}
	if err := c.Confirm(ctx, res.Session); err != nil {
		t.Fatal(err)
	}
	for {
		info, err := c.Session(ctx, res.Session)
		if err != nil {
			t.Fatalf("session %d never advanced: %v", res.Session, err)
		}
		if info.Position > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}
