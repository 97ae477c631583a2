package protocol

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"qosneg/internal/clock"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/sim"
	"qosneg/internal/testbed"
)

// bg is the background context threaded through the ctx-first client API
// in tests that do not exercise cancellation.
var bg = context.Background()

type harness struct {
	bed    *testbed.Bed
	server *Server
	addr   string
	done   chan struct{}
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	return serveHarness(t, newsBed(t))
}

// newsBed builds the harness's bed, two articles on the default testbed,
// without serving it.
func newsBed(t *testing.T) *testbed.Bed {
	t.Helper()
	bed := testbed.MustNew(testbed.Spec{})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 90*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := bed.AddNewsArticle("news-2", "Hockey final", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	return bed
}

// serveHarness starts a protocol server over an already-populated bed.
func serveHarness(t *testing.T, bed *testbed.Bed) *harness {
	t.Helper()
	return startHarness(t, bed, NewServer(bed.Manager, bed.Registry))
}

// simHarness is serveHarness with the server on a Sim clock: choice
// periods, watch polls and playout ticks fire as the test runs the engine.
func simHarness(t *testing.T, bed *testbed.Bed) (*harness, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	srv := NewServer(bed.Manager, bed.Registry)
	srv.clk = clock.Sim(eng)
	return startHarness(t, bed, srv), eng
}

// waitPending blocks until the engine holds n events: the server's
// goroutines have armed the timers the test is about to fire.
func waitPending(t *testing.T, eng *sim.Engine, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d pending events", n), func() bool { return eng.Pending() == n })
}

// waitFor yields to the server's goroutines until cond holds, failing the
// test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("gave up waiting for %s", what)
		}
		runtime.Gosched()
	}
}

func startHarness(t *testing.T, bed *testbed.Bed, srv *Server) *harness {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
	h := &harness{bed: bed, server: srv, addr: l.Addr().String(), done: done}
	t.Cleanup(func() {
		l.Close()
		srv.Close()
		<-done
	})
	return h
}

func (h *harness) dial(t *testing.T) *Client {
	t.Helper()
	c, err := Dial(bg, h.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func tvProfile(choice time.Duration) profile.UserProfile {
	return profile.UserProfile{
		Name: "tv",
		Desired: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.CDQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
			Time:  profile.TimeProfile{ChoicePeriod: choice},
		},
		Worst: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.BlackWhite, FrameRate: 10, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.TelephoneQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
			Time:  profile.TimeProfile{ChoicePeriod: choice},
		},
		Importance: profile.DefaultImportance(),
	}
}

func TestNegotiateConfirmOverWire(t *testing.T) {
	h, _ := daemonHarness(t, testbed.Spec{})
	c := h.dial(t)

	res, err := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Succeeded {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	if res.Offer == nil || res.Offer.Video == nil || res.Offer.Video.Color != qos.Color {
		t.Errorf("offer = %+v", res.Offer)
	}
	if res.Cost <= 0 {
		t.Errorf("cost = %v", res.Cost)
	}
	if res.ChoicePeriod != time.Minute {
		t.Errorf("choice period = %v", res.ChoicePeriod)
	}
	if err := c.Confirm(bg, res.Session); err != nil {
		t.Fatal(err)
	}
	info, err := c.Session(bg, res.Session)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "playing" {
		t.Errorf("state = %s", info.State)
	}
	snap, err := c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	if n := snap.CounterValue(core.MetricNegotiations, core.Succeeded.String()); n != 1 {
		t.Errorf("negotiations{SUCCEEDED} = %d, want 1", n)
	}
}

func TestRejectReleasesOverWire(t *testing.T) {
	h := newHarness(t)
	c := h.dial(t)
	res, err := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reject(bg, res.Session); err != nil {
		t.Fatal(err)
	}
	if h.bed.Network.ActiveReservations() != 0 {
		t.Error("reject leaked reservations")
	}
	// Confirming after reject is a protocol error.
	if err := c.Confirm(bg, res.Session); err == nil {
		t.Error("confirm after reject accepted")
	}
}

// TestChoicePeriodTimeout: every reserved session gets its own step 6
// choice timer, also when several negotiations run concurrently on one
// connection; each lapses into an abort that reclaims its resources.
func TestChoicePeriodTimeout(t *testing.T) {
	h, eng := simHarness(t, newsBed(t))
	c := h.dial(t)
	docs := []media.DocumentID{"news-1", "news-2"}
	results := make([]NegotiationResult, len(docs))
	errs := make([]error, len(docs))
	var wg sync.WaitGroup
	for i, doc := range docs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = c.Negotiate(bg, h.bed.Client(i+1), doc, tvProfile(50*time.Millisecond))
		}()
	}
	wg.Wait()
	for i := range docs {
		if errs[i] != nil || !results[i].Status.Reserved() {
			t.Fatalf("%s: %v %v", docs[i], results[i].Status, errs[i])
		}
	}
	if results[0].Session == results[1].Session {
		t.Fatalf("concurrent negotiations share session %d", results[0].Session)
	}
	// Let the choice periods lapse: the server aborts the sessions and
	// reclaims the resources ("the session is simply aborted").
	eng.Run(eng.Now() + 50*time.Millisecond)
	if n := h.server.Expired(); n != len(docs) {
		t.Fatalf("expired = %d, want %d", n, len(docs))
	}
	if h.bed.Network.ActiveReservations() != 0 {
		t.Error("expired session leaked reservations")
	}
	if err := h.bed.Ledger.CheckEmpty(); err != nil {
		t.Errorf("ledger not empty after expiry: %v", err)
	}
	for _, res := range results {
		if err := c.Confirm(bg, res.Session); err == nil {
			t.Errorf("session %d: confirm after expiry accepted", res.Session)
		}
		info, err := c.Session(bg, res.Session)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != "aborted" {
			t.Errorf("session %d: state = %s", res.Session, info.State)
		}
	}
}

// TestChoiceTimersLeaveNoEntry checks the choice-timer table after every
// way a timer ends: expiry, confirm, reject and renegotiate. The expiring
// sessions carry a 1ns choice period while a goroutine runs the engine, so
// a timer can lapse before the server has finished arming it.
func TestChoiceTimersLeaveNoEntry(t *testing.T) {
	h, eng := simHarness(t, newsBed(t))
	c := h.dial(t)
	negotiate := func(doc media.DocumentID, period time.Duration) core.SessionID {
		t.Helper()
		res, err := c.Negotiate(bg, h.bed.Client(1), doc, tvProfile(period))
		if err != nil || !res.Status.Reserved() {
			t.Fatalf("negotiate %s: %v %v", doc, res.Status, err)
		}
		return res.Session
	}

	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				eng.Run(eng.Now() + time.Nanosecond)
				runtime.Gosched()
			}
		}
	}()
	const expiring = 8
	for i := range expiring {
		negotiate([]media.DocumentID{"news-1", "news-2"}[i%2], time.Nanosecond)
		waitFor(t, "expiry", func() bool { return h.server.Expired() > i })
	}
	close(stop)
	<-stopped

	confirmed := negotiate("news-1", time.Minute)
	if err := c.Confirm(bg, confirmed); err != nil {
		t.Fatal(err)
	}
	rejected := negotiate("news-1", time.Minute)
	if err := c.Reject(bg, rejected); err != nil {
		t.Fatal(err)
	}
	renegotiated := negotiate("news-2", time.Minute)
	if _, err := c.Renegotiate(bg, renegotiated, tvProfile(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := c.Confirm(bg, renegotiated); err != nil {
		t.Fatal(err)
	}

	if n := h.server.Expired(); n != expiring {
		t.Errorf("expired = %d, want %d", n, expiring)
	}
	h.server.mu.Lock()
	left := len(h.server.timers)
	h.server.mu.Unlock()
	if left != 0 {
		t.Errorf("%d choice timers left in the table after every session resolved", left)
	}
}

func TestConfirmDisarmsTimer(t *testing.T) {
	h, eng := simHarness(t, newsBed(t))
	c := h.dial(t)
	res, err := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(80*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Confirm(bg, res.Session); err != nil {
		t.Fatal(err)
	}
	eng.Run(eng.Now() + 150*time.Millisecond)
	if h.server.Expired() != 0 {
		t.Error("confirmed session expired anyway")
	}
	info, _ := c.Session(bg, res.Session)
	if info.State != "playing" {
		t.Errorf("state = %s", info.State)
	}
	if err := c.Reject(bg, res.Session); err == nil {
		t.Error("reject after confirm accepted")
	}
}

func TestListDocuments(t *testing.T) {
	h := newHarness(t)
	c := h.dial(t)
	docs, err := c.ListDocuments(bg, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("documents = %+v", docs)
	}
	if docs[0].ID != "news-1" || docs[0].Components == 0 {
		t.Errorf("docs[0] = %+v", docs[0])
	}
	hits, err := c.ListDocuments(bg, "hockey")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].ID != "news-2" {
		t.Errorf("search = %+v", hits)
	}
}

func TestServerErrors(t *testing.T) {
	h := newHarness(t)
	c := h.dial(t)
	// Unknown document.
	if _, err := c.Negotiate(bg, h.bed.Client(1), "ghost", tvProfile(time.Minute)); err == nil {
		t.Error("unknown document accepted")
	}
	// Invalid profile (empty name).
	bad := tvProfile(time.Minute)
	bad.Name = ""
	if _, err := c.Negotiate(bg, h.bed.Client(1), "news-1", bad); err == nil {
		t.Error("invalid profile accepted")
	}
	// Invalid machine.
	mach := h.bed.Client(1)
	mach.Decoders = nil
	if _, err := c.Negotiate(bg, mach, "news-1", tvProfile(time.Minute)); err == nil {
		t.Error("invalid machine accepted")
	}
	// Unknown session.
	if err := c.Confirm(bg, 9999); err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Errorf("unknown session: %v", err)
	}
	// The connection survives errors: a good request still works.
	if _, err := c.ListDocuments(bg, ""); err != nil {
		t.Errorf("connection broken after error: %v", err)
	}
}

// TestMalformedImportanceRefused: a profile whose importance profile could
// break classification — unsorted or over-full anchors, a non-finite weight,
// a weight off its scale, a non-canonical language table — is answered with
// a server error, by UserProfile.Validate or by the body decoder, and never
// classified.
func TestMalformedImportanceRefused(t *testing.T) {
	h := newHarness(t)
	nan := math.NaN()
	for _, tc := range []struct {
		name, want string
		mutate     func(im *profile.Importance)
	}{
		{"unsorted anchors", "anchors not sorted", func(im *profile.Importance) {
			im.FrameRate = profile.Curve{Anchors: [profile.MaxAnchors]profile.Point{{X: 30, Y: 10}, {X: 1, Y: 1}, {X: 30, Y: 2}}, N: 3}
		}},
		{"duplicate anchors", "duplicate anchor", func(im *profile.Importance) {
			im.Resolution = profile.NewCurve(profile.Point{X: 480, Y: 1}, profile.Point{X: 480, Y: 2})
		}},
		{"NaN cost", "a weight of NaN", func(im *profile.Importance) { im.CostPerDollar = nan }},
		{"NaN color weight", "a weight of NaN", func(im *profile.Importance) { im.VideoColor[qos.Grey] = nan }},
		{"infinite anchor", "weighs +Inf", func(im *profile.Importance) { im.ImageResolution.Anchors[0].Y = math.Inf(1) }},
		{"NaN language weight", "weighs NaN", func(im *profile.Importance) { im.Language[1].Weight = nan }},
		{"weight at index 0", "malformed", func(im *profile.Importance) { im.AudioGrade[0] = 1 }},
		{"anchors over capacity", "malformed", func(im *profile.Importance) {
			im.FrameRate = profile.NewCurve(profile.Point{X: 1}, profile.Point{X: 2}, profile.Point{X: 3}, profile.Point{X: 4}, profile.Point{X: 5})
		}},
		{"languages out of order", "malformed", func(im *profile.Importance) {
			im.Language[0], im.Language[1] = im.Language[1], im.Language[0]
		}},
		{"a listed zero weight", "malformed", func(im *profile.Importance) { im.Language[0].Weight = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := h.dial(t) // a malformed body ends its connection
			u := tvProfile(time.Minute)
			u.Importance = profile.DefaultImportance()
			tc.mutate(&u.Importance)
			res, err := c.Negotiate(bg, h.bed.Client(1), "news-1", u)
			if err == nil || !strings.Contains(err.Error(), "server error") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("negotiate: %v (status %v), want a server error naming %q", err, res.Status, tc.want)
			}
		})
	}
	if got := h.bed.Manager.Stats().Requests; got != 0 {
		t.Errorf("%d negotiations ran, want 0", got)
	}
}

func TestMalformedRequestType(t *testing.T) {
	h := newHarness(t)
	c := h.dial(t)
	resp, err := c.roundTrip(context.Background(), Envelope{Type: "dance"}, false)
	if err == nil {
		t.Errorf("unknown request type accepted: %+v", resp)
	}
}

func TestConcurrentClients(t *testing.T) {
	h := newHarness(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(bg, h.addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 5; j++ {
				res, err := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
				if err != nil {
					errs <- err
					return
				}
				if res.Status.Reserved() {
					if err := c.Reject(bg, res.Session); err != nil {
						errs <- err
						return
					}
				}
				if _, err := c.ListDocuments(bg, ""); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if h.bed.Network.ActiveReservations() != 0 {
		t.Errorf("leaked %d reservations", h.bed.Network.ActiveReservations())
	}
}

func TestParseStatus(t *testing.T) {
	for s := core.Succeeded; s <= core.FailedWithLocalOffer; s++ {
		got, ok := ParseStatus(s.String())
		if !ok || got != s {
			t.Errorf("ParseStatus(%s) = %v, %v", s, got, ok)
		}
	}
	if _, ok := ParseStatus("NOPE"); ok {
		t.Error("unknown status parsed")
	}
}

func TestListSessions(t *testing.T) {
	h := newHarness(t)
	c := h.dial(t)
	if rows, err := c.ListSessions(bg); err != nil || len(rows) != 0 {
		t.Fatalf("empty daemon: %v %v", rows, err)
	}
	r1, err := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Negotiate(bg, h.bed.Client(2), "news-2", tvProfile(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Confirm(bg, r2.Session); err != nil {
		t.Fatal(err)
	}
	rows, err := c.ListSessions(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Session != r1.Session || rows[0].State != "reserved" || rows[0].Document != "news-1" {
		t.Errorf("row 0 = %+v", rows[0])
	}
	if rows[1].Session != r2.Session || rows[1].State != "playing" {
		t.Errorf("row 1 = %+v", rows[1])
	}
	if rows[0].Cost <= 0 {
		t.Errorf("row cost = %v", rows[0].Cost)
	}
}

func TestInvoiceOverWire(t *testing.T) {
	h := newHarness(t)
	c := h.dial(t)
	res, err := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	inv, err := c.Invoice(bg, res.Session)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Total != res.Cost {
		t.Errorf("invoice total %v vs negotiated cost %v", inv.Total, res.Cost)
	}
	if len(inv.Lines) != 2 {
		t.Errorf("lines = %+v", inv.Lines)
	}
	if _, err := c.Invoice(bg, 999); err == nil {
		t.Error("unknown session invoiced")
	}
}

func TestServerLoadsOverWire(t *testing.T) {
	h, _ := daemonHarness(t, testbed.Spec{})
	c := h.dial(t)
	snap, err := c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	loads := gauges(snap, cmfs.MetricActiveStreams)
	if n, ok := loads["server-1"]; len(loads) != 2 || !ok {
		t.Fatalf("loads = %+v", loads)
	} else if n != 0 {
		t.Errorf("idle server streams = %d", n)
	}
	res, err := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	snap, _ = c.Metrics(bg)
	total := int64(0)
	for _, n := range gauges(snap, cmfs.MetricActiveStreams) {
		total += n
	}
	// video + audio + caption text: discrete media occupy a stream slot
	// while being fetched.
	if total != 3 {
		t.Errorf("streams after negotiation = %d", total)
	}
}
