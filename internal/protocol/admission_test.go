package protocol

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qosneg/internal/admission"
	"qosneg/internal/core"
	"qosneg/internal/media"
	"qosneg/internal/telemetry"
	"qosneg/internal/testbed"
)

// saturatedController builds a controller that refuses everything: its only
// slot is pinned for the test's lifetime.
func saturatedController(t *testing.T) *admission.Controller {
	t.Helper()
	c := admission.New(admission.Config{MaxInFlight: 1, MinInFlight: 1})
	rel, _, ok := c.Admit()
	if !ok {
		t.Fatal("could not pin the controller's only slot")
	}
	t.Cleanup(rel)
	return c
}

// shedBed is a default bed whose manager is gated by a saturated controller,
// so it sheds every negotiation.
func shedBed(t *testing.T) *testbed.Bed {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Admission = saturatedController(t)
	return testbed.MustNew(testbed.Spec{Options: &opts})
}

// serveWith starts a protocol server with explicit options over a populated
// bed and returns the harness plus its telemetry registry.
func serveWith(t *testing.T, bed *testbed.Bed, opts ...ServerOption) (*harness, *telemetry.Registry) {
	t.Helper()
	srv := NewServer(bed.Manager, bed.Registry, opts...)
	reg := telemetry.NewRegistry()
	srv.Instrument(reg)
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
	return h, reg
}

// TestServerShedBusyOverWire: with the admission controller saturated, a
// negotiation is answered MsgBusy — surfaced as *ErrBusy
// with a positive RetryAfter — while queries keep working.
func TestServerShedBusyOverWire(t *testing.T) {
	t.Run(CodecBinary, func(t *testing.T) {
		bed := testbed.MustNew(testbed.Spec{})
		if _, err := bed.AddNewsArticle("news-1", "Election night", 90*time.Second); err != nil {
			t.Fatal(err)
		}
		ctrl := saturatedController(t)
		h, reg := serveWith(t, bed, WithServerAdmission(ctrl))
		c, err := Dial(bg, h.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, err = c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
		var busy *ErrBusy
		if !errors.As(err, &busy) {
			t.Fatalf("negotiate under saturation: err = %v, want *ErrBusy", err)
		}
		if busy.RetryAfter <= 0 {
			t.Fatalf("busy reply carries RetryAfter %v, want > 0", busy.RetryAfter)
		}
		// Queries are never shed: the daemon stays observable.
		if _, err := c.Metrics(bg); err != nil {
			t.Fatalf("metrics under saturation: %v", err)
		}
		if v := reg.Snapshot().CounterValue("qosneg_rpc_shed_total", ""); v == 0 {
			t.Fatal("no shed counted")
		}
	})
}

// TestManagerShedResultOverWire: a controller installed on the manager (not
// the server) sheds with a FAILEDTRYLATER result whose Shed flag and
// RetryAfter survive the wire.
func TestManagerShedResultOverWire(t *testing.T) {
	t.Run(CodecBinary, func(t *testing.T) {
		bed := shedBed(t)
		if _, err := bed.AddNewsArticle("news-1", "Election night", 90*time.Second); err != nil {
			t.Fatal(err)
		}
		h, _ := serveWith(t, bed)
		c, err := Dial(bg, h.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		res, err := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
		if err != nil {
			t.Fatalf("negotiate: %v", err)
		}
		if res.Status != core.FailedTryLater {
			t.Fatalf("status = %v, want FAILEDTRYLATER", res.Status)
		}
		if !res.Shed {
			t.Fatal("Shed flag lost over the wire")
		}
		if res.RetryAfter <= 0 {
			t.Fatalf("RetryAfter = %v, want > 0", res.RetryAfter)
		}
	})
}

// TestConcurrentShedNegotiationsCarryRetryAfter: every one of N concurrent
// Negotiate calls on one connection that the manager sheds answers
// FAILEDTRYLATER with the Shed marker and the controller's hint.
func TestConcurrentShedNegotiationsCarryRetryAfter(t *testing.T) {
	bed := shedBed(t)
	docs := []media.DocumentID{"news-1", "news-2", "news-3"}
	for _, id := range docs {
		if _, err := bed.AddNewsArticle(id, "Article "+string(id), time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	h, _ := serveWith(t, bed)
	c := h.dial(t)
	results := make([]NegotiationResult, len(docs))
	errs := make([]error, len(docs))
	var wg sync.WaitGroup
	for i, id := range docs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = c.Negotiate(bg, h.bed.Client(1), id, tvProfile(time.Minute))
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("%s: %v", docs[i], errs[i])
		}
		if res.Status != core.FailedTryLater || !res.Shed {
			t.Fatalf("%s: status %v shed %v, want shed FAILEDTRYLATER", docs[i], res.Status, res.Shed)
		}
		if res.RetryAfter <= 0 {
			t.Fatalf("%s: RetryAfter = %v, want > 0", docs[i], res.RetryAfter)
		}
	}
}

// TestStreamCapShedsInsteadOfStalling: at the stream cap the server answers
// a typed busy frame on the new stream id instead of blocking the frame
// reader — the pre-existing stream keeps flowing throughout.
func TestStreamCapShedsInsteadOfStalling(t *testing.T) {
	bed := testbed.MustNew(testbed.Spec{})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 90*time.Second); err != nil {
		t.Fatal(err)
	}
	h, reg := serveWith(t, bed, WithServerWire(WireOptions{MaxStreams: 1}))

	// Reserve a session so a watch has something non-terminal to follow.
	ctl := h.dial(t)
	res, err := ctl.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("negotiate: %v %v", res.Status, err)
	}
	defer ctl.Reject(bg, res.Session)

	conn, r := binaryHandshake(t, h.addr)
	watchReq, _ := appendBody(nil, Envelope{Type: MsgWatch, Payload: &WatchRequest{Session: res.Session, IntervalMs: 20}})
	if _, err := conn.Write(appendFrame(nil, frame{Stream: 7, Payload: watchReq})); err != nil {
		t.Fatal(err)
	}
	// First watch update proves the only handler slot is occupied.
	if _, err := readFrame(r); err != nil {
		t.Fatal(err)
	}
	metricsReq, _ := appendBody(nil, Envelope{Type: MsgMetrics})
	if _, err := conn.Write(appendFrame(nil, frame{Stream: 8, Payload: metricsReq})); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	sawBusy := false
	for time.Now().Before(deadline) && !sawBusy {
		f, err := readFrame(r)
		if err != nil {
			t.Fatalf("connection died instead of shedding: %v", err)
		}
		env, derr := decodeBody(f.Payload)
		if derr != nil {
			t.Fatal(derr)
		}
		switch env.Type {
		case MsgBusy:
			if f.Stream != 8 {
				t.Fatalf("busy frame on stream %d, want 8", f.Stream)
			}
			p := env.Payload.(*BusyPayload)
			if p.RetryAfterMs <= 0 {
				t.Fatalf("busy RetryAfterMs = %d, want > 0", p.RetryAfterMs)
			}
			if !strings.Contains(p.Error, "stream limit") {
				t.Errorf("busy error = %q", p.Error)
			}
			sawBusy = true
		case MsgSessionInfo:
			// The watch stream keeps flowing: the reader never stalled.
		default:
			t.Fatalf("unexpected frame %q on stream %d", env.Type, f.Stream)
		}
	}
	if !sawBusy {
		t.Fatal("no busy frame seen at the stream cap")
	}
	if v := reg.Snapshot().CounterValue("qosneg_rpc_shed_total", ""); v == 0 {
		t.Fatal("binary shed not counted")
	}
}

// TestStreamSlotFreedBeforeFIN: client and server negotiate the same stream
// cap, so a client that never exceeds it must never be shed for it. A caller
// reuses its slot the moment it has read a reply; the server therefore has
// to free the stream's slot before it queues the FIN, not after.
func TestStreamSlotFreedBeforeFIN(t *testing.T) {
	bed := testbed.MustNew(testbed.Spec{})
	wire := WireOptions{MaxStreams: 8}
	h, _ := serveWith(t, bed, WithServerWire(wire))
	c, err := Dial(bg, h.addr, WithWire(wire))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var busy atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < wire.MaxStreams; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				_, err := c.ListSessions(bg)
				var eb *ErrBusy
				switch {
				case errors.As(err, &eb):
					busy.Add(1)
				case err != nil:
					t.Errorf("list sessions: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := busy.Load(); n != 0 {
		t.Fatalf("%d of %d calls shed at a stream cap the client never exceeded", n, wire.MaxStreams*2000)
	}
}

// TestShedBeforeParse: a saturated server refuses a negotiation on its type
// code alone. The bodies here would not decode — proof that the refusal
// costs no parse — and each is answered busy on its own stream while the
// connection keeps serving; the same body on an unsaturated server is the
// malformed request it looks like.
func TestShedBeforeParse(t *testing.T) {
	bed := testbed.MustNew(testbed.Spec{})
	garbage := func(t MessageType) []byte { return []byte{codeOf[t], 0xff, 0xff, 0xff} }
	h, reg := serveWith(t, bed, WithServerAdmission(saturatedController(t)))
	conn, r := binaryHandshake(t, h.addr)
	var wire []byte
	for i, mt := range []MessageType{MsgNegotiate, MsgRenegotiate} {
		wire = appendFrame(wire, frame{Stream: uint32(i + 1), Payload: garbage(mt)})
	}
	metrics, _ := appendBody(nil, Envelope{Type: MsgMetrics})
	if _, err := conn.Write(appendFrame(wire, frame{Stream: 9, Payload: metrics})); err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]MessageType{}
	for len(seen) < 3 {
		f, err := readFrame(r)
		if err != nil {
			t.Fatalf("connection died: %v (saw %v)", err, seen)
		}
		env, err := decodeBody(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		seen[f.Stream] = env.Type
		if p, ok := env.Payload.(*BusyPayload); ok && p.RetryAfterMs <= 0 {
			t.Errorf("stream %d: busy without a retry hint", f.Stream)
		}
	}
	if seen[1] != MsgBusy || seen[2] != MsgBusy || seen[9] != MsgMetricsInfo {
		t.Errorf("answers = %v", seen)
	}
	if v := reg.Snapshot().CounterValue("qosneg_rpc_shed_total", ""); v != 2 {
		t.Errorf("%v sheds counted, want 2", v)
	}

	idle, _ := serveWith(t, bed)
	conn, r = binaryHandshake(t, idle.addr)
	if _, err := conn.Write(appendFrame(nil, frame{Stream: 1, Payload: garbage(MsgNegotiate)})); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if env, err := decodeBody(f.Payload); err != nil || env.Type != MsgError {
		t.Errorf("unsaturated server answered %+v %v to a malformed negotiate", env, err)
	}
}
