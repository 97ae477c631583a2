package protocol

import (
	"bufio"
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/telemetry"
)

func TestHandshakeNegotiatesBinary(t *testing.T) {
	h := newHarness(t)
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	// NewClient shakes hands on first use, so the counter sees it.
	c := NewClient(conn)
	defer c.Close()
	reg := telemetry.NewRegistry()
	c.Instrument(reg, nil)
	if _, err := c.Metrics(bg); err != nil {
		t.Fatal(err)
	}
	if v := reg.Snapshot().CounterValue("qosneg_client_connections_total", ""); v != 1 {
		t.Fatalf("%v connections counted, want 1", v)
	}
}

// TestConcurrentRPCsOnOneConnection exercises the multiplexer: many
// goroutines sharing a single client (hence a single TCP connection) must
// all complete without redials — streams, not connections, carry the
// concurrency.
func TestConcurrentRPCsOnOneConnection(t *testing.T) {
	h := newHarness(t)
	c := h.dial(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := c.Metrics(bg); err != nil {
					errs <- err
					return
				}
				if _, err := c.ListDocuments(bg, ""); err != nil {
					errs <- err
					return
				}
			}
			if i%4 == 0 {
				res, err := c.Negotiate(bg, h.bed.Client(1+i%2), "news-1", tvProfile(time.Minute))
				if err != nil {
					errs <- err
					return
				}
				if res.Status.Reserved() {
					if err := c.Reject(bg, res.Session); err != nil {
						errs <- err
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if c.Redials() != 0 {
		t.Errorf("concurrent RPCs cost %d redials; want 0 (one multiplexed connection)", c.Redials())
	}
	if h.bed.Network.ActiveReservations() != 0 {
		t.Errorf("leaked %d reservations", h.bed.Network.ActiveReservations())
	}
}

// TestWatchDoesNotBlockMultiplexedRPCs is the satellite bugfix's regression
// test: a live watch stream must not serialize other RPCs on the same
// connection, and canceling the watch must leave the connection healthy —
// no redial, no poisoned deadline.
func TestWatchDoesNotBlockMultiplexedRPCs(t *testing.T) {
	h := newHarness(t)
	c := h.dial(t)
	res, err := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("negotiate: %v %v", res.Status, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make(chan SessionInfo, 16)
	watchErr := make(chan error, 1)
	go func() {
		watchErr <- c.Watch(ctx, res.Session, 10*time.Millisecond, func(i SessionInfo) {
			select {
			case got <- i:
			default:
			}
		})
	}()

	// The watch is live (first update observed)...
	select {
	case i := <-got:
		if i.State != "reserved" {
			t.Errorf("first update state = %s", i.State)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch produced no update")
	}
	// ...and concurrent RPCs on the same connection still answer.
	for i := 0; i < 5; i++ {
		rpcDone := make(chan error, 1)
		go func() {
			_, err := c.Metrics(bg)
			rpcDone <- err
		}()
		select {
		case err := <-rpcDone:
			if err != nil {
				t.Fatalf("RPC during watch: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("RPC blocked behind the watch stream")
		}
	}

	// Cancel the watch mid-stream: only its stream dies.
	cancel()
	select {
	case err := <-watchErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("watch returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled watch never returned")
	}
	if _, err := c.Metrics(bg); err != nil {
		t.Fatalf("connection poisoned by canceled watch: %v", err)
	}
	if err := c.Reject(bg, res.Session); err != nil {
		t.Fatal(err)
	}
	if c.Redials() != 0 {
		t.Errorf("canceled watch cost %d redials; want 0", c.Redials())
	}
}

// TestWireMatchesInProcess runs one negotiate → confirm → session → reject
// flow, plus a second negotiation, over the wire and directly on the manager
// of an identically built bed, and requires identical outcomes: the wire is
// transport, not semantics.
func TestWireMatchesInProcess(t *testing.T) {
	type negotiation struct {
		Status       core.NegotiationStatus
		Offer        *profile.MMProfile
		Session      core.SessionID
		Cost         cost.Money
		ChoicePeriod time.Duration
	}
	type outcome struct {
		First, Second negotiation
		State         string
		StateCost     cost.Money
		RejectErr     string
	}

	h := newHarness(t)
	c := h.dial(t)
	overWire := func(mach client.Machine, doc media.DocumentID) negotiation {
		res, err := c.Negotiate(bg, mach, doc, tvProfile(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		return negotiation{res.Status, res.Offer, res.Session, res.Cost, res.ChoicePeriod}
	}
	var wire outcome
	wire.First = overWire(h.bed.Client(1), "news-1")
	if err := c.Confirm(bg, wire.First.Session); err != nil {
		t.Fatal(err)
	}
	info, err := c.Session(bg, wire.First.Session)
	if err != nil {
		t.Fatal(err)
	}
	wire.State, wire.StateCost = info.State, info.Cost
	if err := c.Reject(bg, wire.First.Session); err != nil {
		wire.RejectErr = strings.TrimPrefix(err.Error(), "protocol: server error: ")
	}
	wire.Second = overWire(h.bed.Client(2), "news-2")
	if err := c.Reject(bg, wire.Second.Session); err != nil {
		t.Fatal(err)
	}

	bed := newsBed(t)
	man := bed.Manager
	inProcess := func(mach client.Machine, doc media.DocumentID) negotiation {
		res, err := man.NegotiateContext(bg, mach, doc, tvProfile(time.Minute))
		if err != nil || res.Session == nil {
			t.Fatalf("negotiate: %v %v", res.Status, err)
		}
		return negotiation{res.Status, res.Offer, res.Session.ID, res.Session.Cost(), res.Session.ChoicePeriod}
	}
	var direct outcome
	direct.First = inProcess(bed.Client(1), "news-1")
	if err := man.Confirm(direct.First.Session); err != nil {
		t.Fatal(err)
	}
	sess, err := man.Session(direct.First.Session)
	if err != nil {
		t.Fatal(err)
	}
	direct.State, direct.StateCost = sess.State().String(), sess.Cost()
	if err := man.Reject(direct.First.Session); err != nil {
		direct.RejectErr = err.Error()
	}
	direct.Second = inProcess(bed.Client(2), "news-2")
	if err := man.Reject(direct.Second.Session); err != nil {
		t.Fatal(err)
	}

	if wire.RejectErr == "" {
		t.Error("rejecting a confirmed session succeeded")
	}
	if !reflect.DeepEqual(wire, direct) {
		t.Errorf("wire and in-process disagree:\n wire       %+v\n in-process %+v", wire, direct)
	}
}

// binaryHandshake dials a raw connection and completes the hello exchange,
// returning the connection ready for hand-rolled frames.
func binaryHandshake(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(`{"type":"hello","codecs":["binary/2"]}` + "\n")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	line, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	ack, err := readEnvelopeLine(line)
	if p, ok := ack.Payload.(*HelloAck); err != nil || !ok || p.Codec != CodecBinary {
		t.Fatalf("handshake answer %v %v", ack, err)
	}
	return conn, r
}

// TestStreamZeroIsProtocolError: stream id 0 is reserved; using it answers a
// typed error and closes the connection cleanly.
func TestStreamZeroIsProtocolError(t *testing.T) {
	h := newHarness(t)
	conn, r := binaryHandshake(t, h.addr)
	payload, _ := appendBody(nil, Envelope{Type: MsgMetrics})
	if _, err := conn.Write(appendFrame(nil, frame{Stream: 0, Payload: payload})); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(r)
	if err != nil {
		t.Fatalf("no error frame before close: %v", err)
	}
	env, err := decodeBody(f.Payload)
	if err != nil || env.Type != MsgError {
		t.Fatalf("frame = %+v %v, want a typed error", env, err)
	}
	if p := env.Payload.(*ErrorPayload); !strings.Contains(p.Error, "stream id") {
		t.Errorf("error = %q", p.Error)
	}
	if _, err := readFrame(r); err == nil {
		t.Error("connection stayed open after a protocol error")
	}
}

// TestDuplicateStreamIDIsProtocolError: reusing a stream id that is still
// open (here: held by a live watch) is a protocol error that closes the
// connection after a typed MsgError.
func TestDuplicateStreamIDIsProtocolError(t *testing.T) {
	h := newHarness(t)
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
	// First watch update proves stream 7 is live.
	if _, err := readFrame(r); err != nil {
		t.Fatal(err)
	}
	metricsReq, _ := appendBody(nil, Envelope{Type: MsgMetrics})
	if _, err := conn.Write(appendFrame(nil, frame{Stream: 7, Payload: metricsReq})); err != nil {
		t.Fatal(err)
	}
	sawError := false
	for i := 0; i < 32; i++ {
		f, err := readFrame(r)
		if err != nil {
			break // clean close after the error frame
		}
		if env, derr := decodeBody(f.Payload); derr == nil && env.Type == MsgError {
			if p := env.Payload.(*ErrorPayload); strings.Contains(p.Error, "stream id") {
				sawError = true
			}
		}
	}
	if !sawError {
		t.Error("duplicate stream id produced no typed error")
	}
}

// TestCancelFrameStopsServerStream: a client-sent cancel frame aborts the
// stream server-side (the watch stops sampling) while the connection keeps
// serving other streams.
func TestCancelFrameStopsServerStream(t *testing.T) {
	h := newHarness(t)
	ctl := h.dial(t)
	res, err := ctl.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("negotiate: %v %v", res.Status, err)
	}
	defer ctl.Reject(bg, res.Session)

	conn, r := binaryHandshake(t, h.addr)
	watchReq, _ := appendBody(nil, Envelope{Type: MsgWatch, Payload: &WatchRequest{Session: res.Session, IntervalMs: 20}})
	if _, err := conn.Write(appendFrame(nil, frame{Stream: 3, Payload: watchReq})); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(r); err != nil {
		t.Fatal(err)
	}
	// Cancel the watch, then prove the connection still answers: a fresh
	// metrics stream completes with a FIN frame.
	if _, err := conn.Write(appendFrame(nil, frame{Stream: 3, Flags: flagCancel})); err != nil {
		t.Fatal(err)
	}
	// Cancels of unknown ids are ignored, not errors.
	if _, err := conn.Write(appendFrame(nil, frame{Stream: 999, Flags: flagCancel})); err != nil {
		t.Fatal(err)
	}
	metricsReq, _ := appendBody(nil, Envelope{Type: MsgMetrics})
	if _, err := conn.Write(appendFrame(nil, frame{Stream: 4, Payload: metricsReq})); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		f, err := readFrame(r)
		if err != nil {
			t.Fatalf("connection died after cancel: %v", err)
		}
		if f.Stream == 4 {
			env, derr := decodeBody(f.Payload)
			if derr != nil || env.Type != MsgMetricsInfo {
				t.Fatalf("metrics answer = %+v %v", env, derr)
			}
			if f.Flags&flagFIN == 0 {
				t.Error("unary response missing FIN")
			}
			return
		}
	}
	t.Fatal("metrics stream never answered after cancel")
}

// TestMalformedFirstLineStillAnswered: the lone-"{" crasher analogue on a
// fresh connection — the hello line must be answered and the connection
// closed, not waited on.
func TestMalformedFirstLineStillAnswered(t *testing.T) {
	h := newHarness(t)
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte("{\n")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	line, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("no answer to malformed first line: %v", err)
	}
	env, err := readEnvelopeLine(line)
	if err != nil || env.Type != MsgError {
		t.Fatalf("answer = %v %v, want MsgError", env, err)
	}
	if _, err := r.ReadBytes('\n'); err == nil {
		t.Error("connection stayed open after malformed input")
	}
}
