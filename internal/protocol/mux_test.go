package protocol

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/telemetry"
	"qosneg/internal/testbed"
)

func TestHandshakeNegotiatesBinary(t *testing.T) {
	h := newHarness(t)
	c := h.dial(t)
	if got := c.Codec(); got != CodecBinary {
		t.Fatalf("negotiated codec = %q, want %q", got, CodecBinary)
	}
	if _, err := c.Stats(bg); err != nil {
		t.Fatal(err)
	}
}

func TestJSONPinnedClientSkipsHandshake(t *testing.T) {
	h := newHarness(t)
	c, err := Dial(h.addr, WithWire(WireOptions{Codecs: []string{CodecJSON}}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Codec(); got != CodecJSON {
		t.Fatalf("codec = %q, want %q", got, CodecJSON)
	}
	if _, err := c.ListDocuments(bg, ""); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryClientFallsBackToJSONOnlyServer: a binary-preferring client
// against a daemon configured to only accept JSON lands on the fallback
// codec through the handshake, on the same connection.
func TestBinaryClientFallsBackToJSONOnlyServer(t *testing.T) {
	bed := testbed.MustNew(testbed.Spec{})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 90*time.Second); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(bed.Manager, bed.Registry, WithServerWire(WireOptions{Codecs: []string{CodecJSON}}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(l) }()
	t.Cleanup(func() { l.Close(); srv.Close(); <-done })

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Codec(); got != CodecJSON {
		t.Fatalf("codec = %q, want fallback to %q", got, CodecJSON)
	}
	res, err := c.Negotiate(bg, bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("negotiate over fallback: %v %v", res.Status, err)
	}
	if err := c.Reject(bg, res.Session); err != nil {
		t.Fatal(err)
	}
	if c.Redials() != 0 {
		t.Errorf("fallback cost %d redials; want 0", c.Redials())
	}
}

// legacyStubServer emulates a daemon that predates the MsgHello handshake:
// unknown request types (including hello) are answered with MsgError on an
// open connection, exactly as the old dispatch loop did.
func legacyStubServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					line, err := r.ReadBytes('\n')
					if err != nil {
						return
					}
					var req struct {
						Type string `json:"type"`
					}
					if json.Unmarshal(line, &req) != nil {
						return
					}
					switch req.Type {
					case "list-documents":
						fmt.Fprintf(conn, "{\"type\":\"documents\",\"documents\":[{\"id\":\"legacy-1\",\"title\":\"Legacy doc\",\"components\":1}]}\n")
					default:
						fmt.Fprintf(conn, "{\"type\":\"error\",\"error\":\"unknown request type %s\"}\n", req.Type)
					}
				}
			}(conn)
		}
	}()
	return l.Addr().String()
}

// TestBinaryClientFallsBackToLegacyServer is the mixed-version matrix's
// hard corner: a new client dials a server that answers the hello with
// MsgError. The client must drop to JSON on the same (still healthy)
// connection and complete RPCs normally.
func TestBinaryClientFallsBackToLegacyServer(t *testing.T) {
	addr := legacyStubServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Codec(); got != CodecJSON {
		t.Fatalf("codec = %q, want fallback to %q", got, CodecJSON)
	}
	docs, err := c.ListDocuments(bg, "")
	if err != nil || len(docs) != 1 || docs[0].ID != "legacy-1" {
		t.Fatalf("ListDocuments over fallback: %v %v", docs, err)
	}
	if c.Redials() != 0 {
		t.Errorf("fallback cost %d redials; want 0", c.Redials())
	}
}

// TestBinaryOnlyClientRefusesLegacyServer: with JSON struck from the
// preference list there is nothing to fall back to.
func TestBinaryOnlyClientRefusesLegacyServer(t *testing.T) {
	addr := legacyStubServer(t)
	_, err := Dial(addr, WithWire(WireOptions{Codecs: []string{CodecBinary}}))
	if err == nil || !strings.Contains(err.Error(), "does not speak") {
		t.Fatalf("binary-only dial of a legacy server: %v", err)
	}
}

// TestConcurrentRPCsOnOneConnection exercises the multiplexer: many
// goroutines sharing a single client (hence a single TCP connection) must
// all complete without redials — streams, not connections, carry the
// concurrency.
func TestConcurrentRPCsOnOneConnection(t *testing.T) {
	h := newHarness(t)
	c := h.dial(t)
	if c.Codec() != CodecBinary {
		t.Fatalf("codec = %q", c.Codec())
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := c.Stats(bg); err != nil {
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
			_, err := c.Stats(bg)
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
	if _, err := c.Stats(bg); err != nil {
		t.Fatalf("connection poisoned by canceled watch: %v", err)
	}
	if err := c.Reject(bg, res.Session); err != nil {
		t.Fatal(err)
	}
	if c.Redials() != 0 {
		t.Errorf("canceled watch cost %d redials; want 0", c.Redials())
	}
}

// TestBatchNegotiate covers the new RPC end to end: per-item statuses, one
// failed item not failing its siblings, choice timers armed per reserved
// item, a single server round trip, and an empty ledger at wind-down.
func TestBatchNegotiate(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := instrumentedHarness(t, reg)
	if _, err := h.bed.AddNewsArticle("news-2", "Hockey final", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	c := h.dial(t)
	mach1, mach2 := h.bed.Client(1), h.bed.Client(2)
	u := tvProfile(time.Minute)
	items := []BatchItem{
		{Machine: &mach1, Document: "news-1", Profile: &u},
		{Machine: &mach1, Document: "ghost", Profile: &u},
		{Machine: &mach2, Document: "news-2", Profile: &u},
	}
	results, err := c.BatchNegotiate(bg, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Err != nil || !results[0].Status.Reserved() {
		t.Fatalf("item 0 = %+v", results[0])
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "ghost") {
		t.Fatalf("item 1 should fail with the unknown document: %+v", results[1])
	}
	if results[2].Err != nil || !results[2].Status.Reserved() {
		t.Fatalf("item 2 = %+v", results[2])
	}
	if results[0].Session == results[2].Session {
		t.Errorf("items share session %d", results[0].Session)
	}

	// One round trip: the daemon timed exactly one batch-negotiate RPC.
	snap := reg.Snapshot()
	if hp, ok := snap.Find("qosneg_rpc_server_seconds", string(MsgBatchNegotiate)); !ok || hp.Count != 1 {
		t.Errorf("rpc_server_seconds{batch-negotiate} = %+v ok=%v, want exactly one round trip", hp, ok)
	}

	// Wind down: confirm one, reject the other, and prove nothing leaked.
	if err := c.Confirm(bg, results[0].Session); err != nil {
		t.Fatal(err)
	}
	if err := c.Reject(bg, results[2].Session); err != nil {
		t.Fatal(err)
	}
	if err := c.Reject(bg, results[0].Session); err == nil {
		t.Error("reject after confirm accepted")
	}
	if err := h.bed.Manager.Reject(results[0].Session); err == nil {
		t.Error("manager reject after confirm accepted")
	}
	// The confirmed session is playing; abort it so the bed is quiescent,
	// then the ledger must be empty.
	h.bed.Manager.Abort(results[0].Session)
	if err := h.bed.Ledger.CheckEmpty(); err != nil {
		t.Errorf("ledger not empty at wind-down: %v", err)
	}
}

// TestBatchChoiceTimersExpire: every reserved batch item gets its own step 6
// choice timer.
func TestBatchChoiceTimersExpire(t *testing.T) {
	h := newHarness(t)
	c := h.dial(t)
	mach1, mach2 := h.bed.Client(1), h.bed.Client(2)
	u := tvProfile(60 * time.Millisecond)
	results, err := c.BatchNegotiate(bg, []BatchItem{
		{Machine: &mach1, Document: "news-1", Profile: &u},
		{Machine: &mach2, Document: "news-2", Profile: &u},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || !r.Status.Reserved() {
			t.Fatalf("item %d = %+v", i, r)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && h.server.Expired() < 2 {
		time.Sleep(10 * time.Millisecond)
	}
	if h.server.Expired() != 2 {
		t.Fatalf("expired = %d, want both batch reservations reclaimed", h.server.Expired())
	}
	if h.bed.Network.ActiveReservations() != 0 {
		t.Error("expired batch leaked reservations")
	}
}

// TestCrossCodecEquivalence runs the same negotiate/confirm/reject flow over
// both codecs against identically-built beds and requires identical
// outcomes: the binary codec is a framing change, not a semantic one.
func TestCrossCodecEquivalence(t *testing.T) {
	type outcome struct {
		Negotiate NegotiationResult
		Confirmed SessionInfo
		RejectErr string
		Second    NegotiationResult
	}
	runFlow := func(t *testing.T, codecs []string, wantCodec string) outcome {
		h := newHarness(t)
		c, err := Dial(h.addr, WithWire(WireOptions{Codecs: codecs}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if got := c.Codec(); got != wantCodec {
			t.Fatalf("codec = %q, want %q", got, wantCodec)
		}
		var o outcome
		o.Negotiate, err = c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Confirm(bg, o.Negotiate.Session); err != nil {
			t.Fatal(err)
		}
		o.Confirmed, err = c.Session(bg, o.Negotiate.Session)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Reject(bg, o.Negotiate.Session); err != nil {
			o.RejectErr = err.Error()
		}
		o.Second, err = c.Negotiate(bg, h.bed.Client(2), "news-2", tvProfile(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Reject(bg, o.Second.Session); err != nil {
			t.Fatal(err)
		}
		return o
	}
	jsonOut := runFlow(t, []string{CodecJSON}, CodecJSON)
	binOut := runFlow(t, []string{CodecBinary, CodecJSON}, CodecBinary)
	// Playout position advances in real time on confirmed sessions; it is
	// the only wall-clock-dependent field.
	jsonOut.Confirmed.Position = 0
	binOut.Confirmed.Position = 0
	if !reflect.DeepEqual(jsonOut, binOut) {
		t.Errorf("codecs disagree:\n json   %+v\n binary %+v", jsonOut, binOut)
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
	if _, err := conn.Write([]byte(`{"type":"hello","codecs":["binary/2","json"]}` + "\n")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	line, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	ack, err := readEnvelopeLine(line)
	if err != nil || ack.Type != MsgHelloAck {
		t.Fatalf("handshake answer %v %v", ack, err)
	}
	return conn, r
}

// TestStreamZeroIsProtocolError: stream id 0 is reserved; using it answers a
// typed error and closes the connection cleanly.
func TestStreamZeroIsProtocolError(t *testing.T) {
	h := newHarness(t)
	conn, r := binaryHandshake(t, h.addr)
	payload, _ := appendBody(nil, Envelope{Type: MsgStats})
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
	statsReq, _ := appendBody(nil, Envelope{Type: MsgStats})
	if _, err := conn.Write(appendFrame(nil, frame{Stream: 7, Payload: statsReq})); err != nil {
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
	// stats stream completes with a FIN frame.
	if _, err := conn.Write(appendFrame(nil, frame{Stream: 3, Flags: flagCancel})); err != nil {
		t.Fatal(err)
	}
	// Cancels of unknown ids are ignored, not errors.
	if _, err := conn.Write(appendFrame(nil, frame{Stream: 999, Flags: flagCancel})); err != nil {
		t.Fatal(err)
	}
	statsReq, _ := appendBody(nil, Envelope{Type: MsgStats})
	if _, err := conn.Write(appendFrame(nil, frame{Stream: 4, Payload: statsReq})); err != nil {
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
			if derr != nil || env.Type != MsgStatsInfo {
				t.Fatalf("stats answer = %+v %v", env, derr)
			}
			if f.Flags&flagFIN == 0 {
				t.Error("unary response missing FIN")
			}
			return
		}
	}
	t.Fatal("stats stream never answered after cancel")
}

// TestMalformedFirstLineStillAnswered: the lone-"{" crasher analogue on a
// fresh connection — the codec-sniffing first-message path must answer and
// close, exactly like the legacy line loop did.
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

var _ = core.SessionID(0) // keep the import stable across edits
