package protocol

import (
	"bufio"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/testbed"
)

// TestClientRedialsAfterServerRestart: a daemon restart breaks the client's
// connection; the next idempotent RPC redials transparently once the daemon
// is back, while RPCs issued during the outage fail after the retry budget.
func TestClientRedialsAfterServerRestart(t *testing.T) {
	bed := testbed.MustNew(testbed.Spec{})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 90*time.Second); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(bed.Manager, bed.Registry)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(l) }()

	c, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Metrics(bg); err != nil {
		t.Fatal(err)
	}

	// Kill the daemon. Idempotent RPCs retry but find nobody listening.
	l.Close()
	srv.Close()
	<-done
	if _, err := c.Metrics(bg); err == nil {
		t.Fatal("Metrics succeeded with the daemon down")
	}

	// Restart on the same address: the client self-heals on the next RPC.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv2 := NewServer(bed.Manager, bed.Registry)
	done2 := make(chan struct{})
	go func() { defer close(done2); srv2.Serve(l2) }()
	defer func() {
		l2.Close()
		srv2.Close()
		<-done2
	}()

	snap, err := c.Metrics(bg)
	if err != nil {
		t.Fatalf("Metrics after daemon restart: %v", err)
	}
	if n := snap.CounterValue(core.MetricNegotiations, ""); n != 0 {
		t.Errorf("unexpected negotiations after restart: %d", n)
	}
	if c.Redials() < 1 {
		t.Errorf("Redials() = %d; want at least one reconnect", c.Redials())
	}

	// Documents survive too — the redialed connection is fully usable.
	docs, err := c.ListDocuments(bg, "")
	if err != nil || len(docs) != 1 {
		t.Errorf("ListDocuments after restart: %d docs, %v", len(docs), err)
	}
}

// TestNonIdempotentNotRetried: a state-changing RPC must not be blindly
// retried across a broken connection (the daemon may have committed), but a
// connection already known broken earns one fresh dial. The stub daemon
// completes the hello, takes the first negotiate frame and hangs up without
// replying; every later negotiate it answers FAILEDTRYLATER.
func TestNonIdempotentNotRetried(t *testing.T) {
	var negotiates atomic.Int64
	addr := stubListener(t, func(conn net.Conn) {
		defer conn.Close()
		r := bufio.NewReader(conn)
		if _, err := r.ReadBytes('\n'); err != nil {
			return
		}
		conn.Write([]byte(`{"type":"hello-ack","codec":"binary/2"}` + "\n"))
		for {
			f, err := readFrame(r)
			if err != nil || bodyType(f.Payload) != MsgNegotiate {
				return
			}
			if negotiates.Add(1) == 1 {
				return
			}
			body, _ := appendBody(nil, Envelope{Type: MsgResult, Payload: &ResultPayload{Status: core.FailedTryLater.String()}})
			conn.Write(appendFrame(nil, frame{Stream: f.Stream, Flags: flagFIN, Payload: body}))
		}
	})
	c, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mach := testbed.MustNew(testbed.Spec{}).Client(1)

	// The connection dies under the first Negotiate, whose outcome is
	// therefore unknown: it must fail, not retry.
	if _, err := c.Negotiate(bg, mach, "news-1", tvProfile(time.Minute)); err == nil {
		t.Fatal("Negotiate succeeded on a connection that died under it")
	}
	if n := negotiates.Load(); n != 1 {
		t.Fatalf("the daemon saw %d negotiate frames, want exactly 1", n)
	}
	if c.Redials() != 0 {
		t.Fatalf("a failed Negotiate redialed %d times", c.Redials())
	}

	// Now the connection is known broken: the next Negotiate gets one fresh
	// dial up front and is answered.
	res, err := c.Negotiate(bg, mach, "news-1", tvProfile(time.Minute))
	if err != nil || res.Status != core.FailedTryLater {
		t.Fatalf("Negotiate after the known break: %v %v", res.Status, err)
	}
	if n := negotiates.Load(); n != 2 {
		t.Errorf("the daemon saw %d negotiate frames, want 2", n)
	}
	if c.Redials() != 1 {
		t.Errorf("Redials() = %d, want exactly 1", c.Redials())
	}
}

// TestNewClientFailsFastWithoutAddress: NewClient has nothing to redial, so
// a broken connection stays broken with a diagnostic.
func TestNewClientFailsFastWithoutAddress(t *testing.T) {
	h := newHarness(t)
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()
	if _, err := c.Metrics(bg); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := c.Metrics(bg); err == nil {
		t.Fatal("Metrics succeeded on a closed connection")
	}
	if _, err := c.Metrics(bg); err == nil {
		t.Fatal("broken NewClient connection healed itself")
	}
	if c.Redials() != 0 {
		t.Errorf("Redials() = %d on an address-less client", c.Redials())
	}
}

// TestClosedClientRejectsRPCs: Close is terminal even for self-healing
// clients.
func TestClosedClientRejectsRPCs(t *testing.T) {
	h := newHarness(t)
	c, err := Dial(bg, h.addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Metrics(bg); err == nil {
		t.Fatal("Metrics succeeded on a closed client")
	}
}
