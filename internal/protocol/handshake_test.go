package protocol

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubListener accepts connections and hands each to serve on its own
// goroutine; cleanup closes the listener and every connection, then waits
// for the goroutines, so none outlives the test.
func stubListener(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				serve(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return l.Addr().String()
}

// TestOldPeersRefusedAtHandshake: a peer from before binary/2 — a client
// that sends no hello or offers [binary/1, json], a daemon that predates
// the handshake, speaks only json, or speaks [binary/1, json] and so acks
// json with its stream cap — meets a typed error and a closed connection,
// never a downgrade.
func TestOldPeersRefusedAtHandshake(t *testing.T) {
	h := newHarness(t)
	for _, tc := range []struct {
		name string
		// Exactly one is set: the first line an old client sends this
		// server, or the answer an old daemon gives this client's hello.
		clientSends, daemonAnswers string
	}{
		{name: "client-without-hello", clientSends: `{"type":"list-documents"}`},
		{name: "client-binary1-json", clientSends: `{"type":"hello","codecs":["binary/1","json"]}`},
		{name: "daemon-without-handshake", daemonAnswers: `{"type":"error","error":"unknown request type hello"}`},
		{name: "daemon-acks-json", daemonAnswers: `{"type":"hello-ack","codec":"json"}`},
		{name: "binary1-daemon-acks-json", daemonAnswers: `{"type":"hello-ack","codec":"json","maxStreams":256}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.clientSends != "" {
				conn, err := net.Dial("tcp", h.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				if _, err := conn.Write([]byte(tc.clientSends + "\n")); err != nil {
					t.Fatal(err)
				}
				r := bufio.NewReader(conn)
				line, err := r.ReadBytes('\n')
				if err != nil {
					t.Fatalf("no answer: %v", err)
				}
				if env, err := readEnvelopeLine(line); err != nil || env.Type != MsgError {
					t.Fatalf("answered %s (%v), want one MsgError line", line, err)
				}
				if _, err := r.ReadByte(); err != io.EOF {
					t.Fatalf("after the refusal: %v, want the connection closed", err)
				}
				return
			}
			closed := make(chan struct{})
			addr := stubListener(t, func(conn net.Conn) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				if _, err := r.ReadBytes('\n'); err != nil {
					return
				}
				conn.Write([]byte(tc.daemonAnswers + "\n"))
				r.ReadBytes('\n') // returns once the client hangs up
				close(closed)
			})
			if _, err := Dial(bg, addr); !errors.Is(err, ErrHandshakeRefused) {
				t.Fatalf("dial: %v, want %v", err, ErrHandshakeRefused)
			}
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("the refused client left its connection open")
			}
		})
	}
}

// TestOverlongHelloRefused: a peer that sends 8 MiB without a newline gets
// one MsgError line as soon as its first line outgrows the reader's buffer,
// and then a closed connection, instead of a daemon buffering it all and
// waiting for the rest. A client whose daemon answers that way fails the
// dial.
func TestOverlongHelloRefused(t *testing.T) {
	h := newHarness(t)
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		conn.Write(bytes.Repeat([]byte{'x'}, 8<<20)) // fails once the daemon hangs up
	}()
	defer func() { conn.Close(); <-wrote }()
	r := bufio.NewReader(conn)
	line, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("no answer within 2s: %v", err)
	}
	env, err := readEnvelopeLine(line)
	if err != nil || env.Type != MsgError || !strings.Contains(string(line), "hello line too long") {
		t.Fatalf("answered %s (%v), want one MsgError line saying the hello is too long", line, err)
	}
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("after the refusal: %v, want the connection closed", err)
	}

	// The client bounds the daemon's answer the same way.
	addr := stubListener(t, func(conn net.Conn) {
		defer conn.Close()
		bufio.NewReader(conn).ReadBytes('\n')
		conn.Write(bytes.Repeat([]byte{'x'}, 8<<10))
		io.Copy(io.Discard, conn) // returns once the client hangs up
	})
	ctx, cancel := context.WithTimeout(bg, 2*time.Second)
	defer cancel()
	if _, err := Dial(ctx, addr); !errors.Is(err, errHelloTooLong) {
		t.Fatalf("dial of a daemon answering 8 KiB without a newline: %v, want %v", err, errHelloTooLong)
	}
}

// TestBinaryOnlyClientRefusesLegacyServer: a daemon that predates the
// handshake answers the hello with MsgError and would go on serving JSON
// requests on the same connection. The client sends it nothing after the
// hello, fails the dial with the daemon's answer, and hangs up.
func TestBinaryOnlyClientRefusesLegacyServer(t *testing.T) {
	var (
		mu   sync.Mutex
		seen []string
	)
	closed := make(chan struct{})
	addr := stubListener(t, func(conn net.Conn) {
		defer conn.Close()
		defer close(closed)
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
			mu.Lock()
			seen = append(seen, req.Type)
			mu.Unlock()
			switch req.Type {
			case "list-documents":
				conn.Write([]byte(`{"type":"documents","documents":[{"id":"legacy-1","title":"Legacy doc","components":1}]}` + "\n"))
			default:
				fmt.Fprintf(conn, "{\"type\":\"error\",\"error\":\"unknown request type %s\"}\n", req.Type)
			}
		}
	})
	_, err := Dial(bg, addr)
	if !errors.Is(err, ErrHandshakeRefused) || !strings.Contains(err.Error(), "unknown request type hello") {
		t.Fatalf("dial of a legacy server: %v, want %v quoting its answer", err, ErrHandshakeRefused)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the refused client left its connection open")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != "hello" {
		t.Errorf("the legacy server saw %q, want only the hello", seen)
	}
}

// silentDaemon accepts connections and never answers; the hello waits.
func silentDaemon(t *testing.T) string {
	return stubListener(t, func(conn net.Conn) { io.Copy(io.Discard, conn) })
}

// within runs call and fails the test unless it returns within d. A call
// still blocked then is unblocked by the stub daemon's cleanup.
func within(t *testing.T, d time.Duration, call func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("still blocked after %v", d)
		return nil
	}
}

// TestDialContextHandshakeDeadline: the handshake ends with the dial's
// context, even against a daemon that accepts and never answers.
func TestDialContextHandshakeDeadline(t *testing.T) {
	addr := silentDaemon(t)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err := within(t, time.Second, func() error {
		_, err := Dial(ctx, addr)
		return err
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dial: %v, want %v", err, context.DeadlineExceeded)
	}
}

// TestNewClientHandshakeCancel: a NewClient whose first RPC's context
// expires mid-handshake gets the context's error; the connection is gone
// with the handshake, and the client has no address to redial.
func TestNewClientHandshakeCancel(t *testing.T) {
	nc, err := net.Dial("tcp", silentDaemon(t))
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(nc)
	defer c.Close()
	defer nc.Close() // first: a handshake stuck past the deadline holds c.mu
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err = within(t, time.Second, func() error {
		_, err := c.Stats(ctx)
		return err
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first RPC: %v, want %v", err, context.DeadlineExceeded)
	}
	err = within(t, time.Second, func() error {
		_, err := c.Stats(bg)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "not redialable") {
		t.Fatalf("second RPC: %v, want a not-redialable error", err)
	}
}
