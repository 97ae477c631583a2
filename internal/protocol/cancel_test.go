package protocol

import (
	"context"
	"sync"
	"testing"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/network"
	"qosneg/internal/qos"
	"qosneg/internal/testbed"
	"qosneg/internal/transport"
)

// holdTransport is a fault hook on step 5: once armed it parks one Connect
// until released, holding a negotiation's commit open at a known point.
type holdTransport struct {
	core.Transport
	held, release chan struct{}

	mu     sync.Mutex
	calls  int
	holdAt int
}

func (h *holdTransport) Connect(src, dst network.NodeID, q qos.NetworkQoS) (transport.Connection, error) {
	h.mu.Lock()
	h.calls++
	hold := h.calls == h.holdAt
	h.mu.Unlock()
	if hold {
		close(h.held)
		<-h.release
	}
	return h.Transport.Connect(src, dst, q)
}

// armLast parks the last Connect of the next negotiation, given that every
// call so far belonged to one probe negotiation: the manager consults the
// context before each monomedia's commitment, so only past the last one does
// a cancellation go unnoticed until the reply is due.
func (h *holdTransport) armLast() {
	h.mu.Lock()
	h.holdAt = 2 * h.calls
	h.mu.Unlock()
}

// TestCancelAfterReserveReleases: a stream canceled after its negotiation
// reserved gets no reply, so nobody can ever confirm or reject the session —
// the server must release it at once rather than hold its resources for the
// whole choice period.
func TestCancelAfterReserveReleases(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(context.Context, *Client, *testbed.Bed) error
	}{
		{"negotiate", func(ctx context.Context, c *Client, bed *testbed.Bed) error {
			_, err := c.Negotiate(ctx, bed.Client(1), "news-1", tvProfile(time.Hour))
			return err
		}},
		{"batch", func(ctx context.Context, c *Client, bed *testbed.Bed) error {
			u := tvProfile(time.Hour)
			m := bed.Client(1)
			_, err := c.BatchNegotiate(ctx, []BatchItem{{Machine: &m, Document: "news-1", Profile: &u}})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bed := testbed.MustNew(testbed.Spec{})
			if _, err := bed.AddNewsArticle("news-1", "Election night", 90*time.Second); err != nil {
				t.Fatal(err)
			}
			hold := &holdTransport{Transport: bed.Transit, held: make(chan struct{}), release: make(chan struct{})}
			man := core.NewManager(bed.Registry, hold, bed.Pricing, core.DefaultOptions())
			for id, srv := range bed.Servers {
				man.AddServer(srv, network.NodeID(id))
			}
			bed.Manager = man
			h := serveHarness(t, bed)
			c := h.dial(t)

			probe, err := c.Negotiate(bg, bed.Client(1), "news-1", tvProfile(time.Hour))
			if err != nil || !probe.Status.Reserved() {
				t.Fatalf("probe negotiation: %v %v", probe.Status, err)
			}
			if err := c.Reject(bg, probe.Session); err != nil {
				t.Fatal(err)
			}
			hold.armLast()

			ctx, cancel := context.WithCancel(bg)
			errc := make(chan error, 1)
			go func() { errc <- tc.call(ctx, c, bed) }()
			<-hold.held
			cancel()
			if err := <-errc; err == nil {
				t.Fatal("canceled call returned a result")
			}
			// The cancel frame is on the wire ahead of this request, and the
			// server's read loop takes frames in order: once stats answers,
			// the stream's context is canceled.
			if _, err := c.Stats(bg); err != nil {
				t.Fatal(err)
			}
			close(hold.release)
			// Closing the server waits for the handler, not for any timer.
			c.Close()
			h.server.Close()
			if n := len(man.Sessions(core.Reserved)); n != 0 {
				t.Errorf("%d session(s) left reserved for a caller that never saw them", n)
			}
			if err := bed.Ledger.CheckEmpty(); err != nil {
				t.Errorf("resources held after the cancellation: %v", err)
			}
		})
	}
}
