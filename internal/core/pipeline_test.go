package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"qosneg/internal/cmfs"
	"qosneg/internal/network"
	"qosneg/internal/qos"
	"qosneg/internal/telemetry"
)

// TestConcurrentNegotiationsAccounting hammers one manager with many
// concurrent negotiate/confirm/complete and negotiate/reject rounds and
// checks the resource accounting holds under -race: no server ever exceeds
// its stream cap (the CMFS would refuse, so a successful negotiation
// implies admission), and once every session is drained the servers and the
// network hold zero reservations — nothing leaked, nothing double-released.
func TestConcurrentNegotiationsAccounting(t *testing.T) {
	cfg := cmfs.DefaultConfig()
	cfg.MaxStreams = 12
	b := newBed(t, cfg, 200*qos.MBitPerSecond)
	u := tvProfile()

	const goroutines = 16
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", u)
				if err != nil {
					errs <- err
					return
				}
				if res.Session == nil {
					// FAILEDTRYLATER under contention is a legal outcome;
					// the point is accounting, not admission success.
					continue
				}
				if (g+r)%2 == 0 {
					if err := b.man.Confirm(res.Session.ID); err != nil {
						errs <- err
						return
					}
					if err := b.man.Complete(res.Session.ID); err != nil {
						errs <- err
						return
					}
				} else if err := b.man.Reject(res.Session.ID); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for id, s := range b.servers {
		if n := s.ActiveStreams(); n != 0 {
			t.Errorf("server %s: %d streams still reserved after drain", id, n)
		}
	}
	if n := b.net.ActiveReservations(); n != 0 {
		t.Errorf("network: %d reservations still active after drain", n)
	}
	st := b.man.Stats()
	if st.Requests != goroutines*rounds {
		t.Errorf("stats.Requests = %d, want %d", st.Requests, goroutines*rounds)
	}
}

// cancelOnReserve cancels a negotiation's context as soon as one of its
// reservations succeeds: deterministically mid-commit.
type cancelOnReserve struct {
	MediaServer
	cancel context.CancelFunc
}

func (s cancelOnReserve) Reserve(q qos.NetworkQoS) (cmfs.Reservation, error) {
	res, err := s.MediaServer.Reserve(q)
	if err == nil {
		s.cancel()
	}
	return res, err
}

// TestNegotiateCanceledMidCommit cancels the context from inside the
// resource-commitment step — on the first reserved choice — and checks the
// partial commitment is rolled back: the error is the context's, no session
// is created, and servers and network are left empty.
func TestNegotiateCanceledMidCommit(t *testing.T) {
	b := defaultBed(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ring := telemetry.NewRing(64)
	opts := DefaultOptions()
	opts.Tracer = ring
	man := NewManager(b.reg, b.man.transport, b.man.pricing, opts)
	for id, s := range b.servers {
		man.AddServer(cancelOnReserve{MediaServer: s, cancel: cancel}, network.NodeID(id))
	}
	_, err := man.NegotiateContext(ctx, b.mach, "news-1", tvProfile())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if events := decisions(ring); len(events) != 1 || events[0].Step != telemetry.StepCommitment || events[0].Status != "canceled" {
		t.Errorf("decisions = %+v, want the one canceled attempt", events)
	}
	for id, s := range b.servers {
		if n := s.ActiveStreams(); n != 0 {
			t.Errorf("server %s: %d streams leaked by canceled commit", id, n)
		}
	}
	if n := b.net.ActiveReservations(); n != 0 {
		t.Errorf("network: %d reservations leaked by canceled commit", n)
	}
	if got := len(man.Sessions(Reserved)); got != 0 {
		t.Errorf("%d sessions created by canceled negotiation", got)
	}
}

// TestNegotiateCanceledBeforeStart checks a pre-canceled context never
// reaches resource commitment.
func TestNegotiateCanceledBeforeStart(t *testing.T) {
	b := defaultBed(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := b.man.NegotiateContext(ctx, b.mach, "news-1", tvProfile())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := b.man.Stats(); st.Succeeded != 0 {
		t.Errorf("canceled negotiation counted as succeeded: %+v", st)
	}
}

// TestExpireReportsChoicePeriod checks the step 6 time-out contract: an
// expired session releases its resources and answers later operations with
// ErrChoicePeriodExpired.
func TestExpireReportsChoicePeriod(t *testing.T) {
	b := defaultBed(t)
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Session == nil {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	id := res.Session.ID
	if err := b.man.Expire(id); err != nil {
		t.Fatal(err)
	}
	if res.Session.State() != Aborted {
		t.Errorf("expired session state = %v", res.Session.State())
	}
	for sid, s := range b.servers {
		if n := s.ActiveStreams(); n != 0 {
			t.Errorf("server %s: %d streams held past expiry", sid, n)
		}
	}
	if err := b.man.Confirm(id); !errors.Is(err, ErrChoicePeriodExpired) {
		t.Errorf("Confirm after expiry: %v, want ErrChoicePeriodExpired", err)
	}
	if err := b.man.Reject(id); !errors.Is(err, ErrChoicePeriodExpired) {
		t.Errorf("Reject after expiry: %v, want ErrChoicePeriodExpired", err)
	}
	if _, err := b.man.RenegotiateContext(context.Background(), id, tvProfile()); !errors.Is(err, ErrChoicePeriodExpired) {
		t.Errorf("Renegotiate after expiry: %v, want ErrChoicePeriodExpired", err)
	}
	// A plain Reject, by contrast, stays a bare state error.
	res2, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil || res2.Session == nil {
		t.Fatalf("second negotiation: %v %v", res2.Status, err)
	}
	if err := b.man.Reject(res2.Session.ID); err != nil {
		t.Fatal(err)
	}
	if err := b.man.Confirm(res2.Session.ID); errors.Is(err, ErrChoicePeriodExpired) || !errors.Is(err, ErrBadState) {
		t.Errorf("Confirm after plain reject: %v, want ErrBadState only", err)
	}
}
