package protocol

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"qosneg/internal/clock"
	"qosneg/internal/faults"
	"qosneg/internal/media"
	"qosneg/internal/sim"
	"qosneg/internal/telemetry"
	"qosneg/internal/testbed"
)

// parkClock is a Sim clock whose Sleep parks any goroutine, not only an
// engine process, until the engine runs past its wake time: injected fault
// latency then holds a server worker inside a reserve for as long as the
// test leaves the engine alone.
type parkClock struct{ clock.Clock }

func (c parkClock) Sleep(d time.Duration) {
	woke := make(chan struct{})
	c.AfterFunc(d, func() { close(woke) })
	<-woke
}

// heldHarness serves two articles on a fault-injected bed whose latency
// sleeps on parkClock, with the server instrumented on the same engine.
// Reserves take no time until holdReserves sets a latency.
func heldHarness(t *testing.T) (*harness, *sim.Engine) {
	t.Helper()
	inj := faults.New(1)
	bed := testbed.MustNew(testbed.Spec{Faults: inj, Clients: 4})
	for _, a := range []struct {
		id    media.DocumentID
		title string
	}{{"news-1", "Election night"}, {"news-2", "Hockey final"}} {
		if _, err := bed.AddNewsArticle(a.id, a.title, 90*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	eng := sim.NewEngine()
	inj.SetClock(parkClock{clock.Sim(eng)})
	srv := NewServer(bed.Manager, bed.Registry)
	srv.clk = clock.Sim(eng)
	srv.Instrument(telemetry.NewRegistry())
	h := startHarness(t, bed, srv)
	// Runs before the server closes: a test that fails with a reserve held
	// must not leave Close waiting for it.
	t.Cleanup(func() {
		holdReserves(bed, 0)
		eng.Run(eng.Now() + time.Minute)
	})
	return h, eng
}

func holdReserves(bed *testbed.Bed, d time.Duration) {
	for _, s := range bed.Faults.Servers() {
		s.SetLatency(d)
	}
}

// connWorkers counts the stream workers of every live connection: the
// goroutines the read loop starts.
func connWorkers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by qosneg/internal/protocol.(*Server).serveBinary ")
}

// TestHeldNegotiationBlocksNoOtherStream: a negotiation held inside a
// reserve by fault latency occupies one worker, and the read loop keeps
// answering the rest of the connection — a listing, a session query and
// another session's confirm — before virtual time moves. The held stream's
// cancel frame is still read, so once the reserve returns the negotiation
// rolls back instead of reserving on.
func TestHeldNegotiationBlocksNoOtherStream(t *testing.T) {
	h, eng := heldHarness(t)
	bed := h.bed
	c := h.dial(t)
	a, err := c.Negotiate(bg, bed.Client(1), "news-1", tvProfile(time.Hour))
	if err != nil || !a.Status.Reserved() {
		t.Fatalf("negotiate: %v %v", a.Status, err)
	}
	holdReserves(bed, time.Second)
	ctx, cancel := context.WithCancel(bg)
	held := make(chan error, 1)
	go func() {
		_, err := c.Negotiate(ctx, bed.Client(2), "news-2", tvProfile(time.Hour))
		held <- err
	}()
	waitPending(t, eng, 2) // a's choice timer and the held reserve's wake-up
	at := eng.Now()

	// A blocked read loop would hang these calls, not fail them.
	qctx, qcancel := context.WithTimeout(bg, 5*time.Second)
	defer qcancel()
	sessions, err := c.ListSessions(qctx)
	if err != nil || len(sessions) != 1 || sessions[0].Session != a.Session {
		t.Fatalf("sessions while a negotiation is held: %+v %v", sessions, err)
	}
	if info, err := c.Session(qctx, a.Session); err != nil || info.State != "reserved" {
		t.Fatalf("session %d while a negotiation is held: %+v %v", a.Session, info, err)
	}
	if err := c.Confirm(qctx, a.Session); err != nil {
		t.Fatalf("confirm while a negotiation is held: %v", err)
	}
	if eng.Now() != at {
		t.Fatalf("virtual time moved from %v to %v", at, eng.Now())
	}
	select {
	case err := <-held:
		t.Fatalf("the held negotiation returned before the clock moved: %v", err)
	default:
	}

	cancel()
	if err := <-held; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled negotiation: %v", err)
	}
	// The cancel frame is on the wire ahead of this request, and the read
	// loop takes frames in order: once metrics answers, the held stream's
	// context is canceled.
	if _, err := c.Metrics(qctx); err != nil {
		t.Fatal(err)
	}
	if err := bed.Manager.Complete(a.Session); err != nil {
		t.Fatal(err)
	}
	eng.Run(eng.Now() + time.Second)
	// Only the canceled negotiation answers with an error; uncanceled, it
	// would reserve on and succeed.
	failed := h.server.rpcErrors.With(string(MsgNegotiate))
	waitFor(t, "the canceled negotiation to return", func() bool { return failed.Value() == 1 })
	if n := eng.Pending(); n != 0 {
		t.Errorf("%d events pending: the canceled negotiation went on reserving", n)
	}
	if err := bed.Ledger.CheckEmpty(); err != nil {
		t.Errorf("ledger after the rollback: %v", err)
	}
}

// TestStreamWorkerLifecycle: sequential negotiations on one connection run
// on one warm worker, a burst of n held negotiations starts at most n, and
// neither closing the connection nor closing the server leaves one behind.
func TestStreamWorkerLifecycle(t *testing.T) {
	h, eng := heldHarness(t)
	bed := h.bed
	c := h.dial(t)
	lifecycle := func(mach int) {
		t.Helper()
		res, err := c.Negotiate(bg, bed.Client(mach), "news-1", tvProfile(time.Hour))
		if err != nil || !res.Status.Reserved() {
			t.Fatalf("negotiate: %v %v", res.Status, err)
		}
		if err := c.Reject(bg, res.Session); err != nil {
			t.Fatal(err)
		}
	}

	lifecycle(1)
	workers, goroutines := connWorkers(), runtime.NumGoroutine()
	if workers != 1 {
		t.Fatalf("one negotiation left %d workers, want 1", workers)
	}
	for range 500 { // 1 000 RPCs
		lifecycle(1)
	}
	if w := connWorkers(); w != workers {
		t.Errorf("after 1 000 sequential RPCs: %d workers, want %d", w, workers)
	}
	// Goroutines outside the connection may end in between (a test
	// package's background goroutines, the runtime's own): only growth is a
	// leak, and one that lasts once the connection has settled.
	waitFor(t, fmt.Sprintf("the goroutine count to settle back to at most %d after 1 000 sequential RPCs", goroutines),
		func() bool { return runtime.NumGoroutine() <= goroutines })

	const burst = 4
	holdReserves(bed, time.Second)
	var wg sync.WaitGroup
	results := make([]NegotiationResult, burst)
	errs := make([]error, burst)
	for i := range burst {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = c.Negotiate(bg, bed.Client(i+1), "news-1", tvProfile(time.Hour))
		}()
	}
	waitPending(t, eng, burst)
	if w := connWorkers(); w > burst {
		t.Errorf("%d held negotiations run on %d workers", burst, w)
	}
	// Wake every held reserve; the ones after it take no time.
	holdReserves(bed, 0)
	eng.Run(eng.Now() + time.Second)
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("burst negotiation %d: %v", i, errs[i])
		}
		if res.Session != 0 {
			if err := c.Reject(bg, res.Session); err != nil {
				t.Fatal(err)
			}
		}
	}
	if w := connWorkers(); w > burst {
		t.Errorf("a burst of %d negotiations started %d workers", burst, w)
	}

	c.Close()
	waitFor(t, "the closed connection's workers to exit", func() bool { return connWorkers() == 0 })

	c = h.dial(t)
	lifecycle(1) // leaves one idle worker on the new connection
	h.server.Close()
	if w := connWorkers(); w != 0 {
		t.Errorf("Server.Close returned with %d workers running", w)
	}
	if err := bed.Ledger.CheckEmpty(); err != nil {
		t.Errorf("ledger after the connections closed: %v", err)
	}
}
