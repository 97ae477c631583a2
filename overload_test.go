package qosneg

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qosneg/internal/admission"
	"qosneg/internal/client"
	"qosneg/internal/clock"
	"qosneg/internal/core"
	"qosneg/internal/faults"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/protocol"
	"qosneg/internal/telemetry"
	"qosneg/internal/workload"
)

// overloadSLO is the p99 target the harness declares and then holds the
// system to while overloaded.
const overloadSLO = 250 * time.Millisecond

// overloadHarness is the full stack under open-loop load: an instrumented
// system with admission control and fault weather, served over the real
// wire protocol, with a pool of multiplexed client connections.
type overloadHarness struct {
	sys  *System
	ctrl *admission.Controller
	// conns carries negotiation traffic; winddown is a dedicated connection
	// for session rejects, so wind-down (confirm-class, never shed) cannot
	// queue behind the negotiate storm and strand reserved resources.
	conns    []*protocol.Client
	winddown *protocol.Client
	docs     []media.DocumentID
	rr       atomic.Uint64
}

func newOverloadHarness(t *testing.T, nconns int) *overloadHarness {
	t.Helper()
	ctrl := admission.New(admission.Config{
		SLO: overloadSLO,
		// Cap admitted concurrency at the core count: the probe phase then
		// measures the same service capacity the controller defends, so
		// the 10× load is 10× what the shed path protects, not slack in
		// the limit.
		MaxInFlight: runtime.GOMAXPROCS(0),
	})
	inj := faults.New(7)
	reg := telemetry.NewRegistry()
	sys, err := New(WithClients(4), WithServers(3),
		WithMetrics(reg), WithAdmission(ctrl), WithFaultInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	h := &overloadHarness{sys: sys, ctrl: ctrl}
	// Baseline fault weather: a fixed cost per Reserve/Connect, as a real
	// CMFS round would have. Without it negotiations complete in
	// microseconds and no in-flight concurrency ever accumulates — the
	// admission limit would be untestable. The probe phase runs under the
	// same weather, so the measured peak is comparable.
	inj.SetLatency(time.Millisecond)
	for i := 1; i <= 6; i++ {
		id := media.DocumentID(fmt.Sprintf("news-%d", i))
		if _, err := sys.AddNewsArticle(id, fmt.Sprintf("Article %d", i), 2*time.Minute); err != nil {
			t.Fatal(err)
		}
		h.docs = append(h.docs, id)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	srvCh := make(chan *protocol.Server, 1)
	go func() {
		defer close(done)
		srv, _ := sys.Serve(l)
		srvCh <- srv
	}()
	t.Cleanup(func() {
		l.Close()
		if srv := <-srvCh; srv != nil {
			srv.Close()
		}
		<-done
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < nconns+1; i++ {
		c, err := sys.Dial(ctx, l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if i == 0 {
			h.winddown = c
		} else {
			h.conns = append(h.conns, c)
		}
	}
	return h
}

func (h *overloadHarness) conn() *protocol.Client {
	return h.conns[int(h.rr.Add(1))%len(h.conns)]
}

func (h *overloadHarness) machines() []client.Machine {
	var out []client.Machine
	for i := 1; i <= 4; i++ {
		m, _ := h.sys.Client(fmt.Sprintf("client-%d", i))
		out = append(out, m)
	}
	return out
}

// probePeak measures closed-loop goodput (reserved sessions per second)
// with one worker per admission slot — the rate the overload phase
// multiplies.
func (h *overloadHarness) probePeak(t *testing.T, dur time.Duration) float64 {
	t.Helper()
	// More workers than admission slots: the extra workers absorb the wire
	// round-trip latency so the admitted slots never idle; the surplus is
	// shed and retried, exactly as under open-loop overload.
	workers := 4 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	var good atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	time.AfterFunc(dur, func() { close(stop) })
	machines := h.machines()
	u, err := h.sys.Profiles.Get("tv-quality")
	if err != nil {
		t.Fatal(err)
	}
	var rejects sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := h.conn()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				res, err := c.Negotiate(ctx, machines[w%len(machines)], h.docs[w%len(h.docs)], u)
				cancel()
				if err == nil && res.Status.Reserved() {
					good.Add(1)
					// Reject off the worker's critical path, as the open-loop
					// phase does, so the probe measures pure negotiation
					// capacity rather than negotiate+reject round trips.
					rejects.Add(1)
					go func() {
						defer rejects.Done()
						rctx, rcancel := context.WithTimeout(context.Background(), 10*time.Second)
						defer rcancel()
						h.winddown.Reject(rctx, res.Session)
					}()
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	rejects.Wait()
	peak := float64(good.Load()) / elapsed.Seconds()
	if peak <= 0 {
		t.Fatal("probe measured zero goodput")
	}
	return peak
}

// overloadTally accumulates the open-loop phase's outcomes.
type overloadTally struct {
	mu        sync.Mutex
	latencies []time.Duration // admitted (non-shed) request latencies
	good      uint64          // reserved sessions
	sheds     uint64          // wire busy replies + manager Shed results
	badHints  uint64          // sheds whose RetryAfter was not positive
	failures  uint64          // admitted but genuinely failed (fault weather etc.)
	errs      uint64          // unexpected transport errors
	dropped   uint64          // arrivals refused client-side at the outstanding cap
}

func (o *overloadTally) p99() time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), o.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(99*len(sorted)+99)/100-1]
}

// fire handles one open-loop arrival end to end.
func (h *overloadHarness) fire(req workload.Request, tally *overloadTally) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := h.conn()
	begin := time.Now()
	res, err := c.Negotiate(ctx, req.Client, req.Document, req.Profile)
	lat := time.Since(begin)
	reserved := err == nil && res.Status.Reserved()
	if reserved {
		// Wind the session down before recording: reject is confirm-class
		// traffic and must pass even under overload.
		h.winddown.Reject(ctx, res.Session)
	}
	tally.mu.Lock()
	defer tally.mu.Unlock()
	switch {
	case err != nil:
		var busy *protocol.ErrBusy
		if errors.As(err, &busy) {
			tally.sheds++
			if busy.RetryAfter <= 0 {
				tally.badHints++
			}
			return
		}
		tally.errs++
	case res.Shed:
		tally.sheds++
		if res.RetryAfter <= 0 {
			tally.badHints++
		}
	case reserved:
		tally.good++
		tally.latencies = append(tally.latencies, lat)
	default:
		tally.failures++
		tally.latencies = append(tally.latencies, lat)
	}
}

// runOpenLoop fires count arrivals at the given rate (arrivals per second)
// with the given shape on the wall clock, bounding client-side outstanding
// RPCs so a server-side stall shows up as drops rather than unbounded
// goroutine pile-up. It returns once every arrival has been handled.
func (h *overloadHarness) runOpenLoop(t *testing.T, shape workload.Shape, rate float64, count int) *overloadTally {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Spec{
		Seed:             1996,
		MeanInterArrival: max(time.Duration(float64(time.Second)/rate), time.Microsecond),
		Shape:            shape,
		Documents:        h.docs,
		Clients:          h.machines(),
		Profiles:         profile.DefaultProfiles(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tally := &overloadTally{}
	outstanding := make(chan struct{}, 8192)
	var handled sync.WaitGroup
	handled.Add(count)
	gen.Drive(clock.Wall{}, count, func(req workload.Request) {
		defer handled.Done()
		select {
		case outstanding <- struct{}{}:
		default:
			tally.mu.Lock()
			tally.dropped++
			tally.mu.Unlock()
			return
		}
		defer func() { <-outstanding }()
		h.fire(req, tally)
	})
	handled.Wait()
	return tally
}

// windDown rejects any session the load phase abandoned (a client-side
// timeout leaves the server-side reservation waiting out its choice
// period) so the ledger check sees final state, then asserts it is empty.
func (h *overloadHarness) windDown(t *testing.T) {
	t.Helper()
	// Sweep-and-recheck: a server-side negotiation whose client already
	// gave up can still be completing its reservation while we sweep, so
	// give stragglers a bounded window to surface before declaring a leak.
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, s := range h.sys.Manager.Sessions(core.Reserved) {
			h.sys.Manager.Reject(s.ID)
		}
		err := h.sys.Ledger.CheckEmpty()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("resource ledger not empty at wind-down: %v", err)
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// assertGraceful holds the tally to the graceful-degradation contract over
// the wire. It logs goodput without a floor: bursty shapes legitimately
// starve a co-located generator mid-burst, and the goodput floor is
// E19's, in virtual time (TestOverloadGracefulDegradation in
// internal/experiments). Under the race detector the latency and
// error-budget assertions are skipped: race instrumentation slows the
// CPU-bound shed path ~10× while the (sleep-dominated) service rate barely
// drops, so the statistical contract is not meaningful there — the race
// build is for finding data races on these paths.
func assertGraceful(t *testing.T, tally *overloadTally, elapsed time.Duration, count int) {
	t.Helper()
	tally.mu.Lock()
	good, sheds, badHints, failures, errs, dropped :=
		tally.good, tally.sheds, tally.badHints, tally.failures, tally.errs, tally.dropped
	admitted := len(tally.latencies)
	tally.mu.Unlock()
	goodput := float64(good) / elapsed.Seconds()
	p99 := tally.p99()
	t.Logf("arrivals %d over %v: good %d (%.0f/s), sheds %d, failures %d, errs %d, dropped %d, admitted p99 %v",
		count, elapsed.Round(time.Millisecond), good, goodput, sheds, failures, errs, dropped, p99)

	if sheds == 0 {
		t.Error("10× overload produced no sheds: the open loop is not overloading or the controller is inert")
	}
	if badHints > 0 {
		t.Errorf("%d sheds carried a non-positive RetryAfter", badHints)
	}
	if admitted == 0 {
		t.Fatal("no request was ever admitted")
	}
	if p99 > overloadSLO && !raceDetectorOn {
		t.Errorf("admitted-request p99 %v breaches the %v SLO under overload", p99, overloadSLO)
	}
	if errs > uint64(count/100) && !raceDetectorOn {
		t.Errorf("%d unexpected transport errors (over 1%% of arrivals)", errs)
	}
	if dropped > uint64(count/5) {
		t.Errorf("%d arrivals dropped at the client-side outstanding cap — the server is stalling instead of shedding", dropped)
	}
}

// TestOverloadShedBurst is the CI gate: a short bursty 10× overload must
// shed (with hints) while the admitted p99 holds. Kept small enough for
// scripts/check.sh under -race. No goodput floor: inside a burst the
// offered rate is BurstFactor× the (already 10×) mean, and on small
// machines the co-located generator starves the server mid-burst — the
// contract here is that latency and hints hold, not throughput.
func TestOverloadShedBurst(t *testing.T) {
	count, probeDur := 30_000, 500*time.Millisecond
	if testing.Short() {
		count, probeDur = 8_000, 300*time.Millisecond
	}
	if raceDetectorOn {
		count, probeDur = 5_000, 300*time.Millisecond
	}
	h := newOverloadHarness(t, 4)
	peak := h.probePeak(t, probeDur)
	begin := time.Now()
	tally := h.runOpenLoop(t, workload.Bursty, 10*peak, count)
	assertGraceful(t, tally, time.Since(begin), count)
	h.windDown(t)
	// A wire shed is a request that ended FAILEDTRYLATER, as a manager
	// shed is: the manager counts every refusal the controller made.
	if got, want := h.sys.Manager.Stats().AdmissionSheds, h.ctrl.Stats().Sheds; uint64(got) != want {
		t.Errorf("manager counts %d admission sheds, the controller made %d", got, want)
	}
}

// TestServeThreadsAdmission pins the facade plumbing: a saturated
// controller installed with WithAdmission reaches System.Serve's protocol
// server and sheds at the wire with a typed busy error.
func TestServeThreadsAdmission(t *testing.T) {
	ctrl := admission.New(admission.Config{MaxInFlight: 1, MinInFlight: 1})
	rel, _, ok := ctrl.Admit()
	if !ok {
		t.Fatal("could not pin controller")
	}
	defer rel()
	sys, err := New(WithClients(1), WithServers(2), WithAdmission(ctrl))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddNewsArticle("news-1", "Election night", time.Minute); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	srvCh := make(chan *protocol.Server, 1)
	go func() {
		defer close(done)
		srv, _ := sys.Serve(l)
		srvCh <- srv
	}()
	defer func() {
		l.Close()
		if srv := <-srvCh; srv != nil {
			srv.Close()
		}
		<-done
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
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
	_, err = c.Negotiate(ctx, mach, "news-1", u)
	var busy *protocol.ErrBusy
	if !errors.As(err, &busy) {
		t.Fatalf("negotiate against saturated system: err = %v, want *ErrBusy", err)
	}
	if busy.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", busy.RetryAfter)
	}
}
