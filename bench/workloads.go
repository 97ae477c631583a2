package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"syscall"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/protocol"
)

// workloadDef is one benchmark workload. An op is one session round:
// negotiate plus its wind-down (for adapt-storm, one degradation round).
type workloadDef struct {
	name string
	// opsPerSecond is the frozen op count per second of --seconds: runs are
	// sized by operation count because per-op cost drifts with the retained
	// heap; --seconds only scales the count. Calibrated so the count
	// finishes in about 70% of the budget on the reference machine (2-core
	// Xeon 2.1GHz); a host so slow that the budget ends the phase first gets
	// a run marked invalid. BENCHMARK.json states each count at its
	// run_seconds and bench_test.go holds the two together.
	opsPerSecond int
	// warm is the fixed warm-up op count, part of set-up.
	warm int
	// stack is the layers the system is assembled with; conns the loopback
	// connections dialed to it (0 for the in-process workloads).
	stack stack
	conns int
	// oneCPU confines the run to one CPU; see pinToOneCPU.
	oneCPU bool
	drive  func(s *sut, in *inputs, ph *phase)
}

// phase is one pass of a workload's loop over a request stream: the fixed
// warm-up, or the measured phase with its writes, arrival schedule and
// deadline.
type phase struct {
	reqs []request
	// sample keeps every coldSampleGap-th result for the cache-off check.
	sample bool
	writes []write
	// due is the open loop's arrival schedule; without one (warm-up) the
	// stream runs as a closed loop.
	due []time.Duration
	// callers is the closed wire loop's caller count.
	callers  int
	deadline time.Time
	t        *tally
}

var workloadDefs = []*workloadDef{
	{name: "hot-inproc", opsPerSecond: 30000, warm: 2000, drive: driveInproc},
	{name: "cold-catalog", opsPerSecond: 5000, warm: 2000, drive: driveInproc},
	{name: "wire-daemon", opsPerSecond: 4500, warm: 2000, drive: driveWire,
		stack: stack{shards: 4, telemetry: true, admission: true}, conns: 1},
	// The open loop's count is its rate times three quarters of the budget;
	// it negotiates on one connection and winds down on another.
	{name: "overload-openloop", opsPerSecond: overloadRate * 3 / 4, warm: 200, drive: driveOpenLoop,
		stack: stack{telemetry: true, admission: true, faults: true}, conns: 2, oneCPU: true},
	{name: "adapt-storm", opsPerSecond: 700, warm: 200, drive: driveStorm, stack: stack{storm: true}},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloadDefs {
		if w.name == name {
			return w
		}
	}
	return nil
}

// coldSample is what cold-catalog keeps of every hundredth request for the
// cache-off comparison after the run.
type coldSample struct {
	op     int
	status core.NegotiationStatus
	key    string
	offer  []byte
}

const coldSampleGap = 100

// tally accumulates one phase's outcomes. The closed loops fill it from one
// goroutine per tally; the open loop guards it with mu.
type tally struct {
	mu sync.Mutex
	// lat holds request → Result per negotiation; adapt degradation → clean
	// scan per storm round; scan each Monitor.Scan call; lag the open
	// loop's fired − due; shedReply the time to a typed busy reply.
	lat, adapt, scan, lag, shedReply []time.Duration
	// attempted counts ops issued, failed those that errored or answered a
	// status the seed does not predict, good those that succeeded (on the
	// open loop: reserved within the latency limit).
	attempted, failed, good int
	sessions                int
	sheds, badHints, drops  int
	observed, expected      map[string]int
	problems                []string
	samples                 []coldSample
	transitions             int
}

func newTally(capacity int) *tally {
	return &tally{
		lat:      make([]time.Duration, 0, capacity),
		observed: make(map[string]int),
		expected: make(map[string]int),
	}
}

// problem records a failed op; only the first few descriptions are kept.
func (t *tally) problem(format string, args ...any) {
	t.failed++
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// outcome books one admitted negotiation against its predicted status and
// reports whether the op is still good.
func (t *tally) outcome(q request, status core.NegotiationStatus, err error) bool {
	t.expected[q.expect.String()]++
	if err != nil {
		t.problem("negotiate: %v", err)
		return false
	}
	t.observed[status.String()]++
	if status != q.expect {
		t.problem("status %s where the reference manager answers %s", status, q.expect)
		return false
	}
	return true
}

// merge adds o's outcomes; the wire loop's callers and a run's epochs each
// fill a tally of their own.
func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.adapt = append(t.adapt, o.adapt...)
	t.scan = append(t.scan, o.scan...)
	t.lag = append(t.lag, o.lag...)
	t.shedReply = append(t.shedReply, o.shedReply...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.good += o.good
	t.sheds += o.sheds
	t.badHints += o.badHints
	t.drops += o.drops
	t.transitions += o.transitions
	t.sessions += o.sessions
	for k, v := range o.observed {
		t.observed[k] += v
	}
	for k, v := range o.expected {
		t.expected[k] += v
	}
	t.problems = append(t.problems, o.problems...)
}

// driveInproc is the closed loop of hot-inproc and cold-catalog: one
// caller, NegotiateWith then Reject, cold-catalog's writes applied between
// ops.
func driveInproc(s *sut, in *inputs, ph *phase) {
	ctx := context.Background()
	t, writes := ph.t, ph.writes
	for i, q := range ph.reqs {
		for len(writes) > 0 && writes[0].at == i {
			if err := s.apply(in, writes[0]); err != nil {
				t.problem("write before op %d: %v", i, err)
			}
			writes = writes[1:]
		}
		t.attempted++
		begin := time.Now()
		res, err := s.NegotiateWith(ctx, s.machines[q.client], in.ids[q.doc], in.profiles[q.profile])
		end := time.Now()
		ok := t.outcome(q, res.Status, err)
		if res.Session != nil {
			t.sessions++
			if ph.sample && i%coldSampleGap == 0 {
				t.samples = append(t.samples, sampleOf(i, res))
			}
			if err := s.Manager.Reject(res.Session.ID); err != nil {
				t.problem("reject: %v", err)
				ok = false
			}
		}
		t.lat = append(t.lat, end.Sub(begin))
		if ok {
			t.good++
		}
		if end.After(ph.deadline) {
			return
		}
	}
}

// apply installs one cold-catalog write on a system.
func (s *system) apply(in *inputs, wr write) error {
	if wr.revised != nil {
		return s.Registry.Add(*wr.revised)
	}
	s.Manager.SetPricing(in.pricings[wr.pricing])
	return nil
}

// driveWire is wire-daemon's closed loop: ph.callers callers share one
// multiplexed connection; 70% of ops run the full lifecycle, 30% reject;
// one Metrics scrape per 1000 ops.
func driveWire(s *sut, in *inputs, ph *phase) {
	c, reqs, deadline := s.daemon.clients[0], ph.reqs, ph.deadline
	parts := make([]*tally, ph.callers)
	var wg sync.WaitGroup
	for w := range parts {
		parts[w] = newTally(len(reqs)/ph.callers + 1)
		wg.Add(1)
		go func(w int, t *tally) {
			defer wg.Done()
			for i := w; i < len(reqs); i += ph.callers {
				q := reqs[i]
				t.attempted++
				ctx, cancel := rpcContext()
				begin := time.Now()
				res, err := c.Negotiate(ctx, s.machines[q.client], in.ids[q.doc], in.profiles[q.profile])
				end := time.Now()
				ok := t.outcome(q, res.Status, err)
				if err == nil && res.Status.Reserved() {
					t.sessions++
					if err := s.windDown(ctx, c, q, res.Session); err != nil {
						t.problem("wind-down of session %d: %v", res.Session, err)
						ok = false
					}
				}
				if i%1000 == 0 {
					if _, err := c.Metrics(ctx); err != nil {
						t.problem("metrics scrape: %v", err)
						ok = false
					}
				}
				cancel()
				t.lat = append(t.lat, end.Sub(begin))
				if ok {
					t.good++
				}
				if end.After(deadline) {
					return
				}
			}
		}(w, parts[w])
	}
	wg.Wait()
	for _, p := range parts {
		ph.t.merge(p)
	}
}

// windDown ends a reserved session the way its request asks: the full
// lifecycle confirms, reads the session back and completes it (completion
// is the daemon's playout driver's call, made in-process here); the short
// one rejects.
func (s *sut) windDown(ctx context.Context, c *protocol.Client, q request, id core.SessionID) error {
	if !q.lifecycle {
		return c.Reject(ctx, id)
	}
	if err := c.Confirm(ctx, id); err != nil {
		return err
	}
	info, err := c.Session(ctx, id)
	if err != nil {
		return err
	}
	if info.State != core.Playing.String() {
		return fmt.Errorf("confirmed session reads back as %q", info.State)
	}
	return s.Manager.Complete(id)
}

// driveOpenLoop is overload-openloop: arrivals fire on the seed's Poisson
// schedule whether or not earlier ones have been answered. Negotiations
// share one connection, wind-down rejects another, so rejects (never shed)
// cannot queue behind the storm. Latency runs from the scheduled instant.
func driveOpenLoop(s *sut, in *inputs, ph *phase) {
	if ph.due == nil {
		driveOpenLoopWarm(s, in, ph.reqs, ph.t)
		return
	}
	neg, wind, t := s.daemon.clients[0], s.daemon.clients[1], ph.t
	t.lag = make([]time.Duration, 0, len(ph.reqs))
	outstanding := make(chan struct{}, overloadCap)
	var wg sync.WaitGroup
	start := time.Now()
	for i, q := range ph.reqs {
		due := start.Add(ph.due[i])
		if due.After(ph.deadline) {
			break
		}
		// Sleep most of the gap in the kernel, then spin the rest. The Go
		// timer is too coarse here: an idle P waits in epoll with millisecond
		// granularity, which put the median arrival 250µs late.
		if d := time.Until(due); d > 200*time.Microsecond {
			ts := syscall.NsecToTimespec(int64(d - 100*time.Microsecond))
			// An early return (EINTR) only lengthens the spin below.
			_ = syscall.Nanosleep(&ts, nil)
		}
		for time.Now().Before(due) {
		}
		select {
		case outstanding <- struct{}{}:
		default:
			t.mu.Lock()
			t.attempted++
			t.drops++
			t.problem("arrival %d dropped at the outstanding cap", i)
			t.mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(q request, due time.Time) {
			defer wg.Done()
			defer func() { <-outstanding }()
			ctx, cancel := rpcContext()
			defer cancel()
			fired := time.Now()
			res, err := neg.Negotiate(ctx, s.machines[q.client], in.ids[q.doc], in.profiles[q.profile])
			end := time.Now()
			var werr error
			if err == nil && res.Status.Reserved() {
				werr = wind.Reject(ctx, res.Session)
			}
			t.mu.Lock()
			defer t.mu.Unlock()
			t.attempted++
			t.lag = append(t.lag, fired.Sub(due))
			var busy *protocol.ErrBusy
			switch {
			case errors.As(err, &busy):
				t.shed(busy.RetryAfter, end.Sub(fired))
			case err == nil && res.Shed:
				t.shed(res.RetryAfter, end.Sub(fired))
			default:
				t.lat = append(t.lat, end.Sub(due))
				ok := t.outcome(q, res.Status, err)
				if werr != nil {
					t.problem("reject of session %d: %v", res.Session, werr)
					ok = false
				}
				if err == nil && res.Status.Reserved() {
					t.sessions++
				}
				if ok && end.Sub(due) <= admissionSLO {
					t.good++
				}
			}
		}(q, due)
	}
	wg.Wait()
}

// shed books one refused arrival; a refusal is the predicted answer under
// overload, but one without a usable retry hint is a failure.
func (t *tally) shed(retryAfter, reply time.Duration) {
	t.sheds++
	t.shedReply = append(t.shedReply, reply)
	if retryAfter <= 0 {
		t.badHints++
		t.problem("shed without a positive RetryAfter")
	}
}

// driveOpenLoopWarm warms the overload system with a short closed loop, one
// caller per admission slot, so warm-up itself sheds nothing.
func driveOpenLoopWarm(s *sut, in *inputs, reqs []request, t *tally) {
	neg, wind := s.daemon.clients[0], s.daemon.clients[1]
	var wg sync.WaitGroup
	for w := 0; w < admissionSlots; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += admissionSlots {
				q := reqs[i]
				ctx, cancel := rpcContext()
				res, err := neg.Negotiate(ctx, s.machines[q.client], in.ids[q.doc], in.profiles[q.profile])
				if err == nil && res.Status.Reserved() {
					err = wind.Reject(ctx, res.Session)
				}
				cancel()
				if err != nil {
					t.mu.Lock()
					t.problem("warm-up: %v", err)
					t.mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
}

// driveStorm is adapt-storm: each round degrades one server, scans until no
// reservation is overcommitted, restores it, then retires the oldest
// standing session and admits a new one so the population keeps turning
// over. The round's adaptation latency runs from the degradation to the
// clean scan: every affected session is then on its new configuration.
func driveStorm(s *sut, in *inputs, ph *phase) {
	ctx, t := context.Background(), ph.t
	servers := serverIDs(in.servers)
	for i, q := range ph.reqs {
		t.attempted++
		victim := s.Servers[servers[i%len(servers)]]
		ok := true
		begin := time.Now()
		if err := victim.SetDegradation(stormDegradation); err != nil {
			t.problem("degrade: %v", err)
			ok = false
		}
		for pass := 0; ; pass++ {
			scanBegin := time.Now()
			rep := s.monitor.Scan()
			t.scan = append(t.scan, time.Since(scanBegin))
			t.transitions += len(rep.Adapted)
			for _, id := range rep.Failed {
				t.problem("adaptation of session %d failed", id)
				s.forget(id)
				ok = false
			}
			if rep.Violations == 0 {
				break
			}
			if pass == 16 {
				t.problem("round %d: reservations still overcommitted after %d scans", i, pass)
				ok = false
				break
			}
		}
		t.adapt = append(t.adapt, time.Since(begin))
		if err := victim.SetDegradation(0); err != nil {
			t.problem("restore: %v", err)
			ok = false
		}
		if len(s.live) == stormSessions {
			if err := s.Manager.Complete(s.live[0]); err != nil {
				t.problem("complete: %v", err)
				ok = false
			}
			s.forget(s.live[0])
		}
		if !s.admit(ctx, in, q, t) {
			ok = false
		}
		if ok {
			t.good++
		}
		if time.Now().After(ph.deadline) {
			return
		}
	}
}

// admit negotiates and confirms one standing session for the storm.
func (s *sut) admit(ctx context.Context, in *inputs, q request, t *tally) bool {
	begin := time.Now()
	res, err := s.NegotiateWith(ctx, s.machines[q.client], in.ids[q.doc], in.profiles[q.profile])
	t.lat = append(t.lat, time.Since(begin))
	if !t.outcome(q, res.Status, err) {
		return false
	}
	if !res.Status.Reserved() {
		t.problem("standing session refused: %s (%s)", res.Status, res.Reason)
		return false
	}
	t.sessions++
	if err := s.Manager.Confirm(res.Session.ID); err != nil {
		t.problem("confirm: %v", err)
		return false
	}
	s.live = append(s.live, res.Session.ID)
	return true
}

// forget drops an aborted session from the standing set.
func (s *sut) forget(id core.SessionID) {
	for i, live := range s.live {
		if live == id {
			s.live = append(s.live[:i], s.live[i+1:]...)
			return
		}
	}
}
