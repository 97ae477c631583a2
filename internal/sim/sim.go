// Package sim provides the deterministic discrete-event simulation engine
// that underlies the reproduction's experiments: playout sessions, workload
// arrival processes, congestion injection and adaptation timing all run on
// its virtual clock. Events fire in timestamp order with FIFO tie-breaking,
// so a given seed always reproduces the same trajectory. A process (Go) is
// a function that suspends itself on the calendar (Sleep), so code written
// as straight-line calls, such as a negotiation whose reservations take
// time, runs in virtual time too.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine. It is safe for concurrent use: one goroutine may run the
// calendar while others schedule and stop events. No lock is held while an
// event runs, so an event may schedule, stop and read the clock.
type Engine struct {
	mu    sync.Mutex
	now   time.Duration
	queue eventQueue
	seq   uint64
	// running is the channel of the process that holds control, nil
	// between processes.
	running chan struct{}
}

// NewEngine returns an engine at virtual time zero with an empty calendar.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queue.Len()
}

// Handle identifies a scheduled event so it can be stopped.
type Handle struct {
	e  *Engine
	ev *event
}

// Stop removes the event from the calendar and reports whether it was still
// pending. Stopping a fired or stopped event, or the zero Handle, is a no-op.
func (h Handle) Stop() bool {
	if h.ev == nil {
		return false
	}
	h.e.mu.Lock()
	defer h.e.mu.Unlock()
	if h.ev.index < 0 {
		return false
	}
	heap.Remove(&h.e.queue, h.ev.index)
	return true
}

// Schedule runs fn at now+delay. A negative delay is an error; a zero delay
// fires after the currently executing event completes.
func (e *Engine) Schedule(delay time.Duration, fn func()) (Handle, error) {
	if delay < 0 {
		return Handle{}, fmt.Errorf("sim: negative delay %v", delay)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ev := &event{at: e.now + delay, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return Handle{e: e, ev: ev}, nil
}

// MustSchedule is Schedule that panics on error; for literals known to be
// non-negative.
func (e *Engine) MustSchedule(delay time.Duration, fn func()) Handle {
	h, err := e.Schedule(delay, fn)
	if err != nil {
		panic(err)
	}
	return h
}

// Step fires the next event, advancing the clock to its timestamp. It
// returns false when the calendar is empty.
func (e *Engine) Step() bool { return e.fire(math.MaxInt64) }

// Run fires events until the calendar is empty or the next event lies
// beyond the horizon; the clock then advances to the horizon. It returns
// the number of events fired.
func (e *Engine) Run(horizon time.Duration) int {
	fired := 0
	for e.fire(horizon) {
		fired++
	}
	e.mu.Lock()
	e.now = max(e.now, horizon)
	e.mu.Unlock()
	return fired
}

// RunAll fires every event until the calendar drains; it returns the number
// of events fired. Self-perpetuating processes (an arrival process that
// always schedules its successor) never drain — bound those with Run.
func (e *Engine) RunAll() int {
	fired := 0
	for e.Step() {
		fired++
	}
	return fired
}

// fire pops the next event due by horizon, advances the clock to it and
// runs it with the lock released. It returns false when none is due.
func (e *Engine) fire(horizon time.Duration) bool {
	e.mu.Lock()
	if len(e.queue) == 0 || e.queue[0].at > horizon {
		e.mu.Unlock()
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.at
	e.mu.Unlock()
	ev.fn()
	return true
}

// Go runs f as a process and returns once f returns or first calls Sleep.
// A process is a goroutine that runs only while it holds control, which
// passes to it and back over one unbuffered channel: whoever calls Go or
// fires its wake event waits while it runs. One process runs at a time, so
// a run is deterministic however the runtime schedules goroutines. A
// process may call Go; the new process runs until it sleeps or returns,
// and then the caller continues.
func (e *Engine) Go(f func()) {
	p := make(chan struct{})
	go func() {
		defer func() { p <- struct{}{} }()
		<-p
		f()
	}()
	e.hand(p)
}

// hand gives process p control until it yields it back.
func (e *Engine) hand(p chan struct{}) {
	e.mu.Lock()
	prev := e.running
	e.running = p
	e.mu.Unlock()
	p <- struct{}{}
	<-p
	e.mu.Lock()
	e.running = prev
	e.mu.Unlock()
}

// Sleep suspends the calling process until the calendar reaches now+d; a
// zero d resumes it after the events already due now. It panics outside a
// process, where there is nothing to suspend, and on a negative d. A
// process whose wake never fires, because the engine is not run that far,
// stays parked with its goroutine.
func (e *Engine) Sleep(d time.Duration) {
	e.mu.Lock()
	p := e.running
	e.mu.Unlock()
	if p == nil {
		panic("sim: Sleep outside a process; start one with Engine.Go")
	}
	e.MustSchedule(d, func() { e.hand(p) })
	p <- struct{}{}
	<-p
}

type event struct {
	at    time.Duration
	seq   uint64
	fn    func()
	index int
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1 // fired or stopped: no longer pending
	*q = old[:n-1]
	return ev
}

// Rand is a deterministic random source for workload generation. It wraps
// math/rand with the distributions the experiments need.
type Rand struct {
	r     *rand.Rand
	zipfs map[zipfKey]*rand.Zipf
}

// NewRand returns a Rand seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.r.Float64() }

// Intn returns a uniform integer in [0, n).
func (r *Rand) Intn(n int) int { return r.r.Intn(n) }

// Exp returns an exponentially distributed duration with the given mean;
// the inter-arrival law of the experiments' Poisson processes.
func (r *Rand) Exp(mean time.Duration) time.Duration {
	return time.Duration(r.r.ExpFloat64() * float64(mean))
}

// Zipf returns a Zipf-distributed integer in [0, n) with exponent s > 1,
// modelling document popularity skew. The generator for each (n, s) pair is
// cached, so repeated draws are cheap.
func (r *Rand) Zipf(n int, s float64) int {
	key := zipfKey{n: n, s: s}
	z, ok := r.zipfs[key]
	if !ok {
		z = rand.NewZipf(r.r, s, 1, uint64(n-1))
		if r.zipfs == nil {
			r.zipfs = make(map[zipfKey]*rand.Zipf)
		}
		r.zipfs[key] = z
	}
	return int(z.Uint64())
}

type zipfKey struct {
	n int
	s float64
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.r.Perm(n) }
