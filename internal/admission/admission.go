// Package admission implements SLO-driven admission control for the QoS
// manager: a controller that watches the signals the stack already
// produces — negotiation latency (p99 against a declared SLO) and in-flight
// counts — and decides, before step
// 1 of the procedure runs, whether new work is admitted or shed with a
// FAILEDTRYLATER carrying a load-derived RetryAfter hint.
//
// The controller adapts on two axes:
//
//   - The concurrency limit follows AIMD: while the windowed p99 of
//     admitted negotiations stays within the SLO the limit grows by one
//     per adjustment interval (additive increase); when the p99 breaches
//     the SLO it halves (multiplicative decrease), down to a floor. Work
//     arriving above the limit is shed, so admitted requests keep seeing
//     bounded queueing and their latency stays within the SLO while
//     goodput plateaus at what the substrate can actually sustain.
//
//   - The RetryAfter hint follows MIAD (the inverse): each shed burst
//     doubles the hint up to a cap (multiplicative increase, so retries
//     spread out as pressure rises), and every healthy adjustment interval
//     walks it back down by a fixed step (additive decrease, so the hint
//     relaxes slowly once the overload clears).
//
// A nil *Controller is fully inert: every method is nil-safe and Admit on
// a nil controller admits at zero cost, so the disabled path adds no
// overhead to the negotiation hot path.
package admission

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qosneg/internal/clock"
	"qosneg/internal/telemetry"
)

// Metric names exported by the controller; DESIGN.md §13 documents them
// and qosctl stats renders the totals.
// DefaultSLO is the p99 latency target a zero Config defends.
const DefaultSLO = 250 * time.Millisecond

const (
	MetricSheds      = "qosneg_admission_sheds_total"
	MetricAdmitted   = "qosneg_admission_admitted_total"
	MetricInFlight   = "qosneg_admission_inflight"
	MetricLimit      = "qosneg_admission_limit"
	MetricRetryAfter = "qosneg_admission_retry_after_ms"
	MetricP99        = "qosneg_admission_p99_ms"
)

// Config parameterizes a Controller. The zero value of every field selects
// a sensible default; only SLO is commonly set explicitly.
type Config struct {
	// SLO is the declared p99 target for admitted-negotiation latency;
	// the AIMD limit shrinks whenever the windowed p99 breaches it.
	// Default 250ms.
	SLO time.Duration
	// MaxInFlight is the hard ceiling on concurrently admitted
	// negotiations and the AIMD limit's upper bound. Default
	// 16×GOMAXPROCS.
	MaxInFlight int
	// MinInFlight is the AIMD limit's floor: the controller never
	// throttles below it, so a breached SLO degrades throughput gradually
	// instead of collapsing it. Default GOMAXPROCS.
	MinInFlight int
	// Clock is the time source; tests set a Sim clock. Default clock.Wall.
	Clock clock.Clock
}

func (c Config) withDefaults() Config {
	if c.SLO <= 0 {
		c.SLO = DefaultSLO
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 16 * runtime.GOMAXPROCS(0)
	}
	if c.MinInFlight <= 0 {
		c.MinInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MinInFlight > c.MaxInFlight {
		c.MinInFlight = c.MaxInFlight
	}
	if c.Clock == nil {
		c.Clock = clock.Wall{}
	}
	return c
}

// window is how much latency history feeds the p99 estimate; minRetryAfter
// and maxRetryAfter bound the MIAD retry hint, and hintDecay is its additive
// decrease per healthy adjustment interval. The hint doubles at most once
// per growEvery, so a shed storm walks it up in decades rather than
// saturating on the first burst; the limit adjusts at most once per
// adjustWait so one slow outlier cannot halve it repeatedly within a single
// window.
const (
	window        = 2 * time.Second
	minRetryAfter = 100 * time.Millisecond
	maxRetryAfter = 10 * time.Second
	hintDecay     = 100 * time.Millisecond
	growEvery     = 100 * time.Millisecond
	adjustWait    = window / 8
)

// ringSize bounds the latency window's sample buffer; at 4096 samples the
// p99 estimate rests on the freshest ~40 above-p99 observations.
const ringSize = 4096

type sample struct {
	at  time.Time
	lat time.Duration
}

// Controller is the admission gate. Decisions read two atomics (in-flight
// count and limit); the mutex only covers the latency window and the
// periodic AIMD/MIAD adjustment.
type Controller struct {
	cfg Config

	inflight atomic.Int64
	limit    atomic.Int64
	// hintNs is the current RetryAfter in nanoseconds, read lock-free on
	// the shed path.
	hintNs atomic.Int64

	admitted atomic.Uint64
	// sheds counts Admit's refusals and Saturated's true answers.
	sheds atomic.Uint64

	mu         sync.Mutex
	samples    [ringSize]sample
	head       int // next write position
	count      int
	lastAdjust time.Time
	lastGrow   time.Time
	p99Ns      atomic.Int64 // last computed windowed p99
}

// New builds a controller; zero config fields take defaults.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg}
	c.limit.Store(int64(cfg.MaxInFlight))
	c.hintNs.Store(int64(minRetryAfter))
	return c
}

// Instrument registers the controller's metric series, read from its
// counters at Snapshot time; a nil registry (or nil controller) is a no-op.
func (c *Controller) Instrument(reg *telemetry.Registry) {
	if c == nil {
		return
	}
	series := func(name, help string, gauge bool, v func(Stats) int64) {
		reg.Collect(telemetry.Collector{Name: name, Help: help, Gauge: gauge, Owner: c,
			Read: func(emit func(string, int64)) { emit("", v(c.Stats())) }})
	}
	series(MetricSheds, "Requests refused by the admission controller with a RetryAfter hint.", false,
		func(s Stats) int64 { return int64(s.Sheds) })
	series(MetricAdmitted, "Requests admitted past the controller.", false,
		func(s Stats) int64 { return int64(s.Admitted) })
	series(MetricInFlight, "Currently admitted negotiations in flight.", true,
		func(s Stats) int64 { return int64(s.InFlight) })
	series(MetricLimit, "Current AIMD concurrency limit.", true,
		func(s Stats) int64 { return int64(s.Limit) })
	series(MetricRetryAfter, "Current MIAD RetryAfter hint, milliseconds.", true,
		func(s Stats) int64 { return s.RetryHint.Milliseconds() })
	series(MetricP99, "Windowed p99 of admitted-negotiation latency, milliseconds.", true,
		func(s Stats) int64 { return s.P99.Milliseconds() })
}

// SLO returns the declared p99 target; 0 on a nil controller.
func (c *Controller) SLO() time.Duration {
	if c == nil {
		return 0
	}
	return c.cfg.SLO
}

// Admit decides whether one negotiation may run. When admitted it returns
// a release closure the caller must invoke once the negotiation finishes
// (it decrements in-flight and feeds the latency window); retryAfter is
// zero. When shed it returns a nil release and the current load-derived
// RetryAfter hint. A nil controller admits everything with a nil release.
func (c *Controller) Admit() (release func(), retryAfter time.Duration, ok bool) {
	if c == nil {
		return nil, 0, true
	}
	if n := c.inflight.Add(1); n > c.limit.Load() {
		c.inflight.Add(-1)
		c.sheds.Add(1)
		return nil, c.shed(), false
	}
	c.admitted.Add(1)
	start := c.cfg.Clock.Now()
	return func() {
		c.inflight.Add(-1)
		c.observe(c.cfg.Clock.Now().Sub(start))
	}, 0, true
}

// Saturated is the protocol server's cheap pre-dispatch probe: it reports
// whether an Admit issued now would shed, without reserving a slot. A true
// answer counts as a shed and returns the hint the busy reply should
// carry. Nil-safe (a nil controller is never saturated).
func (c *Controller) Saturated() (retryAfter time.Duration, saturated bool) {
	if c == nil {
		return 0, false
	}
	if c.inflight.Load() >= c.limit.Load() {
		c.sheds.Add(1)
		return c.shed(), true
	}
	return 0, false
}

// RetryHint returns the current MIAD RetryAfter without recording a shed;
// 0 on a nil controller.
func (c *Controller) RetryHint() time.Duration {
	if c == nil {
		return 0
	}
	return time.Duration(c.hintNs.Load())
}

// shed applies one refusal's multiplicative increase to the hint,
// rate-limited to once per growEvery so a burst of sheds walks the hint up
// instead of slamming it to the cap.
func (c *Controller) shed() time.Duration {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	if now.Sub(c.lastGrow) >= growEvery {
		c.lastGrow = now
		h := 2 * time.Duration(c.hintNs.Load())
		if h > maxRetryAfter {
			h = maxRetryAfter
		}
		c.hintNs.Store(int64(h))
	}
	h := time.Duration(c.hintNs.Load())
	c.mu.Unlock()
	return h
}

// observe feeds one admitted-negotiation latency into the window and, once
// per adjustment interval, re-estimates the p99 and applies AIMD to the
// limit and the additive decrease to the hint.
func (c *Controller) observe(lat time.Duration) {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	c.samples[c.head] = sample{at: now, lat: lat}
	c.head = (c.head + 1) % ringSize
	if c.count < ringSize {
		c.count++
	}
	if now.Sub(c.lastAdjust) < adjustWait {
		c.mu.Unlock()
		return
	}
	c.lastAdjust = now
	p99 := c.p99Locked(now)
	c.p99Ns.Store(int64(p99))
	lim := c.limit.Load()
	if p99 > c.cfg.SLO {
		lim /= 2
		if lim < int64(c.cfg.MinInFlight) {
			lim = int64(c.cfg.MinInFlight)
		}
	} else {
		if lim++; lim > int64(c.cfg.MaxInFlight) {
			lim = int64(c.cfg.MaxInFlight)
		}
		// Healthy interval: walk the retry hint back down additively.
		h := time.Duration(c.hintNs.Load()) - hintDecay
		if h < minRetryAfter {
			h = minRetryAfter
		}
		c.hintNs.Store(int64(h))
	}
	c.limit.Store(lim)
	c.mu.Unlock()
}

// p99Locked estimates the 99th percentile of the samples still inside the
// window. Called with mu held.
func (c *Controller) p99Locked(now time.Time) time.Duration {
	cutoff := now.Add(-window)
	lats := make([]time.Duration, 0, c.count)
	for i := 0; i < c.count; i++ {
		s := c.samples[(c.head-1-i+2*ringSize)%ringSize]
		if s.at.Before(cutoff) {
			break // samples run newest to oldest; the rest are older still
		}
		lats = append(lats, s.lat)
	}
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := (99*len(lats) + 99) / 100
	if idx > 0 {
		idx--
	}
	return lats[idx]
}

// Stats is a point-in-time snapshot of the controller's state.
type Stats struct {
	// Admitted and Sheds count decisions since construction: Sheds are
	// Admit's refusals and Saturated's true answers, each one request that
	// ended FAILEDTRYLATER.
	Admitted uint64
	Sheds    uint64
	// InFlight and Limit are the current occupancy and AIMD bound.
	InFlight int
	Limit    int
	// RetryHint is the hint the next shed would carry.
	RetryHint time.Duration
	// P99 is the last windowed p99 estimate (0 until the first adjustment).
	P99 time.Duration
	// SLO echoes the declared target.
	SLO time.Duration
}

// Stats snapshots the controller; the zero Stats on a nil controller.
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Admitted:  c.admitted.Load(),
		Sheds:     c.sheds.Load(),
		InFlight:  int(c.inflight.Load()),
		Limit:     int(c.limit.Load()),
		RetryHint: time.Duration(c.hintNs.Load()),
		P99:       time.Duration(c.p99Ns.Load()),
		SLO:       c.cfg.SLO,
	}
}
