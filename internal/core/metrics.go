package core

import (
	"sync/atomic"
	"time"

	"qosneg/internal/offercache"
	"qosneg/internal/telemetry"
)

// Metric names exported by the manager. DESIGN.md §9 documents the full
// vocabulary; qosctl renders the negotiation ones.
const (
	MetricNegotiations    = "qosneg_negotiations_total"
	MetricNegotiationTime = "qosneg_negotiation_seconds"
	MetricStepTime        = "qosneg_negotiation_step_seconds"
	MetricCommitFailures  = "qosneg_commit_failures_total"
	MetricCommitSkips     = "qosneg_commit_skips_total"
	MetricQuarantines     = "qosneg_quarantines_total"
	MetricQuarantined     = "qosneg_server_quarantined_until_seconds"
	MetricConsecutive     = "qosneg_server_consecutive_failures"
	// Per-server commit failures by cause and operation, as ServerLoad
	// counts them.
	MetricDownFailures    = "qosneg_server_down_failures_total"
	MetricReserveFailures = "qosneg_server_reserve_failures_total"
	MetricConnectFailures = "qosneg_server_connect_failures_total"
	MetricAdaptations     = "qosneg_adaptations_total"
	MetricRevenue         = "qosneg_revenue_millidollars_total"
	MetricStaleInstalls   = "qosneg_stale_installs_total"
	// Offer-cache series: candidate-set memoization traffic and occupancy.
	MetricOfferCacheHits          = "qosneg_offercache_hits_total"
	MetricOfferCacheMisses        = "qosneg_offercache_misses_total"
	MetricOfferCacheInvalidations = "qosneg_offercache_invalidations_total"
	MetricOfferCacheEntries       = "qosneg_offercache_entries"
	// Policy series: how often an installed selection/adaptation policy
	// overrode the classical tie-break, which classical rank the committed
	// offer held, and how many attempts were burned before success (the
	// regret proxy a learning policy should drive toward zero).
	MetricPolicyReorders   = "qosneg_policy_reorders_total"
	MetricPolicyChosenRank = "qosneg_policy_chosen_rank_total"
	MetricPolicyRegret     = "qosneg_policy_wasted_attempts_total"
)

// negMetrics holds the manager's push series, the ones with no count of
// their own elsewhere, resolved once so hot paths record through pointers
// instead of name lookups. Built from a nil registry every series is nil,
// and the telemetry package makes nil series inert, so call sites record
// unconditionally; only a clock read or a rendered detail needs an
// Options.Metrics check. The outcome counters, the breaker state and the
// offer cache's traffic are read where they are kept (see instrument).
type negMetrics struct {
	negSeconds  *telemetry.Histogram
	steps       [telemetry.StepAdaptation + 1]*telemetry.Histogram
	commitSkips *telemetry.Counter

	policyReorders *telemetry.CounterFamily
	policyRank     *telemetry.CounterFamily
	policyWasted   *telemetry.Counter
}

// counts is the manager's one record of each negotiation, commitment and
// lifecycle fact: each is incremented at one site, and Stats and the
// registry both read it. A labeled fact is indexed like its label names.
type counts struct {
	outcomes       [len(negotiationStatusNames)]atomic.Int64
	commitFailures [len(failureCauseNames)]atomic.Int64
	adaptations    [len(adaptationResults)]atomic.Int64
	staleInstalls  [len(staleProcedures)]atomic.Int64
	revenue        atomic.Int64
}

// The label values of the adaptation and stale-install series; adaptOK
// and adaptFailed index the former.
var (
	adaptationResults = [...]string{adaptOK: "ok", adaptFailed: "failed"}
	staleProcedures   = [...]string{"adapt", "renegotiate"}
)

const adaptOK, adaptFailed = 0, 1

// instrument registers the manager's metrics on reg, which may be nil, in
// the order the exposition lists them. The facts m counts are collectors
// the registry reads at Snapshot; the admission controller's sheds are read
// into the FAILEDTRYLATER outcomes, since each caller saw one.
func (m *Manager) instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c := &m.count
	collect := func(name, help string, gauge bool, read func() int64) {
		reg.Collect(telemetry.Collector{Name: name, Help: help, Gauge: gauge, Owner: m,
			Read: func(emit func(string, int64)) { emit("", read()) }})
	}
	// A labeled series exists once its fact has happened.
	labeled := func(name, help, label string, cs []atomic.Int64, names []string) {
		reg.Collect(telemetry.Collector{Name: name, Help: help, Label: label, Owner: m,
			Read: func(emit func(string, int64)) {
				for i := range cs {
					if v := cs[i].Load(); v > 0 {
						emit(names[i], v)
					}
				}
			}})
	}
	cache := func() offercache.Stats {
		if m.cache == nil {
			return offercache.Stats{}
		}
		return m.cache.Stats()
	}
	reg.Collect(telemetry.Collector{Name: MetricNegotiations, Help: "Negotiation outcomes by NegotiationStatus.",
		Label: "status", Owner: m, Read: func(emit func(string, int64)) {
			sheds := int64(m.opts.Admission.Stats().Sheds)
			for i := range c.outcomes {
				v := c.outcomes[i].Load()
				if NegotiationStatus(i) == FailedTryLater {
					v += sheds
				}
				if v > 0 {
					emit(negotiationStatusNames[i], v)
				}
			}
		}})
	m.met.negSeconds = reg.Histogram(MetricNegotiationTime,
		"End-to-end negotiation latency (steps 1-5).", telemetry.LatencyBuckets)
	labeled(MetricCommitFailures, "Failed resource-commitment attempts by cause.", "cause",
		c.commitFailures[:], failureCauseNames[:])
	m.met.commitSkips = reg.Counter(MetricCommitSkips,
		"Offers skipped because their server was already seen down this run.")
	collect(MetricQuarantines, "Circuit-breaker trips.", false, func() int64 { return int64(m.servers.quarantines()) })
	m.servers.instrument(reg)
	labeled(MetricAdaptations, "Adaptation-procedure runs by result.", "result",
		c.adaptations[:], adaptationResults[:])
	collect(MetricRevenue, "Accumulated price of completed sessions, milli-dollars.", false, c.revenue.Load)
	labeled(MetricStaleInstalls,
		"Commitments released by the epoch guard instead of installed: a concurrent transition ended the session mid-procedure.",
		"procedure", c.staleInstalls[:], staleProcedures[:])
	collect(MetricOfferCacheHits, "Negotiations served from a memoized candidate set.", false,
		func() int64 { return int64(cache().Hits) })
	collect(MetricOfferCacheMisses, "Negotiations that computed their candidate set fresh (includes stale drops).", false,
		func() int64 { return int64(cache().Misses) })
	collect(MetricOfferCacheInvalidations,
		"Cached candidate sets dropped because a document, pricing or exclusion generation moved.", false,
		func() int64 { return int64(cache().Invalidations) })
	collect(MetricOfferCacheEntries, "Live candidate-set cache entries.", true,
		func() int64 { return int64(cache().Entries) })
	m.met.policyReorders = reg.CounterFamily(MetricPolicyReorders,
		"Tie runs reordered by the installed policy, by procedure.", "procedure")
	m.met.policyRank = reg.CounterFamily(MetricPolicyChosenRank,
		"Classical rank of the committed offer under an installed policy.", "rank")
	m.met.policyWasted = reg.Counter(MetricPolicyRegret,
		"Commit attempts that failed or were skipped before a policy-ordered run succeeded.")
	// Pre-resolve the per-step series so stepTimer.lap never takes the
	// family's map path on the hot path.
	steps := reg.HistogramFamily(MetricStepTime,
		"Per-step negotiation latency.", "step", telemetry.LatencyBuckets)
	for s := telemetry.StepLocalNegotiation; s <= telemetry.StepAdaptation; s++ {
		m.met.steps[s] = steps.With(s.String())
	}
}

// policyRankLabels keeps the rank family's cardinality bounded: ranks past 7
// share one bucket.
var policyRankLabels = [...]string{"0", "1", "2", "3", "4", "5", "6", "7"}

func (n *negMetrics) policyChosenRank(rank int) {
	label := "8+"
	if rank >= 0 && rank < len(policyRankLabels) {
		label = policyRankLabels[rank]
	}
	n.policyRank.With(label).Inc()
}

// span emits a structured event to the tracer. Call sites that render a
// detail string check Options.Tracer first, so disabled tracing allocates
// nothing.
func (m *Manager) span(e telemetry.Event) {
	if m.opts.Tracer != nil {
		m.opts.Tracer.Trace(e)
	}
}

// stepTimer laps the phases of one negotiation run into the per-step
// histograms and span stream. The zero value (telemetry disabled) is inert
// and costs no clock reads.
type stepTimer struct {
	m    *Manager
	last time.Time
}

// stepTimer returns a running timer, or an inert one when neither metrics
// nor a tracer would consume the laps.
func (m *Manager) stepTimer() stepTimer {
	if m.opts.Metrics == nil && m.opts.Tracer == nil {
		return stepTimer{}
	}
	return stepTimer{m: m, last: m.clk.Now()}
}

// lap closes the current phase as step s and starts the next one.
func (t *stepTimer) lap(s telemetry.Step) {
	if t.m == nil {
		return
	}
	now := t.m.clk.Now()
	d := now.Sub(t.last)
	t.last = now
	t.m.met.steps[s].Observe(d)
	t.m.span(telemetry.Event{Step: s, Elapsed: d})
}
