package core

import (
	"time"

	"qosneg/internal/media"
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

// negMetrics holds the manager's metric series, resolved once so hot paths
// record through pointers instead of name lookups. Built from a nil registry
// every series is nil, and the telemetry package makes nil series inert, so
// call sites record unconditionally; only a clock read or a rendered detail
// needs an Options.Metrics check.
type negMetrics struct {
	outcomes       *telemetry.CounterFamily
	negSeconds     *telemetry.Histogram
	steps          [telemetry.StepAdaptation + 1]*telemetry.Histogram
	commitFailures *telemetry.CounterFamily
	commitSkips    *telemetry.Counter
	quarantines    *telemetry.Counter
	quarantined    *telemetry.GaugeFamily
	consecutive    *telemetry.GaugeFamily
	adaptations    *telemetry.CounterFamily
	revenue        *telemetry.Counter
	staleInstalls  *telemetry.CounterFamily

	cacheHits          *telemetry.Counter
	cacheMisses        *telemetry.Counter
	cacheInvalidations *telemetry.Counter
	cacheEntries       *telemetry.Gauge

	policyReorders *telemetry.CounterFamily
	policyRank     *telemetry.CounterFamily
	policyWasted   *telemetry.Counter
}

// newNegMetrics registers the manager's metrics on reg, which may be nil.
// The end-to-end negotiation histogram is a "shard"-labeled family, so every
// shard of a fleet records into its own latency distribution on the shared
// registry; a manager without shard hooks records under "0".
func newNegMetrics(reg *telemetry.Registry, shard ShardHooks) negMetrics {
	label := "0"
	if shard != nil {
		label = shard.Label()
	}
	n := negMetrics{
		outcomes: reg.CounterFamily(MetricNegotiations,
			"Negotiation outcomes by NegotiationStatus.", "status"),
		negSeconds: reg.HistogramFamily(MetricNegotiationTime,
			"End-to-end negotiation latency (steps 1-5), by manager shard.",
			"shard", telemetry.LatencyBuckets).With(label),
		commitFailures: reg.CounterFamily(MetricCommitFailures,
			"Failed resource-commitment attempts by cause.", "cause"),
		commitSkips: reg.Counter(MetricCommitSkips,
			"Offers skipped because their server was already seen down this run."),
		quarantines: reg.Counter(MetricQuarantines,
			"Circuit-breaker trips."),
		quarantined: reg.GaugeFamily(MetricQuarantined,
			"Unix time a server's quarantine ends; 0 when healthy.", "server"),
		consecutive: reg.GaugeFamily(MetricConsecutive,
			"Consecutive commit failures since the server's last success.", "server"),
		adaptations: reg.CounterFamily(MetricAdaptations,
			"Adaptation-procedure runs by result.", "result"),
		revenue: reg.Counter(MetricRevenue,
			"Accumulated price of completed sessions, milli-dollars."),
		staleInstalls: reg.CounterFamily(MetricStaleInstalls,
			"Commitments released by the epoch guard instead of installed: a concurrent transition ended the session mid-procedure.", "procedure"),
		cacheHits: reg.Counter(MetricOfferCacheHits,
			"Negotiations served from a memoized candidate set."),
		cacheMisses: reg.Counter(MetricOfferCacheMisses,
			"Negotiations that computed their candidate set fresh (includes stale drops)."),
		cacheInvalidations: reg.Counter(MetricOfferCacheInvalidations,
			"Cached candidate sets dropped because a document, pricing or exclusion generation moved."),
		cacheEntries: reg.Gauge(MetricOfferCacheEntries,
			"Live candidate-set cache entries."),
		policyReorders: reg.CounterFamily(MetricPolicyReorders,
			"Tie runs reordered by the installed policy, by procedure.", "procedure"),
		policyRank: reg.CounterFamily(MetricPolicyChosenRank,
			"Classical rank of the committed offer under an installed policy.", "rank"),
		policyWasted: reg.Counter(MetricPolicyRegret,
			"Commit attempts that failed or were skipped before a policy-ordered run succeeded."),
	}
	// Pre-resolve the per-step series so stepTimer.lap never takes the
	// family's map path on the hot path.
	steps := reg.HistogramFamily(MetricStepTime,
		"Per-step negotiation latency.", "step", telemetry.LatencyBuckets)
	for s := telemetry.StepLocalNegotiation; s <= telemetry.StepAdaptation; s++ {
		n.steps[s] = steps.With(s.String())
	}
	return n
}

// offerCacheLookup records one cache consultation. A stale entry counts as
// both a miss (the set is recomputed) and an invalidation (a generation
// moved underneath the entry).
func (n *negMetrics) offerCacheLookup(out offercache.Outcome) {
	switch out {
	case offercache.Hit:
		n.cacheHits.Inc()
	case offercache.Miss:
		n.cacheMisses.Inc()
	case offercache.Stale:
		n.cacheMisses.Inc()
		n.cacheInvalidations.Inc()
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

func (n *negMetrics) serverHealthGauges(id media.ServerID, consecutive int, until time.Time) {
	n.consecutive.With(string(id)).Set(int64(consecutive))
	var end int64
	if !until.IsZero() {
		end = until.Unix()
	}
	n.quarantined.With(string(id)).Set(end)
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
