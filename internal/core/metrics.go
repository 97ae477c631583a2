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

// negMetrics caches the manager's metric series so hot paths record through
// pre-resolved pointers instead of name lookups. A nil *negMetrics (metrics
// disabled) is fully inert: every method nil-checks first.
type negMetrics struct {
	outcomes       *telemetry.CounterFamily
	negSeconds     *telemetry.Histogram
	steps          *telemetry.HistogramFamily
	stepCache      [telemetry.StepAdaptation + 1]*telemetry.Histogram
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

// newNegMetrics registers the manager's metrics; nil registry → nil metrics.
// The end-to-end negotiation histogram is a "shard"-labeled family, so every
// shard of a fleet records into its own latency distribution on the shared
// registry; a manager without shard hooks records under "0".
func newNegMetrics(reg *telemetry.Registry, shard ShardHooks) *negMetrics {
	if reg == nil {
		return nil
	}
	label := "0"
	if shard != nil {
		label = shard.Label()
	}
	n := &negMetrics{
		outcomes: reg.CounterFamily(MetricNegotiations,
			"Negotiation outcomes by NegotiationStatus.", "status"),
		negSeconds: reg.HistogramFamily(MetricNegotiationTime,
			"End-to-end negotiation latency (steps 1-5), by manager shard.",
			"shard", telemetry.LatencyBuckets).With(label),
		steps: reg.HistogramFamily(MetricStepTime,
			"Per-step negotiation latency.", "step", telemetry.LatencyBuckets),
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
	for s := telemetry.StepLocalNegotiation; s <= telemetry.StepAdaptation; s++ {
		n.stepCache[s] = n.steps.With(s.String())
	}
	return n
}

func (n *negMetrics) step(s telemetry.Step) *telemetry.Histogram {
	if n == nil || int(s) >= len(n.stepCache) {
		return nil
	}
	return n.stepCache[s]
}

func (n *negMetrics) outcome(s NegotiationStatus) {
	if n != nil {
		n.outcomes.With(s.String()).Inc()
	}
}

func (n *negMetrics) commitFailure(c FailureCause) {
	if n != nil {
		n.commitFailures.With(c.String()).Inc()
	}
}

func (n *negMetrics) skip() {
	if n != nil {
		n.commitSkips.Inc()
	}
}

func (n *negMetrics) quarantineTrip() {
	if n != nil {
		n.quarantines.Inc()
	}
}

func (n *negMetrics) adapt(ok bool) {
	if n == nil {
		return
	}
	if ok {
		n.adaptations.With("ok").Inc()
	} else {
		n.adaptations.With("failed").Inc()
	}
}

func (n *negMetrics) staleInstall(procedure string) {
	if n != nil {
		n.staleInstalls.With(procedure).Inc()
	}
}

// offerCacheLookup records one cache consultation. A stale entry counts as
// both a miss (the set is recomputed) and an invalidation (a generation
// moved underneath the entry).
func (n *negMetrics) offerCacheLookup(out offercache.Outcome) {
	if n == nil {
		return
	}
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

func (n *negMetrics) offerCacheInvalidations(k int) {
	if n != nil && k > 0 {
		n.cacheInvalidations.Add(uint64(k))
	}
}

func (n *negMetrics) offerCacheEntries(k int) {
	if n != nil {
		n.cacheEntries.Set(int64(k))
	}
}

func (n *negMetrics) policyReorder(procedure string) {
	if n != nil {
		n.policyReorders.With(procedure).Inc()
	}
}

// policyRankLabels keeps the rank family's cardinality bounded: ranks past 7
// share one bucket.
var policyRankLabels = [...]string{"0", "1", "2", "3", "4", "5", "6", "7"}

func (n *negMetrics) policyChosenRank(rank int) {
	if n == nil {
		return
	}
	label := "8+"
	if rank >= 0 && rank < len(policyRankLabels) {
		label = policyRankLabels[rank]
	}
	n.policyRank.With(label).Inc()
}

func (n *negMetrics) policyRegret(wasted int) {
	if n != nil && wasted > 0 {
		n.policyWasted.Add(uint64(wasted))
	}
}

func (n *negMetrics) addRevenue(milli int64) {
	if n != nil && milli > 0 {
		n.revenue.Add(uint64(milli))
	}
}

func (n *negMetrics) observeNegotiation(d time.Duration) {
	if n != nil {
		n.negSeconds.Observe(d)
	}
}

func (n *negMetrics) serverHealthGauges(id media.ServerID, consecutive int, until time.Time) {
	if n == nil {
		return
	}
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
	if m.met == nil && m.opts.Tracer == nil {
		return stepTimer{}
	}
	return stepTimer{m: m, last: m.now()}
}

// lap closes the current phase as step s and starts the next one.
func (t *stepTimer) lap(s telemetry.Step) {
	if t.m == nil {
		return
	}
	now := t.m.now()
	d := now.Sub(t.last)
	t.last = now
	t.m.met.step(s).Observe(d)
	t.m.span(telemetry.Event{Step: s, Elapsed: d})
}
