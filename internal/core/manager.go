package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cmfs"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/offer"
	"qosneg/internal/offercache"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/registry"
	"qosneg/internal/telemetry"
	"qosneg/internal/transport"
)

// ErrUnknownSession is returned for operations on sessions the manager does
// not hold.
var ErrUnknownSession = errors.New("core: unknown session")

// ErrBadState is returned when a session operation is invalid in the
// session's current state.
var ErrBadState = errors.New("core: invalid session state")

// ErrAdaptationFailed is returned when no alternate system offer can be
// committed for a degraded session.
var ErrAdaptationFailed = errors.New("core: adaptation failed, no alternate offer supportable")

// ErrChoicePeriodExpired is returned for operations on a session whose
// choice period elapsed before the user confirmed (step 6's time-out: "If a
// time-out is reached the session is simply aborted").
var ErrChoicePeriodExpired = errors.New("core: choice period expired")

// Options tunes the QoS manager.
type Options struct {
	// Classifier orders the feasible offers; nil selects the paper's
	// SNS-primary classification.
	Classifier offer.Orderer
	// ChoicePeriod is the default confirmation window when the user
	// profile does not set one (Section 8).
	ChoicePeriod time.Duration
	// MaxOffers bounds offer enumeration.
	MaxOffers int
	// PathAlternates is how many candidate network paths the transport
	// system tries per stream.
	PathAlternates int
	// TopK bounds how many classified offers each negotiation keeps for
	// commitment and later adaptation; 0 selects DefaultTopK, negative
	// keeps the full classified set.
	TopK int
	// Health tunes the per-server circuit breaker; the zero value keeps
	// the consecutive-failure breaker off (hard server-down evidence
	// still quarantines).
	Health HealthPolicy
	// OfferCache sizes the candidate-set cache memoizing the static half
	// of the procedure (step-2 filtering, §6 mapping, §7 per-variant
	// pricing) across negotiations: 0 selects offercache.DefaultSize,
	// negative disables caching.
	OfferCache int
	// Metrics, when non-nil, receives the manager's counters, gauges and
	// latency histograms (outcomes by status, per-step and end-to-end
	// negotiation latency, commit failures by cause, breaker state,
	// adaptations, revenue). Nil (telemetry.Noop) disables recording at
	// zero cost.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives a typed span event per negotiation
	// step and per decision — why the QoS manager picked, failed or skipped
	// each offer (local-failed, no-variant, skip-dead, commit-failed with its
	// cause, committed, exhausted, quarantine, adaptation). It runs on the
	// negotiating goroutine and must be fast and non-blocking.
	Tracer telemetry.Tracer
	// Shard, when non-nil, makes this manager one shard of a fleet: session
	// ids, breaker-trip publication and the negotiation-latency series' shard
	// label come from the hooks (see ShardHooks). Nil — a bare manager in
	// tests and benchmarks — allocates 1, 2, 3 … privately, publishes
	// nothing and records under shard "0".
	Shard ShardHooks
	// Selection, when non-nil, may reorder step 5's commitment attempts
	// among offers the classifier ranked equal — same Status, same OIF —
	// and nothing else, so classification stays normative (see policy.go).
	// Policies that implement PolicyObserver learn from every commit
	// outcome. Nil keeps the paper's fixed tie-break order byte-for-byte at
	// zero cost.
	Selection SelectionPolicy
	// Adaptation is Selection's counterpart for the adaptation procedure's
	// target order; the same object may serve both roles.
	Adaptation AdaptationPolicy
}

// ShardHooks is what a manager running as one shard of a fleet asks of the
// fleet. shard.Fleet implements it per shard; the methods run on the
// negotiating goroutine and must be fast and non-blocking.
type ShardHooks interface {
	// Label is the shard's value of the negotiation-latency histogram's
	// "shard" label, so a fleet's shards share one metrics registry.
	Label() string
	// NextSessionID allocates the id of a freshly reserved session, in place
	// of the manager's private counter. A shard only emits ids that hash
	// back to itself, so a session is resident where the router will look
	// for it and fleet-wide uniqueness needs no coordination. Called under
	// the session-table lock.
	NextSessionID() SessionID
	// PublishQuarantine fires after this manager's own circuit breaker trips
	// (never for evidence installed by ApplyQuarantine), so sibling shards
	// stop offering the dead server too.
	PublishQuarantine(id media.ServerID, until time.Time)
}

// DefaultTopK is how many classified offers a negotiation retains by
// default: enough alternates for step 5's fallback commitment and the
// adaptation procedure, without holding a 2^20-offer product per session.
const DefaultTopK = 64

// topK resolves the classification bound.
func (o Options) topK() int {
	switch {
	case o.TopK == 0:
		return DefaultTopK
	case o.TopK < 0:
		return 0
	default:
		return o.TopK
	}
}

// DefaultOptions returns the options used by the examples: SNS-primary
// classification, a 30-second choice period and 3 path alternates.
func DefaultOptions() Options {
	return Options{
		Classifier:     offer.SNSPrimary{},
		ChoicePeriod:   30 * time.Second,
		MaxOffers:      1 << 16,
		PathAlternates: 3,
	}
}

// Result is the outcome of a negotiation: the negotiation status and,
// depending on it, a user offer, a reserved session, local-negotiation
// violations, or a diagnostic reason.
type Result struct {
	Status NegotiationStatus
	// Offer is the user offer: the committed offer for SUCCEEDED and
	// FAILEDWITHOFFER, the clamped local offer for FAILEDWITHLOCALOFFER,
	// nil otherwise.
	Offer *profile.MMProfile
	// Session is the reserved session awaiting confirmation, non-nil iff
	// Status.Reserved().
	Session *Session
	// Violations lists the failed client-capability checks for
	// FAILEDWITHLOCALOFFER.
	Violations []client.LocalViolation
	// Reason carries a human-readable diagnostic for the failure
	// statuses.
	Reason string
	// RetryAfter is the retry hint for FAILEDTRYLATER: how long the
	// caller should wait before renegotiating (the longest remaining
	// server quarantine, the policy's RetryAfter for plain capacity
	// shortage, or the admission controller's load-derived hint for a
	// shed). Zero for every other status.
	RetryAfter time.Duration
	// Shed marks a FAILEDTRYLATER produced by admission control: the
	// procedure never ran and no resources were touched, so the caller
	// should simply retry after RetryAfter.
	Shed bool
}

// MediaServer is the continuous-media server surface the manager commits
// against. *cmfs.Server implements it; the fault injector (package faults)
// wraps it to simulate crashes and admission failures.
type MediaServer interface {
	ID() media.ServerID
	Config() cmfs.Config
	Reserve(q qos.NetworkQoS) (cmfs.Reservation, error)
	Release(id cmfs.ReservationID) error
	ActiveStreams() int
	Utilization() float64
}

// Transport is the connection-establishment surface the manager commits
// against. *transport.System implements it; the fault injector wraps it to
// simulate partitions and connect failures.
type Transport interface {
	Connect(src, dst network.NodeID, q qos.NetworkQoS) (transport.Connection, error)
	Close(c transport.Connection) error
}

// Manager is the QoS manager: it owns the negotiation procedure, the
// session table and the adaptation procedure. It is safe for concurrent
// use: the negotiation pipeline runs lock-free, and independent
// negotiations from different clients proceed concurrently — the manager's
// locks only cover the session table, the server registry and the outcome
// counters, each separately.
type Manager struct {
	registry  *registry.Registry
	transport Transport
	opts      Options
	// cache memoizes per-(document, machine class, guarantee, exclusion
	// world) candidate sets, generation-checked against the registry and
	// pricing; nil when Options.OfferCache is negative.
	cache *offercache.Cache
	// priceMu guards pricing and pricingGen; SetPricing swaps the tables
	// and bumps the generation, lazily invalidating memoized candidates
	// priced under the old tables.
	priceMu    sync.RWMutex
	pricing    cost.Pricing
	pricingGen uint64
	// met caches the metric series when Options.Metrics is set; nil means
	// metrics disabled (every recording helper nil-checks).
	met *negMetrics
	// now is the clock the circuit breaker and latency metrics use; tests
	// may override it.
	now func() time.Time
	// testHookUnlocked, when non-nil, fires at the start of every unlock
	// window — after a procedure has withdrawn and released a session's
	// commitment but before it re-locks to install the replacement. The
	// lifecycle race tests use it to force deterministic interleavings;
	// it is never set outside tests.
	testHookUnlocked func(op string, id SessionID)

	// sessMu guards the session table and id counter only; negotiations
	// never hold it while enumerating, classifying or committing.
	// sessions holds live sessions only; a terminal transition retires the
	// session into the tombs ring, where tombNext is the oldest once full.
	sessMu   sync.RWMutex
	sessions map[SessionID]*Session
	nextID   SessionID
	tombs    []tombstone
	tombNext int

	// srvMu guards the (read-mostly) server registry.
	srvMu   sync.RWMutex
	servers map[media.ServerID]serverEntry

	// healthMu guards the per-server circuit-breaker state.
	healthMu sync.Mutex
	health   map[media.ServerID]*serverHealth
	// observers is the learning surface of the installed policies, resolved
	// once at construction; empty when no policy learns.
	observers []PolicyObserver

	// statsMu guards the outcome counters.
	statsMu sync.Mutex
	stats   Stats
}

type serverEntry struct {
	server MediaServer
	node   network.NodeID
}

// Stats counts negotiation outcomes.
type Stats struct {
	Requests             int
	Succeeded            int
	FailedWithOffer      int
	FailedTryLater       int
	FailedWithoutOffer   int
	FailedWithLocalOffer int
	Adaptations          int
	AdaptationFailures   int
	// Per-cause commit-failure counters: how many resource-commitment
	// attempts failed because a server was down (or quarantined), because
	// of a capacity shortage, or because of a hard profile constraint.
	CommitServerDown int
	CommitCapacity   int
	CommitConstraint int
	// Quarantines counts circuit-breaker trips.
	Quarantines int
	// StaleInstalls counts commitments the epoch guard released instead of
	// installing: a concurrent transition (abort, time-out, completion)
	// ended the session while an adaptation or renegotiation was committing
	// off-lock. Each one is a reservation leak prevented.
	StaleInstalls int
	// AdmissionSheds counts requests the admission controller refused at
	// the fleet router, before any shard ran step 1; each is also counted
	// under Requests and FailedTryLater, since the caller saw a
	// FAILEDTRYLATER result.
	AdmissionSheds int
	// Offer-cache counters, snapshotted from the candidate-set cache: how
	// many negotiations reused a memoized candidate set, how many computed
	// one fresh, how many entries were dropped because a generation or
	// exclusion world moved, and how many entries are live.
	OfferCacheHits          int
	OfferCacheMisses        int
	OfferCacheInvalidations int
	OfferCacheEntries       int
	// Revenue accumulates the price of completed sessions, in
	// milli-dollars: the system only bills for deliveries that finished.
	Revenue cost.Money
}

// NewManager builds a QoS manager over the given substrate.
func NewManager(reg *registry.Registry, ts Transport, pricing cost.Pricing, opts Options) *Manager {
	if opts.Classifier == nil {
		opts.Classifier = offer.SNSPrimary{}
	}
	if opts.ChoicePeriod <= 0 {
		opts.ChoicePeriod = 30 * time.Second
	}
	m := &Manager{
		registry:  reg,
		transport: ts,
		pricing:   pricing,
		opts:      opts,
		met:       newNegMetrics(opts.Metrics, opts.Shard),
		now:       time.Now,
		servers:   make(map[media.ServerID]serverEntry),
		health:    make(map[media.ServerID]*serverHealth),
		sessions:  make(map[SessionID]*Session),
		observers: policyObservers(opts.Selection, opts.Adaptation),
	}
	if opts.OfferCache >= 0 {
		m.cache = offercache.New(opts.OfferCache)
	}
	return m
}

// SetPricing atomically replaces the pricing tables and bumps the pricing
// generation: every candidate set memoized under the old tables fails its
// next generation check and is recomputed.
func (m *Manager) SetPricing(p cost.Pricing) {
	m.priceMu.Lock()
	m.pricing = p
	m.pricingGen++
	m.priceMu.Unlock()
}

// pricingSnapshot reads the pricing tables and their generation atomically.
func (m *Manager) pricingSnapshot() (cost.Pricing, uint64) {
	m.priceMu.RLock()
	defer m.priceMu.RUnlock()
	return m.pricing, m.pricingGen
}

// AddServer registers a media file server and its network attachment point.
func (m *Manager) AddServer(s MediaServer, node network.NodeID) {
	m.srvMu.Lock()
	defer m.srvMu.Unlock()
	m.servers[s.ID()] = serverEntry{server: s, node: node}
}

// Stats returns a snapshot of the outcome counters, merged with the offer
// cache's counters when caching is enabled.
func (m *Manager) Stats() Stats {
	m.statsMu.Lock()
	st := m.stats
	m.statsMu.Unlock()
	if m.cache != nil {
		cs := m.cache.Stats()
		st.OfferCacheHits = int(cs.Hits)
		st.OfferCacheMisses = int(cs.Misses)
		st.OfferCacheInvalidations = int(cs.Invalidations)
		st.OfferCacheEntries = int(cs.Entries)
	}
	return st
}

// negOutcome is the result of the session-independent part of the
// negotiation procedure: steps 1–5 without session bookkeeping.
type negOutcome struct {
	status     NegotiationStatus
	reason     string
	violations []client.LocalViolation
	localOffer *profile.MMProfile
	// ranked is the classified offer list (steps 3–4), bounded by
	// Options.TopK; set whenever enumeration succeeded.
	ranked []offer.Ranked
	// chosen and commit are set when resources were reserved.
	chosen offer.Ranked
	commit commitment
	// retryAfter is the FAILEDTRYLATER hint.
	retryAfter time.Duration
}

// refusal renders an outcome that reserved nothing as the caller's Result.
func (o negOutcome) refusal() Result {
	return Result{Status: o.status, Offer: o.localOffer, Violations: o.violations, Reason: o.reason, RetryAfter: o.retryAfter}
}

// hookUnlocked fires the test-only unlock-window hook.
func (m *Manager) hookUnlocked(op string, id SessionID) {
	if m.testHookUnlocked != nil {
		m.testHookUnlocked(op, id)
	}
}

// abortWindow closes an unlock window that produced no new commitment: the
// session is aborted unless a concurrent transition already ended it (the
// epoch guard detects that), and the busy marker is cleared. The caller
// has already withdrawn and released the old commitment, so there is
// nothing to free here.
func (m *Manager) abortWindow(s *Session, epoch uint64, expect SessionState) {
	s.mu.Lock()
	aborted := s.state == expect && s.epoch == epoch
	if aborted {
		s.end(Aborted)
	}
	s.busy = false
	s.mu.Unlock()
	if aborted {
		m.retire(s)
	}
}

// recordStaleInstall counts one epoch-guard save: a freshly committed
// configuration released instead of installed because the session moved on
// while it was unlocked.
func (m *Manager) recordStaleInstall(procedure string, id SessionID, st SessionState) {
	m.met.staleInstall(procedure)
	m.statsMu.Lock()
	m.stats.StaleInstalls++
	m.statsMu.Unlock()
	if m.opts.Tracer != nil {
		detail := fmt.Sprintf("session %d reached %v mid-%s; fresh commitment released", id, st, procedure)
		m.span(telemetry.Event{Step: telemetry.StepCommitment, Status: "stale-install", Detail: detail})
	}
}

// candidateSet resolves the step-2 candidate set for one negotiation: a
// memoized set when the cache holds a coherent entry for (document, machine
// class, guarantee, exclusion world) at the caller's generations, a fresh
// Filter pass otherwise, stored for the next request under the generations
// it was computed from. Every input of the filter/mapping/pricing
// computation is either part of the cache key or generation-checked, so a
// hit is byte-equivalent to recomputing.
func (m *Manager) candidateSet(ctx context.Context, doc media.Document, docGen uint64, mach client.Machine, g cost.Guarantee, exclude func(media.Variant) bool, exclHash uint64) (offer.Candidates, []offer.SystemOffer, error) {
	pricing, pricingGen := m.pricingSnapshot()
	if m.cache == nil {
		cands, err := offer.Filter(ctx, doc, mach, pricing, g, 0, exclude)
		return cands, nil, err
	}
	key := offercache.Key{Doc: doc.ID, Machine: mach.Fingerprint(), Guarantee: g, Exclusion: exclHash}
	cands, offers, out := m.cache.Lookup(key, docGen, pricingGen)
	m.met.offerCacheLookup(out)
	if out == offercache.Hit {
		return cands, offers, nil
	}
	cands, err := offer.Filter(ctx, doc, mach, pricing, g, 0, exclude)
	if err != nil {
		return nil, nil, err
	}
	// Memoize the built product too when it is small enough to hold: hits
	// then skip per-offer materialization entirely, not just the filter.
	var offers2 []offer.SystemOffer
	if cands.Offers() <= offercache.MaterializeLimit {
		if offers2, err = offer.FromCandidates(doc, cands, m.opts.MaxOffers); err != nil {
			return nil, nil, err
		}
	}
	m.cache.Store(key, docGen, pricingGen, cands, offers2)
	m.met.offerCacheEntries(m.cache.Len())
	return cands, offers2, nil
}

// classify runs steps 2–4: enumeration, classification parameters and
// classification, as one streaming pass over the (possibly memoized)
// candidate set that keeps only the top-K offers. An exclude filter (the
// quarantine set) drops variants on unhealthy servers before the product is
// built, so the pipeline exploits the paper's multi-server variant
// redundancy instead of burning commit attempts on dead replicas; exclHash
// names that exclusion world in the cache key.
func (m *Manager) classify(ctx context.Context, doc media.Document, docGen uint64, mach client.Machine, u profile.UserProfile, exclude func(media.Variant) bool, exclHash uint64, t *stepTimer) ([]offer.Ranked, error) {
	cands, prebuilt, err := m.candidateSet(ctx, doc, docGen, mach, u.Desired.Cost.Guarantee, exclude, exclHash)
	if err != nil {
		t.lap(telemetry.StepCompatibilityCheck)
		return nil, err
	}
	ranked, err := offer.TopKFromCandidates(ctx, doc, cands, u, offer.PipelineOptions{
		MaxOffers: m.opts.MaxOffers,
		TopK:      m.opts.topK(),
		Orderer:   m.opts.Classifier,
		Prebuilt:  prebuilt,
	})
	// The fused pipeline performs steps 2-4 in one streaming pass, so a
	// single classification lap covers compatibility checking,
	// classification parameters and classification.
	t.lap(telemetry.StepClassification)
	return ranked, err
}

// runProcedure executes steps 1–5 of Section 4. docGen is the registry
// generation doc was snapshotted at; the offer cache validates entries
// against it.
func (m *Manager) runProcedure(ctx context.Context, mach client.Machine, doc media.Document, docGen uint64, u profile.UserProfile) (negOutcome, error) {
	t := m.stepTimer()
	// Step 1: static local negotiation.
	if violations := mach.CheckLocal(u.Desired); len(violations) > 0 {
		local := mach.LocalOffer(u.Desired)
		t.lap(telemetry.StepLocalNegotiation)
		if m.opts.Tracer != nil {
			detail := violations[0].String()
			m.span(telemetry.Event{Step: telemetry.StepLocalNegotiation, Status: "failed", Detail: detail})
		}
		return negOutcome{
			status:     FailedWithLocalOffer,
			localOffer: &local,
			violations: violations,
			reason:     fmt.Sprintf("client machine cannot render the requested QoS: %v", violations[0]),
		}, nil
	}
	t.lap(telemetry.StepLocalNegotiation)

	// Steps 2–4: static compatibility checking, offer enumeration,
	// classification parameters and classification, in one streaming pass.
	// Variants on quarantined servers are excluded up front: the breaker
	// already has evidence they cannot commit.
	exclude, quarRemain, exclHash := m.quarantineExclude()
	ranked, err := m.classify(ctx, doc, docGen, mach, u, exclude, exclHash, &t)
	if err != nil {
		var nv *offer.NoVariantError
		if errors.As(err, &nv) {
			if nv.Excluded {
				// Decodable variants exist but every one lives on a
				// quarantined server: a transient shortage, not a
				// structural mismatch.
				if m.opts.Tracer != nil {
					detail := fmt.Sprintf("%s (all variants quarantined)", nv.Monomedia)
					m.span(telemetry.Event{Step: telemetry.StepClassification, Status: "no-variant", Detail: detail})
				}
				return negOutcome{
					status:     FailedTryLater,
					retryAfter: maxDuration(quarRemain, m.opts.Health.retryAfter()),
					reason:     fmt.Sprintf("every decodable variant of %s is on a quarantined server", nv.Monomedia),
				}, nil
			}
			m.span(telemetry.Event{Step: telemetry.StepClassification, Status: "no-variant", Detail: string(nv.Monomedia)})
			return negOutcome{
				status: FailedWithoutOffer,
				reason: fmt.Sprintf("no feasible physical configuration: %v", err),
			}, nil
		}
		return negOutcome{}, err
	}
	// Step 5: resource commitment, acceptable set first.
	var selOrder func([]PolicyCandidate) []int
	if m.opts.Selection != nil {
		selOrder = m.opts.Selection.OrderCommits
	}
	c, err := m.commitFirst(ctx, mach, doc, u, ranked, "", selOrder, "negotiate")
	if err != nil {
		return negOutcome{}, err
	}
	if c.ok {
		status := FailedWithOffer
		if c.chosen.Acceptable(u) {
			status = Succeeded
		}
		if selOrder != nil {
			// Chosen rank in classical order (the regret-proxy pair: a good
			// policy commits at low rank with few failed attempts).
			m.met.policyChosenRank(c.rank)
			m.met.policyRegret(c.downs + c.capacities + c.constraints + c.skipped)
		}
		t.lap(telemetry.StepCommitment)
		if m.opts.Tracer != nil {
			m.span(telemetry.Event{Step: telemetry.StepCommitment, Offer: c.chosen.Key(), Status: status.String()})
		}
		return negOutcome{status: status, ranked: ranked, chosen: c.chosen, commit: c.commit}, nil
	}
	t.lap(telemetry.StepCommitment)

	// Every feasible offer failed commitment. If each attempt hit a hard
	// profile constraint (start delay, sync tolerance), no retry can help:
	// there is no supportable configuration for this profile at all. Any
	// shortage or dead server, by contrast, is transient — FAILEDTRYLATER
	// with an honest retry hint.
	if m.opts.Tracer != nil {
		detail := fmt.Sprintf("%d feasible offers (%d server-down, %d capacity, %d constraint, %d skipped)",
			len(ranked), c.downs, c.capacities, c.constraints, c.skipped)
		m.span(telemetry.Event{Step: telemetry.StepCommitment, Status: "exhausted", Detail: detail})
	}
	if c.constraints > 0 && c.downs+c.capacities+c.skipped == 0 {
		return negOutcome{
			status: FailedWithoutOffer,
			ranked: ranked,
			reason: fmt.Sprintf("all %d feasible offers violate hard constraints of the profile", len(ranked)),
		}, nil
	}
	return negOutcome{
		status:     FailedTryLater,
		ranked:     ranked,
		retryAfter: maxDuration(c.retryAfter, maxDuration(quarRemain, m.opts.Health.retryAfter())),
		reason: fmt.Sprintf("no resources for any of %d feasible offers (%d server-down, %d capacity, %d constraint)",
			len(ranked), c.downs+c.skipped, c.capacities, c.constraints),
	}, nil
}

// commitResult is the outcome of one step-5 pass: the first offer that
// committed, if any, and a tally of the attempts that did not.
type commitResult struct {
	ok     bool
	chosen offer.Ranked
	commit commitment
	// rank is chosen's classical position in its set, for the policy
	// metrics; only set meaningfully when an ordering hook is installed.
	rank int
	// Failed attempts by cause (a down server counts once), offers skipped
	// for touching a down server, and the longest quarantine left on one.
	downs, capacities, constraints, skipped int
	retryAfter                              time.Duration
}

// commitFirst is step 5, shared by negotiation and adaptation: it attempts
// resource commitment for the ranked offers — "at first ... only the offers
// which satisfy the cost and the QoS requested by the user", then the others,
// "always in the order defined above" — and stops at the first that commits,
// passing over the offer keyed skipKey (the one an adaptation is leaving).
// A server that fails as down is attempted at most once per pass however a
// policy orders the attempts: the dead set keys on the server and marks it
// idempotently, so the bookkeeping is independent of iteration order.
//
// Without an ordering hook the one ranked slice is walked twice under the
// acceptable-set predicate; a hook permutes ties within each set, so the two
// sets are materialized for it. A canceled ctx returns its error.
func (m *Manager) commitFirst(ctx context.Context, mach client.Machine, doc media.Document, u profile.UserProfile, ranked []offer.Ranked, skipKey string, order func([]PolicyCandidate) []int, procedure string) (commitResult, error) {
	var c commitResult
	var dead map[media.ServerID]bool
	groups := [2][]offer.Ranked{ranked, ranked}
	if order != nil {
		groups[0], groups[1] = offer.Partition(ranked, u)
	}
	for pass, group := range groups {
		group, ranks := m.policyOrder(group, u.Desired.Cost.Guarantee, order, procedure)
		for i, r := range group {
			if order == nil && r.Acceptable(u) != (pass == 0) {
				continue
			}
			if skipKey != "" && r.Key() == skipKey {
				continue
			}
			if id, onDead := offerOnDead(r, dead); onDead {
				if m.opts.Tracer != nil {
					m.span(telemetry.Event{Step: telemetry.StepSkipDead, Offer: r.Key(), Server: string(id)})
				}
				m.met.skip()
				c.skipped++
				continue
			}
			cm, fail := m.tryCommit(ctx, mach, doc, u, r)
			if fail == nil {
				c.ok, c.chosen, c.commit, c.rank = true, r, cm, i
				if ranks != nil {
					c.rank = ranks[i]
				}
				return c, nil
			}
			ctxErr := ctx.Err()
			if m.opts.Tracer != nil {
				server, status, detail := string(fail.server), fail.cause.String(), fail.String()
				if ctxErr != nil {
					server, status, detail = "", "canceled", ctxErr.Error()
				}
				m.span(telemetry.Event{Step: telemetry.StepCommitment, Offer: r.Key(), Server: server, Status: status, Detail: detail})
			}
			if ctxErr != nil {
				return c, ctxErr
			}
			switch fail.cause {
			case CauseServerDown:
				if !dead[fail.server] {
					if dead == nil {
						dead = make(map[media.ServerID]bool)
					}
					dead[fail.server] = true
					c.downs++
				}
				if rem, ok := m.Quarantined(fail.server); ok && rem > c.retryAfter {
					c.retryAfter = rem
				}
			case CauseCapacity:
				c.capacities++
			case CauseConstraint:
				c.constraints++
			}
		}
	}
	return c, nil
}

// offerOnDead reports whether any choice of the offer is served by a
// server already seen down this negotiation.
func offerOnDead(r offer.Ranked, dead map[media.ServerID]bool) (media.ServerID, bool) {
	if len(dead) == 0 {
		return "", false
	}
	for _, ch := range r.Choices {
		if dead[ch.Variant.Server] {
			return ch.Variant.Server, true
		}
	}
	return "", false
}

// maxDuration returns the larger duration.
func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// choicePeriodFor resolves the confirmation window for a profile.
func (m *Manager) choicePeriodFor(u profile.UserProfile) time.Duration {
	if c := u.Desired.Time.ChoicePeriod; c > 0 {
		return c
	}
	return m.opts.ChoicePeriod
}

// NegotiateContext runs the negotiation procedure of Section 4 for the
// given client machine, document and user profile. The returned Result
// carries the negotiation status and, when resources were reserved, the
// session the user must confirm within the choice period.
//
// Canceling ctx aborts the pipeline between stages and rolls back any
// partially committed resources; the context's error is returned.
func (m *Manager) NegotiateContext(ctx context.Context, mach client.Machine, docID media.DocumentID, u profile.UserProfile) (Result, error) {
	doc, docGen, err := m.registry.Snapshot(docID)
	if err != nil {
		return Result{}, err
	}
	m.statsMu.Lock()
	m.stats.Requests++
	m.statsMu.Unlock()

	var begin time.Time
	if m.met != nil {
		begin = m.now()
	}
	out, err := m.runProcedure(ctx, mach, doc, docGen, u)
	if err != nil {
		return Result{}, err
	}
	if m.met != nil {
		m.met.observeNegotiation(m.now().Sub(begin))
	}
	m.count(out.status)
	if !out.status.Reserved() {
		return out.refusal(), nil
	}
	sess := &Session{
		Machine:      mach,
		Document:     doc.ID,
		Profile:      u,
		Current:      out.chosen,
		Ranked:       out.ranked,
		ChoicePeriod: m.choicePeriodFor(u),
		state:        Reserved,
		commit:       out.commit,
	}
	if m.met != nil || m.opts.Tracer != nil {
		sess.reservedAt = m.now()
	}
	m.sessMu.Lock()
	if m.opts.Shard != nil {
		sess.ID = m.opts.Shard.NextSessionID()
	} else {
		m.nextID++
		sess.ID = m.nextID
	}
	m.sessions[sess.ID] = sess
	m.sessMu.Unlock()
	uo := out.chosen.UserOffer()
	return Result{Status: out.status, Offer: &uo, Session: sess}, nil
}

// RenegotiateContext re-runs the negotiation procedure for a reserved
// session with a modified user profile: the GUI's "modify the offer and
// then push OK to initiate a renegotiation" (Section 8). The session's
// current reservation is released first; on success the same session holds
// the new offer and a fresh choice period, on failure (any non-reserved
// status) the session is aborted and the Result explains why. A canceled
// ctx aborts the session and returns the context's error.
//
// The procedure commits off-lock, so the choice-period time-out (or a
// concurrent Reject/Abort) can end the session mid-renegotiation. The
// epoch guard resolves the race leak-free: the terminal transition wins,
// the freshly committed resources are released instead of installed, and
// ErrChoicePeriodExpired (or ErrBadState) is returned.
func (m *Manager) RenegotiateContext(ctx context.Context, id SessionID, u profile.UserProfile) (Result, error) {
	s, err := m.Session(id)
	if err != nil {
		return Result{}, err
	}
	s.mu.Lock()
	if s.state != Reserved {
		defer s.mu.Unlock()
		if s.expired {
			return Result{}, fmt.Errorf("%w: session %d", ErrChoicePeriodExpired, id)
		}
		return Result{}, fmt.Errorf("%w: renegotiate in state %v", ErrBadState, s.state)
	}
	if s.busy {
		s.mu.Unlock()
		return Result{}, fmt.Errorf("%w: renegotiation or adaptation already in flight on session %d", ErrBadState, id)
	}
	// Open the unlock window: withdraw the commitment under the epoch
	// guard. Every return path below must clear busy.
	s.busy = true
	s.epoch++
	epoch := s.epoch
	mach := s.Machine
	docID := s.Document
	old := s.commit
	s.commit = commitment{}
	s.mu.Unlock()

	// Release the old configuration first so the fresh offer can re-use
	// its capacity.
	m.release(old)
	m.hookUnlocked("renegotiate", id)

	doc, docGen, err := m.registry.Snapshot(docID)
	if err != nil {
		m.abortWindow(s, epoch, Reserved)
		return Result{}, err
	}

	m.statsMu.Lock()
	m.stats.Requests++
	m.statsMu.Unlock()
	var begin time.Time
	if m.met != nil {
		begin = m.now()
	}
	out, err := m.runProcedure(ctx, mach, doc, docGen, u)
	if err != nil {
		m.abortWindow(s, epoch, Reserved)
		return Result{}, err
	}
	if m.met != nil {
		m.met.observeNegotiation(m.now().Sub(begin))
	}
	m.count(out.status)
	if !out.status.Reserved() {
		m.abortWindow(s, epoch, Reserved)
		return out.refusal(), nil
	}
	s.mu.Lock()
	if s.state != Reserved || s.epoch != epoch {
		// A concurrent transition — the choice-period time-out firing
		// Expire, a Reject, an Abort — ended the session while it was
		// unlocked. Installing now would strand the fresh reservations on
		// a terminal session forever; release them instead.
		expired := s.expired
		st := s.state
		s.busy = false
		s.mu.Unlock()
		m.release(out.commit)
		m.recordStaleInstall("renegotiate", id, st)
		if expired {
			return Result{}, fmt.Errorf("%w: session %d expired during renegotiation", ErrChoicePeriodExpired, id)
		}
		return Result{}, fmt.Errorf("%w: session %d moved to %v during renegotiation", ErrBadState, id, st)
	}
	s.Profile = u
	s.Current = out.chosen
	s.Ranked = out.ranked
	s.ChoicePeriod = m.choicePeriodFor(u)
	s.commit = out.commit
	s.epoch++
	s.busy = false
	if m.met != nil || m.opts.Tracer != nil {
		s.reservedAt = m.now()
	}
	s.mu.Unlock()
	uo := out.chosen.UserOffer()
	return Result{Status: out.status, Offer: &uo, Session: s}, nil
}

func (m *Manager) count(s NegotiationStatus) {
	m.met.outcome(s)
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	switch s {
	case Succeeded:
		m.stats.Succeeded++
	case FailedWithOffer:
		m.stats.FailedWithOffer++
	case FailedTryLater:
		m.stats.FailedTryLater++
	case FailedWithoutOffer:
		m.stats.FailedWithoutOffer++
	case FailedWithLocalOffer:
		m.stats.FailedWithLocalOffer++
	}
}

// serverFor looks up a registered server under the read lock.
func (m *Manager) serverFor(id media.ServerID) (serverEntry, bool) {
	m.srvMu.RLock()
	defer m.srvMu.RUnlock()
	entry, ok := m.servers[id]
	return entry, ok
}

// tryCommit reserves server and network resources for every choice of the
// offer. It either commits everything (nil failure) or rolls back and
// reports a typed failure cause: server-down, capacity shortage, hard
// constraint, or cancellation. Server-attributable failures also feed the
// circuit breaker, so quarantines accrue no matter which entry point
// (negotiate, renegotiate, adapt) drove the attempt.
func (m *Manager) tryCommit(ctx context.Context, mach client.Machine, doc media.Document, u profile.UserProfile, r offer.Ranked) (commitment, *commitFailure) {
	var cm commitment
	rollback := func() {
		for _, sr := range cm.servers {
			sr.server.Release(sr.res.ID)
		}
		for _, c := range cm.conns {
			m.transport.Close(c)
		}
	}
	fail := func(cause FailureCause, server media.ServerID, op string, err error) (commitment, *commitFailure) {
		rollback()
		f := &commitFailure{cause: cause, server: server, op: op, err: err}
		m.recordCommitFailure(f)
		m.observeCommit(server, u.Desired.Cost.Guarantee, cause, 0)
		return commitment{}, f
	}
	var startDelay time.Duration
	jitterByMono := make(map[media.MonomediaID]time.Duration, len(r.Choices))
	for _, ch := range r.Choices {
		if err := ctx.Err(); err != nil {
			rollback()
			return commitment{}, &commitFailure{cause: CauseCanceled, err: err}
		}
		sid := ch.Variant.Server
		// Snapshot the evidence generation before the quarantine check: a
		// quarantine that trips between the two must outlive this success.
		healthGen := m.serverHealthGen(sid)
		if rem, ok := m.Quarantined(sid); ok {
			// No new evidence — the breaker already tripped — so this is
			// not recorded against the server again.
			rollback()
			return commitment{}, &commitFailure{
				cause:  CauseServerDown,
				server: sid,
				err:    fmt.Errorf("%w: %s quarantined for %s", ErrServerDown, sid, rem.Round(time.Millisecond)),
			}
		}
		entry, ok := m.serverFor(sid)
		if !ok {
			return fail(CauseServerDown, sid, "reserve", fmt.Errorf("%w: %s not registered", ErrServerDown, sid))
		}
		netQoS := ch.Variant.NetworkQoS()
		var began time.Time
		if len(m.observers) > 0 {
			began = m.now()
		}
		res, err := entry.server.Reserve(netQoS)
		if err != nil {
			cause := CauseCapacity
			if errors.Is(err, ErrServerDown) {
				cause = CauseServerDown
			}
			return fail(cause, sid, "reserve", fmt.Errorf("reserve on %s: %w", sid, err))
		}
		cm.servers = append(cm.servers, serverReservation{server: entry.server, res: res})
		conn, err := m.transport.Connect(entry.node, mach.Node, netQoS)
		if err != nil {
			cause := CauseCapacity
			if errors.Is(err, ErrServerDown) {
				cause = CauseServerDown
			}
			return fail(cause, sid, "connect", fmt.Errorf("connect %s -> %s: %w", entry.node, mach.Node, err))
		}
		cm.conns = append(cm.conns, conn)
		m.recordServerSuccess(sid, healthGen)
		if len(m.observers) > 0 {
			m.observeCommit(sid, u.Desired.Cost.Guarantee, CauseNone, m.now().Sub(began))
		}
		if d := conn.Metrics.Delay + entry.server.Config().RoundLength; d > startDelay {
			startDelay = d
		}
		if !netQoS.Zero() {
			jitterByMono[ch.Monomedia] = conn.Metrics.Jitter
		}
	}
	// Time profile: the committed configuration must be able to start the
	// presentation within the user's start-delay bound.
	if max := u.Desired.Time.MaxStartDelay; max > 0 && startDelay > max {
		return fail(CauseConstraint, "", "",
			fmt.Errorf("start delay %s exceeds profile bound %s", startDelay, max))
	}
	// Synchronization feasibility: for every temporal constraint with a
	// skew tolerance, the committed paths' combined jitter — the bound the
	// synchronization protocol must compensate [Lam 94] — must fit the
	// tolerance; otherwise this configuration cannot hold lip-sync.
	for _, tc := range doc.Temporal {
		if tc.Tolerance <= 0 {
			continue
		}
		ja, okA := jitterByMono[tc.A]
		jb, okB := jitterByMono[tc.B]
		if okA && okB && ja+jb > tc.Tolerance {
			return fail(CauseConstraint, "", "",
				fmt.Errorf("combined jitter %s exceeds sync tolerance %s between %s and %s", ja+jb, tc.Tolerance, tc.A, tc.B))
		}
	}
	return cm, nil
}

// release frees a session's committed resources.
func (m *Manager) release(cm commitment) {
	for _, sr := range cm.servers {
		sr.server.Release(sr.res.ID)
	}
	for _, c := range cm.conns {
		m.transport.Close(c)
	}
}

// Confirm is step 6's acceptance: the session moves from Reserved to
// Playing and the presentation starts. Confirming after the choice period
// was enforced returns ErrChoicePeriodExpired.
func (m *Manager) Confirm(id SessionID) error {
	s, err := m.Session(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != Reserved {
		if s.expired {
			return fmt.Errorf("%w: session %d", ErrChoicePeriodExpired, id)
		}
		return fmt.Errorf("%w: confirm in state %v", ErrBadState, s.state)
	}
	if s.busy {
		// Mid-renegotiation the session holds no resources to start the
		// presentation on; confirming would play a configuration that is
		// being replaced underneath it.
		return fmt.Errorf("%w: renegotiation in flight on session %d", ErrBadState, id)
	}
	s.state = Playing
	s.epoch++
	// Step 6's latency: how long the user deliberated before accepting
	// the reserved configuration.
	if !s.reservedAt.IsZero() {
		d := m.now().Sub(s.reservedAt)
		m.met.step(telemetry.StepConfirmation).Observe(d)
		m.span(telemetry.Event{Step: telemetry.StepConfirmation, Elapsed: d})
	}
	return nil
}

// Reject is step 6's rejection: reserved resources are de-allocated and the
// session is aborted.
func (m *Manager) Reject(id SessionID) error {
	return m.expireOrReject(id, false)
}

// Expire is step 6's time-out: like Reject, but the session is marked
// expired so later Confirm/Reject/Renegotiate calls report
// ErrChoicePeriodExpired instead of a bare state error. The protocol
// server's choice-period timers call it.
func (m *Manager) Expire(id SessionID) error {
	return m.expireOrReject(id, true)
}

func (m *Manager) expireOrReject(id SessionID, expire bool) error {
	s, err := m.Session(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.state != Reserved {
		defer s.mu.Unlock()
		if s.expired {
			return fmt.Errorf("%w: session %d", ErrChoicePeriodExpired, id)
		}
		return fmt.Errorf("%w: reject in state %v", ErrBadState, s.state)
	}
	s.expired = expire
	cm := s.end(Aborted)
	s.mu.Unlock()
	m.release(cm)
	m.retire(s)
	return nil
}

// Advance moves a playing session's position forward; the playout driver
// (package session) calls it as virtual time passes.
func (m *Manager) Advance(id SessionID, dt time.Duration) error {
	s, err := m.Session(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != Playing {
		return fmt.Errorf("%w: advance in state %v", ErrBadState, s.state)
	}
	s.position += dt
	return nil
}

// Complete finishes a playing session and releases its resources.
func (m *Manager) Complete(id SessionID) error {
	s, err := m.Session(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.state != Playing {
		st := s.state
		s.mu.Unlock()
		return fmt.Errorf("%w: complete in state %v", ErrBadState, st)
	}
	cm := s.end(Completed)
	price := s.Current.Total()
	s.mu.Unlock()
	m.release(cm)
	m.retire(s)
	m.met.addRevenue(int64(price))
	m.statsMu.Lock()
	m.stats.Revenue += price
	m.statsMu.Unlock()
	return nil
}

// Abort terminates a session in any live state and releases its resources.
func (m *Manager) Abort(id SessionID) error {
	s, err := m.Session(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.state.terminal() {
		s.mu.Unlock()
		return nil
	}
	cm := s.end(Aborted)
	s.mu.Unlock()
	m.release(cm)
	m.retire(s)
	return nil
}

// Session returns the session with the given id: the live session, or one
// rendered from its tombstone while the id is among the last TombstoneRing
// retired. Older ids are unknown.
func (m *Manager) Session(id SessionID) (*Session, error) {
	m.sessMu.RLock()
	defer m.sessMu.RUnlock()
	if s, ok := m.sessions[id]; ok {
		return s, nil
	}
	for i := range m.tombs {
		if m.tombs[i].id == id {
			return m.tombs[i].session(), nil
		}
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownSession, id)
}

// Sessions returns every session in a given state; for the terminal states
// that is the retired sessions still in the tombstone ring.
func (m *Manager) Sessions(state SessionState) []*Session {
	m.sessMu.RLock()
	defer m.sessMu.RUnlock()
	var out []*Session
	for _, s := range m.sessions {
		if s.State() == state {
			out = append(out, s)
		}
	}
	if state.terminal() {
		for i := range m.tombs {
			if m.tombs[i].state == state {
				out = append(out, m.tombs[i].session())
			}
		}
	}
	return out
}

// LiveSessions returns how many sessions are reserved or playing.
func (m *Manager) LiveSessions() int {
	m.sessMu.RLock()
	defer m.sessMu.RUnlock()
	return len(m.sessions)
}

// ServerLoad is one row of ServerLoads: current load plus the circuit
// breaker's view of the server's health.
type ServerLoad struct {
	ID            media.ServerID `json:"id"`
	ActiveStreams int            `json:"activeStreams"`
	Utilization   float64        `json:"utilization"`
	// Quarantined is true while the circuit breaker holds the server out
	// of classification and commitment; QuarantineMs is the remaining
	// cooldown.
	Quarantined  bool  `json:"quarantined,omitempty"`
	QuarantineMs int64 `json:"quarantineMs,omitempty"`
	// ConsecutiveFailures counts commit failures since the last success;
	// the remaining counters break failures down by cause and operation.
	ConsecutiveFailures int `json:"consecutiveFailures,omitempty"`
	DownFailures        int `json:"downFailures,omitempty"`
	ReserveFailures     int `json:"reserveFailures,omitempty"`
	ConnectFailures     int `json:"connectFailures,omitempty"`
	Quarantines         int `json:"quarantines,omitempty"`
}

// ServerLoads reports each registered media server's current load and
// breaker health, sorted by id; the ops view behind `qosctl servers`.
func (m *Manager) ServerLoads() []ServerLoad {
	m.srvMu.RLock()
	entries := make([]serverEntry, 0, len(m.servers))
	for _, e := range m.servers {
		entries = append(entries, e)
	}
	m.srvMu.RUnlock()
	out := make([]ServerLoad, 0, len(entries))
	for _, e := range entries {
		row := ServerLoad{
			ID:            e.server.ID(),
			ActiveStreams: e.server.ActiveStreams(),
			Utilization:   e.server.Utilization(),
		}
		m.healthSnapshot(&row)
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Invoice itemizes the committed offer of a live session: one line per
// continuous monomedia with its negotiated rate and playout length, plus
// the copyright fee — the statement behind the cost figure the information
// window displays. A terminal session keeps its price (Session.Cost) but not
// the choices an itemization needs, and answers ErrBadState.
func (m *Manager) Invoice(id SessionID) (cost.Invoice, error) {
	s, err := m.Session(id)
	if err != nil {
		return cost.Invoice{}, err
	}
	if st := s.State(); st.terminal() {
		return cost.Invoice{}, fmt.Errorf("%w: invoice in state %v", ErrBadState, st)
	}
	doc, err := m.registry.Document(s.Document)
	if err != nil {
		return cost.Invoice{}, err
	}
	current := s.CurrentOffer()
	var labels []string
	var items []cost.Item
	for _, ch := range current.Choices {
		mono, ok := doc.Component(ch.Monomedia)
		if !ok || !mono.Kind.Continuous() {
			continue
		}
		labels = append(labels, string(ch.Monomedia))
		items = append(items, cost.Item{
			Rate:     ch.Variant.NetworkQoS().AvgBitRate,
			Duration: mono.Duration,
		})
	}
	guarantee := s.Profile.Desired.Cost.Guarantee
	pricing, _ := m.pricingSnapshot()
	return pricing.Invoice(string(doc.ID), cost.Money(doc.CopyrightFee), guarantee, labels, items), nil
}
