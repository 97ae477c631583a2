package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qosneg/internal/admission"
	"qosneg/internal/client"
	"qosneg/internal/clock"
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
	// MaxOffers bounds offer enumeration.
	MaxOffers int
	// PathAlternates is the k of the transport's path search: each stream
	// gets the best (fewest hops, then largest bottleneck) of the first
	// 4k feasible paths the search finds, chosen and reserved in one step.
	PathAlternates int
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
	// Admission, when non-nil, gates NegotiateContext and
	// RenegotiateContext before step 1: refused work is answered
	// FAILEDTRYLATER with the controller's load-derived RetryAfter hint and
	// Result.Shed set, without touching a resource, and is counted among
	// the FAILEDTRYLATER outcomes (Stats, the outcome series). Nil disables
	// admission control at the cost of one nil check.
	Admission *admission.Controller
	// Policy, when non-nil, orders both step 5's commitment attempts and
	// the adaptation procedure's targets among offers the classifier ranked
	// equal — same Status, same OIF — and nothing else, so classification
	// stays normative (see policy.go). It reads the server table's record
	// of every commit outcome and keeps none of its own. Nil keeps the
	// paper's fixed tie-break order byte-for-byte at zero cost.
	Policy Policy
}

// DefaultTopK is how many classified offers a negotiation retains: enough
// alternates for step 5's fallback commitment and the adaptation procedure,
// without holding a 2^20-offer product per session.
const DefaultTopK = 64

// DefaultChoicePeriod is the confirmation window when the user profile does
// not set one (Section 8).
const DefaultChoicePeriod = 30 * time.Second

// DefaultOptions returns the options used by the examples: SNS-primary
// classification and 3 path alternates.
func DefaultOptions() Options {
	return Options{
		Classifier:     offer.SNSPrimary{},
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
//
// Plan is step 5's side-effect-free admission test: it answers what Reserve
// would if the streams p tallies were already reserved, and returns the
// tally with this stream added. It must reserve nothing and allocate
// nothing, admitted or refused: an admission refusal is the bare
// cmfs.ErrAdmission with a plan whose Refusal holds the figures, which step
// 5 keeps as numbers and renders only for a tracer. Any other error is kept
// as it is.
type MediaServer interface {
	ID() media.ServerID
	Config() cmfs.Config
	Plan(q qos.NetworkQoS, p cmfs.Plan) (cmfs.Plan, error)
	Reserve(q qos.NetworkQoS) (cmfs.Reservation, error)
	Release(id cmfs.ReservationID) error
	ActiveStreams() int
	Utilization() float64
}

// Transport is the connection-establishment surface the manager commits
// against. *transport.System implements it; the fault injector wraps it to
// simulate partitions and connect failures.
//
// Plan is Connect without the reservation: it answers what Connect would if
// the connections p tallies were already established, extending p in place
// by the route Connect would take and returning that connection's metrics;
// a refusal leaves p as it was. It must reserve nothing and allocate
// nothing unless it refuses.
type Transport interface {
	Plan(src, dst network.NodeID, q qos.NetworkQoS, p *network.Plan) (network.PathMetrics, error)
	Connect(src, dst network.NodeID, q qos.NetworkQoS) (transport.Connection, error)
	Close(c transport.Connection) error
}

// Manager is the QoS manager: it owns the negotiation procedure, the
// session table and the adaptation procedure. It is safe for concurrent
// use: the negotiation pipeline runs lock-free, and independent
// negotiations from different clients proceed concurrently — the manager's
// locks only cover the session table and the server table, each
// separately; the outcome counters are atomics.
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
	// met holds the push metric series; all nil when Options.Metrics is.
	met negMetrics
	// count is the outcome counters, which Stats and the registry read.
	count counts
	// clk is the clock the breaker and latency metrics read; tests set Sim.
	clk clock.Clock
	// carries recycles step 5's plan carries across passes.
	carries carryList
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

	// servers is the media servers and their circuit breaker.
	servers *ServerTable
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
	// AdmissionSheds counts requests the admission controller refused
	// before step 1, here or at the protocol server's gate; each is also
	// counted under Requests and FailedTryLater, since the caller saw a
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
	m := &Manager{
		registry:  reg,
		transport: ts,
		pricing:   pricing,
		opts:      opts,
		clk:       clock.Wall{},
		servers:   newServerTable(),
		sessions:  make(map[SessionID]*Session),
	}
	if opts.OfferCache >= 0 {
		m.cache = offercache.New(opts.OfferCache)
	}
	m.instrument(opts.Metrics)
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
	m.servers.add(s, node)
}

// Stats returns a snapshot of the outcome counters and the offer cache's.
// Requests is derived, not counted: every request ends in one outcome or
// one admission shed, so a negotiation canceled mid-run is no request.
func (m *Manager) Stats() Stats {
	c := &m.count
	n := func(v *atomic.Int64) int { return int(v.Load()) }
	sheds := int(m.opts.Admission.Stats().Sheds)
	st := Stats{
		Succeeded:            n(&c.outcomes[Succeeded]),
		FailedWithOffer:      n(&c.outcomes[FailedWithOffer]),
		FailedTryLater:       n(&c.outcomes[FailedTryLater]) + sheds,
		FailedWithoutOffer:   n(&c.outcomes[FailedWithoutOffer]),
		FailedWithLocalOffer: n(&c.outcomes[FailedWithLocalOffer]),
		Adaptations:          n(&c.adaptations[adaptOK]),
		AdaptationFailures:   n(&c.adaptations[adaptFailed]),
		CommitServerDown:     n(&c.commitFailures[CauseServerDown]),
		CommitCapacity:       n(&c.commitFailures[CauseCapacity]),
		CommitConstraint:     n(&c.commitFailures[CauseConstraint]),
		Quarantines:          m.servers.quarantines(),
		AdmissionSheds:       sheds,
		Revenue:              cost.Money(c.revenue.Load()),
	}
	st.Requests = st.Succeeded + st.FailedWithOffer + st.FailedTryLater + st.FailedWithoutOffer + st.FailedWithLocalOffer
	for i := range c.staleInstalls {
		st.StaleInstalls += n(&c.staleInstalls[i])
	}
	if m.cache != nil {
		cs := m.cache.Stats()
		st.OfferCacheHits = int(cs.Hits)
		st.OfferCacheMisses = int(cs.Misses)
		st.OfferCacheInvalidations = int(cs.Invalidations)
		st.OfferCacheEntries = int(cs.Entries)
	}
	return st
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
// that is the retired sessions still in the tombstone ring. The result is
// allocated once, at the first match, to fit every candidate; with no match
// it is nil.
func (m *Manager) Sessions(state SessionState) []*Session {
	m.sessMu.RLock()
	defer m.sessMu.RUnlock()
	var out []*Session
	add := func(s *Session) {
		if out == nil {
			n := len(m.sessions)
			if state.terminal() {
				n += len(m.tombs)
			}
			out = make([]*Session, 0, n)
		}
		out = append(out, s)
	}
	for _, s := range m.sessions {
		if s.State() == state {
			add(s)
		}
	}
	if state.terminal() {
		for i := range m.tombs {
			if m.tombs[i].state == state {
				add(m.tombs[i].session())
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
	ID            media.ServerID
	ActiveStreams int
	Utilization   float64
	// Quarantined is true while the circuit breaker holds the server out
	// of classification and commitment; QuarantineMs is the remaining
	// cooldown.
	Quarantined  bool
	QuarantineMs int64
	// ConsecutiveFailures counts commit failures since the last success;
	// the remaining counters break failures down by cause and operation.
	ConsecutiveFailures int
	DownFailures        int
	ReserveFailures     int
	ConnectFailures     int
	Quarantines         int
}

// ServerLoads reports each registered media server's current load and
// breaker health, sorted by id: the in-process view of the server table,
// which the telemetry series behind `qosctl servers` are checked against.
func (m *Manager) ServerLoads() []ServerLoad {
	return m.servers.loads(m.clk)
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
	s.mu.Lock()
	current, guarantee := s.Current, s.terms.guarantee
	s.mu.Unlock()
	var labels []string
	var items []cost.Item
	for _, ch := range current.Choices {
		mono, ok := doc.Component(ch.Monomedia)
		if !ok || !mono.Kind.Continuous() {
			continue
		}
		labels = append(labels, string(ch.Monomedia))
		items = append(items, cost.Item{
			Rate:     streamQoS(ch.Variant).AvgBitRate,
			Duration: mono.Duration,
		})
	}
	pricing, _ := m.pricingSnapshot()
	return pricing.Invoice(string(doc.ID), cost.Money(doc.CopyrightFee), guarantee, labels, items), nil
}
