package shard

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qosneg/internal/admission"
	"qosneg/internal/client"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/profile"
	"qosneg/internal/registry"
	"qosneg/internal/telemetry"
)

// Config parameterizes New.
type Config struct {
	// Shards is the number of manager shards (minimum 1).
	Shards int
	// Registry is the primary document/variant catalog. The fleet installs
	// its replication hook on it and gives every shard its own replica, so
	// catalog mutations made through this registry reach each shard before
	// it answers its next routed request.
	Registry *registry.Registry
	// Transport is the (shared) connection-establishment substrate; every
	// shard commits against the same network, so capacity admission stays
	// global.
	Transport core.Transport
	// Pricing is the initial tariff.
	Pricing cost.Pricing
	// Options is the per-shard manager configuration; the fleet installs
	// each shard's handle as Options.Shard on that shard's copy.
	Options core.Options
	// Admission, when non-nil, gates negotiation-class work once at the
	// router, before routing: refused work is answered FAILEDTRYLATER with
	// the controller's load-derived RetryAfter hint and Result.Shed set,
	// without reaching a shard. Nil disables admission control at zero cost.
	Admission *admission.Controller
}

// shardHandle is one manager shard plus its replication cursor. It is the
// shard's core.ShardHooks: metric label, session-id allocator and
// breaker-trip publisher.
type shardHandle struct {
	fleet   *Fleet
	idx     int
	mgr     *core.Manager
	replica *registry.Registry

	// applyMu serializes bus replay into this shard; applied[t] is the
	// highest sequence of topic t this shard has applied (atomic, so the
	// caught-up fast path is lock-free).
	applyMu sync.Mutex
	applied [numTopics]atomic.Uint64

	// idMu guards the session-id scan cursor.
	idMu   sync.Mutex
	lastID uint64

	// policy is this shard's forked policy instance when the configured
	// selection policy shares learned state; bus replay merges sibling
	// summaries into it.
	policy core.PolicySharer
}

// Fleet fronts N independent core.Manager shards behind consistent-hash
// session routing. New negotiations are placed round-robin; every
// session-addressed operation routes by jump-hashing the session id, which
// lands on the shard that allocated it because each shard only allocates
// ids from its own hash partition. Fleet implements core.SessionManager, so
// everything built against the manager surface works against a fleet
// unchanged.
type Fleet struct {
	shards  []*shardHandle
	primary *registry.Registry
	bus     *bus
	// adm, when non-nil, gates negotiation-class work once at the router.
	adm *admission.Controller
	rr  atomic.Uint64
	met *fleetMetrics

	// statsMu guards the router-level shed counters, which have no home
	// shard (a shed request is refused before routing).
	statsMu sync.Mutex
	shed    core.Stats
}

// Fleet must keep satisfying the manager surface.
var _ core.SessionManager = (*Fleet)(nil)

// New builds a fleet of cfg.Shards managers over the shared substrate. Each
// shard gets its own registry replica (seeded from the primary), its own
// offer cache and breaker state, and a disjoint session-id partition; the
// media servers registered later via AddServer are shared, so disk-round and
// network admission stay global.
func New(cfg Config) *Fleet {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	f := &Fleet{
		primary: cfg.Registry,
		bus:     &bus{},
		adm:     cfg.Admission,
		met:     newFleetMetrics(cfg.Options.Metrics, n),
	}
	for i := 0; i < n; i++ {
		sh := &shardHandle{fleet: f, idx: i, replica: registry.New()}
		opts := cfg.Options
		opts.Shard = sh
		// A forkable selection policy splits into per-shard instances: each
		// shard learns lock-free from its own commits, and instances that
		// share state exchange additive summaries over the policy topic.
		if forker, ok := opts.Selection.(core.PolicyForker); ok {
			forked := forker.ForkPolicy(i)
			sameObject := any(opts.Adaptation) == any(opts.Selection)
			opts.Selection = forked
			if sameObject {
				if ad, ok := forked.(core.AdaptationPolicy); ok {
					opts.Adaptation = ad
				}
			}
			if sharer, ok := forked.(core.PolicySharer); ok {
				sh.policy = sharer
				if n > 1 {
					sharer.SetShareHook(func(sums []core.PolicySummary) {
						f.publishPolicy(sh.idx, sums)
					})
				}
			}
		}
		sh.mgr = core.NewManager(sh.replica, cfg.Transport, cfg.Pricing, opts)
		f.shards = append(f.shards, sh)
	}
	for _, sh := range f.shards {
		f.resync(sh)
	}
	cfg.Registry.SetReplicaHook(func(id media.DocumentID, full bool) {
		f.bus.publish(topicRegistry, event{doc: id, full: full})
		f.met.published(topicRegistry)
		f.met.lagGauge(f.busLag())
	})
	return f
}

// Shards returns the shard count.
func (f *Fleet) Shards() int { return len(f.shards) }

// Label is the shard's index, the "shard" label of its latency series.
func (sh *shardHandle) Label() string { return strconv.Itoa(sh.idx) }

// NextSessionID scans upward from the shard's last id to the next id that
// jump-hashes home. The partitions {id : shardOf(id)=i} are disjoint across
// shards, so ids are fleet-unique without coordination; the expected scan
// length is the shard count. With one shard every id matches, so a
// single-shard fleet allocates 1, 2, 3, … exactly like a bare manager.
func (sh *shardHandle) NextSessionID() core.SessionID {
	n := len(sh.fleet.shards)
	sh.idMu.Lock()
	defer sh.idMu.Unlock()
	for {
		sh.lastID++
		if shardOf(core.SessionID(sh.lastID), n) == sh.idx {
			return core.SessionID(sh.lastID)
		}
	}
}

// PublishQuarantine broadcasts one breaker trip. Single-shard fleets skip
// the bus: there is no sibling to inform.
func (sh *shardHandle) PublishQuarantine(id media.ServerID, until time.Time) {
	f := sh.fleet
	if len(f.shards) == 1 {
		return
	}
	f.bus.publish(topicHealth, event{origin: sh.idx, server: id, until: until})
	f.met.published(topicHealth)
	f.met.lagGauge(f.busLag())
}

// publishPolicy broadcasts one shard's learned-policy deltas. Like health,
// single-shard fleets skip the bus: there is no sibling to teach.
func (f *Fleet) publishPolicy(origin int, sums []core.PolicySummary) {
	if len(f.shards) == 1 || len(sums) == 0 {
		return
	}
	f.bus.publish(topicPolicy, event{origin: origin, sums: sums})
	f.met.published(topicPolicy)
	f.met.lagGauge(f.busLag())
}

// catchUp replays any bus entries shard sh has not applied yet, in
// per-topic publication order. The fast path — shard already at every topic
// head — is numTopics atomic-load pairs and no lock. Replay applies topics
// in a fixed order (registry, pricing, health, policy) under the shard's apply
// mutex, so concurrent routed calls to the same shard never interleave
// partial replays.
func (f *Fleet) catchUp(sh *shardHandle) {
	behind := false
	for t := topic(0); t < numTopics; t++ {
		if sh.applied[t].Load() != f.bus.head[t].Load() {
			behind = true
			break
		}
	}
	if !behind {
		return
	}
	sh.applyMu.Lock()
	for t := topic(0); t < numTopics; t++ {
		from := sh.applied[t].Load()
		evs, upTo := f.bus.since(t, from)
		if len(evs) == 0 {
			continue
		}
		for i := range evs {
			f.apply(sh, t, &evs[i])
		}
		sh.applied[t].Store(upTo)
		f.trimTopic(t)
	}
	sh.applyMu.Unlock()
	f.met.lagGauge(f.busLag())
}

// apply installs one bus event on a shard.
func (f *Fleet) apply(sh *shardHandle, t topic, ev *event) {
	switch t {
	case topicRegistry:
		if ev.full {
			f.resync(sh)
			return
		}
		// Re-reading the primary (rather than shipping the document in the
		// event) is deliberate: a later mutation of the same document makes
		// the earlier replay idempotently install the newest snapshot, and
		// the replica's generation stamp always equals the primary's.
		d, gen, err := f.primary.Snapshot(ev.doc)
		if err != nil {
			sh.replica.RemoveReplica(ev.doc)
			return
		}
		sh.replica.ApplyReplica(d, gen)
	case topicPricing:
		sh.mgr.SetPricing(ev.pricing)
	case topicHealth:
		if ev.origin != sh.idx {
			sh.mgr.ApplyQuarantine(ev.server, ev.until)
		}
	case topicPolicy:
		if ev.origin != sh.idx && sh.policy != nil {
			sh.policy.MergePolicy(ev.sums)
		}
	}
}

// resync replaces a shard's replica contents with the primary's current
// catalog, preserving the primary's generation stamps.
func (f *Fleet) resync(sh *shardHandle) {
	want := make(map[media.DocumentID]bool)
	for _, id := range f.primary.List() {
		want[id] = true
		if d, gen, err := f.primary.Snapshot(id); err == nil {
			sh.replica.ApplyReplica(d, gen)
		}
	}
	for _, id := range sh.replica.List() {
		if !want[id] {
			sh.replica.RemoveReplica(id)
		}
	}
}

// trimTopic drops the bus prefix every shard has applied.
func (f *Fleet) trimTopic(t topic) {
	min := ^uint64(0)
	for _, sh := range f.shards {
		if a := sh.applied[t].Load(); a < min {
			min = a
		}
	}
	f.bus.trim(t, min)
}

// busLag is the total number of unapplied (topic, shard) entries: the sum
// over topics of head minus the slowest shard's applied sequence.
func (f *Fleet) busLag() uint64 {
	var lag uint64
	for t := topic(0); t < numTopics; t++ {
		head := f.bus.head[t].Load()
		min := head
		for _, sh := range f.shards {
			if a := sh.applied[t].Load(); a < min {
				min = a
			}
		}
		lag += head - min
	}
	return lag
}

// Sync forces every shard to apply all pending bus entries; tests and
// wind-down paths use it to make replication externally observable without
// routing a request.
func (f *Fleet) Sync() {
	for _, sh := range f.shards {
		f.catchUp(sh)
	}
}

// route resolves the home shard of a session id, catches it up on the bus,
// and returns its manager. Unknown ids route like known ones: the home
// shard is the only shard that could ever hold the session, so its
// ErrUnknownSession answer is authoritative.
func (f *Fleet) route(id core.SessionID) *core.Manager {
	sh := f.shards[shardOf(id, len(f.shards))]
	f.met.routed(sh.idx)
	f.catchUp(sh)
	return sh.mgr
}

// place picks the shard for a new negotiation round-robin — no session id
// exists yet to hash, and round-robin keeps the fleet evenly loaded.
func (f *Fleet) place() *shardHandle {
	sh := f.shards[int(f.rr.Add(1)-1)%len(f.shards)]
	f.met.routed(sh.idx)
	return sh
}

// shedResult books one router-level admission refusal.
func (f *Fleet) shedResult(retry time.Duration) core.Result {
	f.statsMu.Lock()
	f.shed.Requests++
	f.shed.AdmissionSheds++
	f.shed.FailedTryLater++
	f.statsMu.Unlock()
	f.met.outcome(core.FailedTryLater)
	return core.Result{
		Status:     core.FailedTryLater,
		Reason:     "admission control: manager overloaded",
		RetryAfter: retry,
		Shed:       true,
	}
}

// NegotiateContext gates the request through the router's admission
// controller, places it on the next shard round-robin, catches that shard
// up on the update bus and runs the procedure there.
func (f *Fleet) NegotiateContext(ctx context.Context, mach client.Machine, doc media.DocumentID, u profile.UserProfile) (core.Result, error) {
	release, retry, admitted := f.adm.Admit()
	if !admitted {
		return f.shedResult(retry), nil
	}
	if release != nil {
		defer release()
	}
	sh := f.place()
	f.catchUp(sh)
	return sh.mgr.NegotiateContext(ctx, mach, doc, u)
}

// RenegotiateContext gates through the router's admission controller and
// routes to the session's home shard.
func (f *Fleet) RenegotiateContext(ctx context.Context, id core.SessionID, u profile.UserProfile) (core.Result, error) {
	release, retry, admitted := f.adm.Admit()
	if !admitted {
		return f.shedResult(retry), nil
	}
	if release != nil {
		defer release()
	}
	return f.route(id).RenegotiateContext(ctx, id, u)
}

// Adapt runs the adaptation procedure on the session's home shard.
func (f *Fleet) Adapt(id core.SessionID) (core.Transition, error) {
	return f.route(id).Adapt(id)
}

// AdaptContext runs the adaptation procedure on the session's home shard.
func (f *Fleet) AdaptContext(ctx context.Context, id core.SessionID) (core.Transition, error) {
	return f.route(id).AdaptContext(ctx, id)
}

// Confirm routes step 6's acceptance to the session's home shard.
func (f *Fleet) Confirm(id core.SessionID) error { return f.route(id).Confirm(id) }

// Reject routes step 6's rejection to the session's home shard.
func (f *Fleet) Reject(id core.SessionID) error { return f.route(id).Reject(id) }

// Expire routes step 6's time-out to the session's home shard.
func (f *Fleet) Expire(id core.SessionID) error { return f.route(id).Expire(id) }

// Advance routes a playout-position update to the session's home shard.
func (f *Fleet) Advance(id core.SessionID, dt time.Duration) error {
	return f.route(id).Advance(id, dt)
}

// Complete routes a playout completion to the session's home shard.
func (f *Fleet) Complete(id core.SessionID) error { return f.route(id).Complete(id) }

// Abort routes a termination to the session's home shard.
func (f *Fleet) Abort(id core.SessionID) error { return f.route(id).Abort(id) }

// Session returns the session from its home shard.
func (f *Fleet) Session(id core.SessionID) (*core.Session, error) {
	return f.route(id).Session(id)
}

// Sessions concatenates every shard's sessions in the given state.
func (f *Fleet) Sessions(state core.SessionState) []*core.Session {
	var out []*core.Session
	for _, sh := range f.shards {
		out = append(out, sh.mgr.Sessions(state)...)
	}
	return out
}

// SessionByServerReservation scans the shards for the session holding the
// reservation; at most one shard holds it.
func (f *Fleet) SessionByServerReservation(server media.ServerID, res cmfs.ReservationID) (*core.Session, bool) {
	for _, sh := range f.shards {
		if s, ok := sh.mgr.SessionByServerReservation(server, res); ok {
			return s, true
		}
	}
	return nil, false
}

// SessionByNetworkReservation scans the shards for the session holding the
// reservation.
func (f *Fleet) SessionByNetworkReservation(res network.ReservationID) (*core.Session, bool) {
	for _, sh := range f.shards {
		if s, ok := sh.mgr.SessionByNetworkReservation(res); ok {
			return s, true
		}
	}
	return nil, false
}

// Invoice itemizes a session's committed offer on its home shard.
func (f *Fleet) Invoice(id core.SessionID) (cost.Invoice, error) {
	return f.route(id).Invoice(id)
}

// SetPricing publishes a tariff swap on the update bus; every shard applies
// it before answering its next routed request, bumping its pricing
// generation so memoized candidate sets priced under the old tables are
// recomputed — the same lazy-invalidation contract as
// core.Manager.SetPricing.
func (f *Fleet) SetPricing(p cost.Pricing) {
	f.bus.publish(topicPricing, event{pricing: p})
	f.met.published(topicPricing)
	f.met.lagGauge(f.busLag())
}

// AddServer registers a media server with every shard. The server object is
// shared: admission (disk rounds, utilization) is enforced by the server
// itself, so capacity stays a global property however many shards front it.
func (f *Fleet) AddServer(s core.MediaServer, node network.NodeID) {
	for _, sh := range f.shards {
		sh.mgr.AddServer(s, node)
	}
}

// Quarantined reports the longest remaining quarantine any shard holds for
// the server, after syncing replication so freshly published evidence
// counts.
func (f *Fleet) Quarantined(id media.ServerID) (time.Duration, bool) {
	f.Sync()
	var longest time.Duration
	found := false
	for _, sh := range f.shards {
		if rem, ok := sh.mgr.Quarantined(id); ok && rem > longest {
			longest, found = rem, true
		}
	}
	return longest, found
}

// Stats sums every shard's outcome counters plus the router-level shed
// counters (sheds never reach a shard, so they are counted here).
func (f *Fleet) Stats() core.Stats {
	f.statsMu.Lock()
	total := f.shed
	f.statsMu.Unlock()
	for _, sh := range f.shards {
		total = addStats(total, sh.mgr.Stats())
	}
	return total
}

// addStats sums two outcome-counter snapshots field by field.
func addStats(a, b core.Stats) core.Stats {
	a.Requests += b.Requests
	a.Succeeded += b.Succeeded
	a.FailedWithOffer += b.FailedWithOffer
	a.FailedTryLater += b.FailedTryLater
	a.FailedWithoutOffer += b.FailedWithoutOffer
	a.FailedWithLocalOffer += b.FailedWithLocalOffer
	a.Adaptations += b.Adaptations
	a.AdaptationFailures += b.AdaptationFailures
	a.CommitServerDown += b.CommitServerDown
	a.CommitCapacity += b.CommitCapacity
	a.CommitConstraint += b.CommitConstraint
	a.Quarantines += b.Quarantines
	a.StaleInstalls += b.StaleInstalls
	a.AdmissionSheds += b.AdmissionSheds
	a.OfferCacheHits += b.OfferCacheHits
	a.OfferCacheMisses += b.OfferCacheMisses
	a.OfferCacheInvalidations += b.OfferCacheInvalidations
	a.OfferCacheEntries += b.OfferCacheEntries
	a.Revenue += b.Revenue
	return a
}

// ServerLoads merges the shards' views per server: load figures come from
// the shared server objects (identical on every shard), breaker state is
// the fleet-wide union — quarantined anywhere counts, the longest remaining
// cooldown wins, failure counters sum across shards.
func (f *Fleet) ServerLoads() []core.ServerLoad {
	merged := make(map[media.ServerID]*core.ServerLoad)
	var order []media.ServerID
	for _, sh := range f.shards {
		for _, row := range sh.mgr.ServerLoads() {
			m, ok := merged[row.ID]
			if !ok {
				r := row
				merged[row.ID] = &r
				order = append(order, row.ID)
				continue
			}
			m.Quarantined = m.Quarantined || row.Quarantined
			if row.QuarantineMs > m.QuarantineMs {
				m.QuarantineMs = row.QuarantineMs
			}
			if row.ConsecutiveFailures > m.ConsecutiveFailures {
				m.ConsecutiveFailures = row.ConsecutiveFailures
			}
			m.DownFailures += row.DownFailures
			m.ReserveFailures += row.ReserveFailures
			m.ConnectFailures += row.ConnectFailures
			m.Quarantines += row.Quarantines
		}
	}
	out := make([]core.ServerLoad, 0, len(order))
	for _, id := range order {
		out = append(out, *merged[id])
	}
	return out
}

// Breaker is one shard's circuit-breaker view of one server, reported by
// ShardStats only for servers with live breaker state.
type Breaker struct {
	Server              media.ServerID `json:"server"`
	Quarantined         bool           `json:"quarantined,omitempty"`
	QuarantineMs        int64          `json:"quarantineMs,omitempty"`
	ConsecutiveFailures int            `json:"consecutiveFailures,omitempty"`
	Quarantines         int            `json:"quarantines,omitempty"`
}

// Stat is one shard's row in the per-shard ops view (`qosctl shards`).
type Stat struct {
	Shard int `json:"shard"`
	// Sessions counts the shard's live (reserved or playing) sessions.
	Sessions int `json:"sessions"`
	// Stats is the shard's own outcome-counter snapshot.
	Stats core.Stats `json:"stats"`
	// BusLag is how many published bus entries this shard has not applied
	// yet, summed over topics.
	BusLag uint64 `json:"busLag"`
	// Breakers lists the servers this shard's circuit breaker holds state
	// for.
	Breakers []Breaker `json:"breakers,omitempty"`
}

// ShardStats snapshots each shard's session count, outcome counters,
// breaker states and bus lag. The protocol server detects this method on
// its manager via interface assertion and attaches the rows to MsgStats
// answers, which is how `qosctl shards` sees them.
func (f *Fleet) ShardStats() []Stat {
	out := make([]Stat, len(f.shards))
	for i, sh := range f.shards {
		st := Stat{
			Shard:    i,
			Sessions: sh.mgr.LiveSessions(),
			Stats:    sh.mgr.Stats(),
		}
		for t := topic(0); t < numTopics; t++ {
			st.BusLag += f.bus.head[t].Load() - sh.applied[t].Load()
		}
		for _, row := range sh.mgr.ServerLoads() {
			if row.Quarantined || row.ConsecutiveFailures > 0 || row.Quarantines > 0 {
				st.Breakers = append(st.Breakers, Breaker{
					Server:              row.ID,
					Quarantined:         row.Quarantined,
					QuarantineMs:        row.QuarantineMs,
					ConsecutiveFailures: row.ConsecutiveFailures,
					Quarantines:         row.Quarantines,
				})
			}
		}
		out[i] = st
	}
	return out
}

// fleetMetrics holds the router's own telemetry series; nil (no registry)
// disables recording, every method nil-checks.
type fleetMetrics struct {
	routedTo    []*telemetry.Counter
	publishedOn [numTopics]*telemetry.Counter
	lag         *telemetry.Gauge
	outcomes    *telemetry.CounterFamily
}

// Router metric names; DESIGN.md §14 documents them.
const (
	MetricShardRouted       = "qosneg_shard_routed_total"
	MetricShardBusPublished = "qosneg_shard_bus_published_total"
	MetricShardBusLag       = "qosneg_shard_bus_lag"
)

func newFleetMetrics(reg *telemetry.Registry, shards int) *fleetMetrics {
	if reg == nil {
		return nil
	}
	m := &fleetMetrics{
		lag: reg.Gauge(MetricShardBusLag,
			"Published update-bus entries not yet applied by every shard, summed over topics."),
		outcomes: reg.CounterFamily(core.MetricNegotiations,
			"Negotiation outcomes by NegotiationStatus.", "status"),
	}
	routed := reg.CounterFamily(MetricShardRouted,
		"Requests routed to each manager shard (placements and session-addressed operations).", "shard")
	for i := 0; i < shards; i++ {
		m.routedTo = append(m.routedTo, routed.With(strconv.Itoa(i)))
	}
	published := reg.CounterFamily(MetricShardBusPublished,
		"Update-bus events published, by topic.", "topic")
	for t := topic(0); t < numTopics; t++ {
		m.publishedOn[t] = published.With(t.String())
	}
	return m
}

func (m *fleetMetrics) routed(i int) {
	if m != nil && i < len(m.routedTo) {
		m.routedTo[i].Inc()
	}
}

func (m *fleetMetrics) published(t topic) {
	if m != nil {
		m.publishedOn[t].Inc()
	}
}

func (m *fleetMetrics) lagGauge(v uint64) {
	if m != nil {
		m.lag.Set(int64(v))
	}
}

func (m *fleetMetrics) outcome(s core.NegotiationStatus) {
	if m != nil {
		m.outcomes.With(s.String()).Inc()
	}
}
