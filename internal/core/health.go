package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"qosneg/internal/clock"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/offercache"
	"qosneg/internal/telemetry"
)

// ErrServerDown is the sentinel a media-server or transport implementation
// wraps when an operation failed because the server (or its attachment
// node) is crashed or unreachable, as opposed to merely out of capacity.
// The fault injector (package faults) returns it for crashed servers; the
// manager classifies commit failures with it so negotiation can skip the
// remaining offers on a dead server instead of burning an attempt per
// ranked offer.
var ErrServerDown = errors.New("core: media server down")

// FailureCause classifies why a resource-commitment attempt failed; it is
// the typed replacement for tryCommit's old bool, and the input to both the
// circuit breaker and the status decision of step 5 (FAILEDTRYLATER only
// for genuine shortage, FAILEDWITHOUTOFFER when every failure was a hard
// constraint).
type FailureCause int

// The commit-failure causes.
const (
	// CauseNone: no failure.
	CauseNone FailureCause = iota
	// CauseServerDown: a server is crashed, unregistered or quarantined;
	// retrying other offers on the same server is pointless.
	CauseServerDown
	// CauseCapacity: a transient resource shortage — the admission test
	// failed or no network path had bandwidth. Another offer (or a later
	// retry) may succeed.
	CauseCapacity
	// CauseConstraint: the committed configuration violated a hard bound
	// of the profile or document (start delay, synchronization skew); no
	// amount of retrying this offer can help.
	CauseConstraint
	// CauseCanceled: the caller's context was canceled mid-commit.
	CauseCanceled
)

var failureCauseNames = [...]string{"none", "server-down", "capacity", "constraint", "canceled"}

// String returns the lower-case cause name.
func (c FailureCause) String() string {
	if c < 0 || int(c) >= len(failureCauseNames) {
		return fmt.Sprintf("FailureCause(%d)", int(c))
	}
	return failureCauseNames[c]
}

// refusal names the check of tryCommit that refused an offer.
type refusal uint8

// The refusals, in the order tryCommit makes its checks.
const (
	// refusedCanceled: the caller's context ended; err is its error.
	refusedCanceled refusal = iota
	// refusedQuarantined: the server is quarantined for left.
	refusedQuarantined
	// refusedUnregistered: the server is not registered with the manager.
	refusedUnregistered
	// refusedReserve: the server refused the reservation with err.
	refusedReserve
	// refusedConnect: the transport refused the connection from..to with
	// err.
	refusedConnect
	// refusedStartDelay: the committed start delay value exceeds the
	// profile's bound.
	refusedStartDelay
	// refusedSync: the combined jitter value of monomedia a and b exceeds
	// their synchronization tolerance bound.
	refusedSync
)

// commitFailure is the typed outcome of a failed tryCommit. It is a value
// holding the refusal's numbers, not its text: String renders the text,
// and only a tracer asks for it. The zero value (CauseNone) is success.
type commitFailure struct {
	cause FailureCause
	kind  refusal
	// server is the server the failure is attributable to; empty for
	// constraint violations and cancellations.
	server media.ServerID
	// err is the context's, the server's or the transport's error.
	err      error
	from, to network.NodeID
	left     time.Duration
	// value and bound are the start delay or combined jitter and the
	// bound it exceeds.
	value, bound time.Duration
	a, b         media.MonomediaID
}

// String renders the refusal as "<cause> [<server>]: <reason>".
func (f commitFailure) String() string {
	if f.server != "" {
		return fmt.Sprintf("%s %s: %s", f.cause, f.server, f.reason())
	}
	return fmt.Sprintf("%s: %s", f.cause, f.reason())
}

// reason renders why the offer was refused.
func (f commitFailure) reason() string {
	switch f.kind {
	case refusedQuarantined:
		return fmt.Sprintf("%v: %s quarantined for %s", ErrServerDown, f.server, f.left.Round(time.Millisecond))
	case refusedUnregistered:
		return fmt.Sprintf("%v: %s not registered", ErrServerDown, f.server)
	case refusedReserve:
		return fmt.Sprintf("reserve on %s: %v", f.server, f.err)
	case refusedConnect:
		return fmt.Sprintf("connect %s -> %s: %v", f.from, f.to, f.err)
	case refusedStartDelay:
		return fmt.Sprintf("start delay %s exceeds profile bound %s", f.value, f.bound)
	case refusedSync:
		return fmt.Sprintf("combined jitter %s exceeds sync tolerance %s between %s and %s", f.value, f.bound, f.a, f.b)
	}
	return fmt.Sprint(f.err)
}

// refusalCause classifies a server's or the transport's refusal: hard
// server-down evidence, or a transient shortage.
func refusalCause(err error) FailureCause {
	if errors.Is(err, ErrServerDown) {
		return CauseServerDown
	}
	return CauseCapacity
}

// Default health-policy parameters.
const (
	// DefaultCooldown is how long a quarantined server stays out of
	// classification and commitment.
	DefaultCooldown = 30 * time.Second
	// DefaultRetryAfter is the retry hint attached to FAILEDTRYLATER
	// results when no quarantine supplies a longer one.
	DefaultRetryAfter = 10 * time.Second
)

// HealthPolicy tunes the manager's per-server circuit breaker. The zero
// value disables the consecutive-failure breaker but still quarantines on
// hard server-down evidence (ErrServerDown), which only fault-aware server
// implementations produce — so plain beds behave exactly as before.
type HealthPolicy struct {
	// FailureThreshold is how many consecutive capacity-class reserve or
	// connect failures trip the breaker for a server; 0 disables the
	// consecutive-failure breaker. Hard server-down evidence quarantines
	// immediately regardless.
	FailureThreshold int
	// Cooldown is the quarantine period after the breaker trips
	// (default DefaultCooldown).
	Cooldown time.Duration
	// RetryAfter is the hint attached to FAILEDTRYLATER results when no
	// quarantine supplies a longer one (default DefaultRetryAfter).
	RetryAfter time.Duration
}

// DefaultHealthPolicy returns the breaker the daemon runs with: three
// consecutive failures quarantine a server for DefaultCooldown.
func DefaultHealthPolicy() HealthPolicy {
	return HealthPolicy{
		FailureThreshold: 3,
		Cooldown:         DefaultCooldown,
		RetryAfter:       DefaultRetryAfter,
	}
}

// cooldown resolves the quarantine period.
func (p HealthPolicy) cooldown() time.Duration {
	if p.Cooldown > 0 {
		return p.Cooldown
	}
	return DefaultCooldown
}

// retryAfter resolves the FAILEDTRYLATER hint.
func (p HealthPolicy) retryAfter() time.Duration {
	if p.RetryAfter > 0 {
		return p.RetryAfter
	}
	return DefaultRetryAfter
}

// ServerTable holds the media servers the QoS manager commits against and
// the circuit breaker's record of each. A fleet builds one table and every
// shard commits against it (ShardHooks.Servers), so a trip, a
// consecutive-failure count and a policy's breaker context are one fact per
// server however many shards front it; a bare manager builds its own. Step 5
// reads a choice's server, failure generation and remaining quarantine in
// one read-locked lookup.
type ServerTable struct {
	mu      sync.RWMutex
	servers map[media.ServerID]*serverRecord
}

// NewServerTable returns an empty server table.
func NewServerTable() *ServerTable {
	return &ServerTable{servers: make(map[media.ServerID]*serverRecord)}
}

// serverRecord is one server's row: its registration (zero until AddServer
// — failures are recorded against unregistered servers too) and its breaker
// state.
type serverRecord struct {
	serverEntry
	serverHealth
}

type serverEntry struct {
	server MediaServer
	node   network.NodeID
}

// serverHealth is the breaker state the table keeps per server.
type serverHealth struct {
	// gen counts failure recordings against the server; 0 means none ever
	// was. Success evidence is stamped with the generation current when it
	// was gathered and only clears breaker state while the generation still
	// matches: a slow commit that reserved before a quarantine tripped must
	// not lift that quarantine when it finally reports in.
	gen uint64
	// consecutive counts capacity-class failures since the last success.
	consecutive int
	// quarantinedUntil is non-zero while the server is quarantined.
	quarantinedUntil time.Time
	// Per-cause counters, exposed through ServerLoads.
	downFailures    int
	reserveFailures int
	connectFailures int
	quarantines     int
}

// record returns the (lazily created) record for a server; the caller must
// hold mu for writing.
func (t *ServerTable) record(id media.ServerID) *serverRecord {
	rec, ok := t.servers[id]
	if !ok {
		rec = &serverRecord{}
		t.servers[id] = rec
	}
	return rec
}

// add registers a media server and its network attachment point, keeping
// whatever breaker state the server already has.
func (t *ServerTable) add(s MediaServer, node network.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.record(s.ID()).serverEntry = serverEntry{server: s, node: node}
}

// lookup is step 5's one read of a server: its registration (a nil server
// when unregistered), its failure-evidence generation and its remaining
// quarantine (zero when none). A commit attempt hands the generation back
// to recordSuccess, which ignores the success if any failure was recorded
// in between.
func (t *ServerTable) lookup(id media.ServerID, clk clock.Clock) (serverEntry, uint64, time.Duration) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rec, ok := t.servers[id]
	if !ok {
		return serverEntry{}, 0, 0
	}
	var left time.Duration
	if !rec.quarantinedUntil.IsZero() {
		left = max(rec.quarantinedUntil.Sub(clk.Now()), 0)
	}
	return rec.serverEntry, rec.gen, left
}

// recordFailure feeds one server-attributable failure into the breaker and
// reports whether it tripped the breaker.
func (t *ServerTable) recordFailure(f commitFailure, p HealthPolicy, clk clock.Clock) (tripped bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := &t.record(f.server).serverHealth
	h.gen++
	switch f.kind {
	case refusedUnregistered, refusedReserve:
		h.reserveFailures++
	case refusedConnect:
		h.connectFailures++
	}
	quarantine := false
	switch f.cause {
	case CauseServerDown:
		h.downFailures++
		h.consecutive++
		quarantine = true
	case CauseCapacity:
		h.consecutive++
		quarantine = p.FailureThreshold > 0 && h.consecutive >= p.FailureThreshold
	}
	if quarantine {
		at := clk.Now()
		if end := at.Add(p.cooldown()); end.After(h.quarantinedUntil) {
			tripped = !h.quarantinedUntil.After(at)
			h.quarantinedUntil = end
		}
	}
	if tripped {
		h.quarantines++
	}
	return tripped
}

// recordSuccess resets a server's breaker after a successful reserve and
// connect — unless the evidence is stale: gen is what lookup returned when
// the attempt began, and failures recorded since are newer evidence than
// this success. It reports whether the reset lifted a quarantine. A server
// with no failure on record has nothing to reset.
func (t *ServerTable) recordSuccess(id media.ServerID, gen uint64, clk clock.Clock) (restored bool) {
	if gen == 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.servers[id]
	if !ok || rec.gen != gen {
		return false
	}
	// A zero deadline is never after now, so the clock is read only when
	// a quarantine is on record.
	restored = !rec.quarantinedUntil.IsZero() && rec.quarantinedUntil.After(clk.Now())
	rec.consecutive = 0
	rec.quarantinedUntil = time.Time{}
	return restored
}

// exclusion snapshots the quarantined-server set as a variant filter for
// classification, plus the longest remaining cooldown (the RetryAfter hint
// when quarantine starves the candidate sets) and the order-independent
// hash of the set — the exclusion-world component of the offer-cache key.
// It returns a nil filter and a zero hash when no server is quarantined.
// Because the hash is computed from the same snapshot the filter closes
// over, a cached candidate set is always keyed by exactly the exclusion
// world it was filtered under — including worlds reached by silent
// time-based quarantine expiry, which simply hash differently.
func (t *ServerTable) exclusion(clk clock.Clock) (func(media.Variant) bool, time.Duration, uint64) {
	t.mu.RLock()
	var quarantined map[media.ServerID]bool
	var ids []media.ServerID
	var longest time.Duration
	var at time.Time
	for id, rec := range t.servers {
		if rec.quarantinedUntil.IsZero() {
			continue
		}
		if at.IsZero() {
			at = clk.Now()
		}
		if rem := rec.quarantinedUntil.Sub(at); rem > 0 {
			if quarantined == nil {
				quarantined = make(map[media.ServerID]bool)
			}
			quarantined[id] = true
			ids = append(ids, id)
			longest = max(longest, rem)
		}
	}
	t.mu.RUnlock()
	if quarantined == nil {
		return nil, 0, 0
	}
	return func(v media.Variant) bool { return quarantined[v.Server] }, longest, offercache.ExclusionHash(ids)
}

// loads reports each registered server's load and breaker state, sorted by
// id. The servers are asked for their load after the table is unlocked.
func (t *ServerTable) loads(clk clock.Clock) []ServerLoad {
	t.mu.RLock()
	at := clk.Now()
	out := make([]ServerLoad, 0, len(t.servers))
	servers := make([]MediaServer, 0, len(t.servers))
	for id, rec := range t.servers {
		if rec.server == nil {
			continue
		}
		row := ServerLoad{
			ID:                  id,
			ConsecutiveFailures: rec.consecutive,
			DownFailures:        rec.downFailures,
			ReserveFailures:     rec.reserveFailures,
			ConnectFailures:     rec.connectFailures,
			Quarantines:         rec.quarantines,
		}
		if rem := rec.quarantinedUntil.Sub(at); rem > 0 {
			row.Quarantined = true
			row.QuarantineMs = rem.Milliseconds()
		}
		out = append(out, row)
		servers = append(servers, rec.server)
	}
	t.mu.RUnlock()
	for i, s := range servers {
		out[i].ActiveStreams = s.ActiveStreams()
		out[i].Utilization = s.Utilization()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// policyInfo snapshots one server's live load and breaker history for a
// selection policy.
func (t *ServerTable) policyInfo(id media.ServerID) PolicyServer {
	info := PolicyServer{ID: id}
	t.mu.RLock()
	rec, ok := t.servers[id]
	var server MediaServer
	if ok {
		server = rec.server
		info.ConsecutiveFailures = rec.consecutive
		info.Quarantines = rec.quarantines
	}
	t.mu.RUnlock()
	if server != nil {
		info.ActiveStreams = server.ActiveStreams()
		info.Utilization = server.Utilization()
	}
	return info
}

// instrument registers the breaker gauges of every server with a failure on
// record, read from the table at Snapshot time. The table is their one
// owner, so a fleet's shards, which each call this, expose each server once.
func (t *ServerTable) instrument(reg *telemetry.Registry) {
	gauge := func(name, help string, v func(*serverHealth) int64) {
		reg.Collect(telemetry.Collector{Name: name, Help: help, Label: "server", Gauge: true, Owner: t,
			Read: func(emit func(string, int64)) {
				t.mu.RLock()
				defer t.mu.RUnlock()
				for id, rec := range t.servers {
					if rec.gen > 0 {
						emit(string(id), v(&rec.serverHealth))
					}
				}
			}})
	}
	gauge(MetricQuarantined, "Unix time a server's quarantine ends; 0 when healthy.", func(h *serverHealth) int64 {
		if h.quarantinedUntil.IsZero() {
			return 0
		}
		return h.quarantinedUntil.Unix()
	})
	gauge(MetricConsecutive, "Consecutive commit failures since the server's last success.",
		func(h *serverHealth) int64 { return int64(h.consecutive) })
}

// recordCommitFailure feeds one failed commit attempt into the outcome
// counters and, for server-attributable causes, the circuit breaker. A trip
// is this manager's to count, trace and purge its offer cache for, whichever
// shard's table it lands in.
func (m *Manager) recordCommitFailure(f commitFailure) {
	m.count.commitFailures[f.cause].Add(1)
	if f.server == "" || (f.cause != CauseServerDown && f.cause != CauseCapacity) {
		return
	}

	if m.servers.recordFailure(f, m.opts.Health, m.clk) {
		m.exclusionChanged()
		m.count.quarantines.Add(1)
		if m.opts.Tracer != nil {
			detail := fmt.Sprintf("%s for %s after %s", f.server, m.opts.Health.cooldown(), f.cause)
			m.span(telemetry.Event{Step: telemetry.StepQuarantine, Server: string(f.server), Status: f.cause.String(), Detail: detail})
		}
	}
}

// recordServerSuccess resets a server's breaker: a successful reserve and
// connect is proof of health, so the consecutive counter and any pending
// quarantine are cleared — unless failures were recorded since generation
// gen, which are newer evidence than this success.
func (m *Manager) recordServerSuccess(id media.ServerID, gen uint64) {
	if m.servers.recordSuccess(id, gen, m.clk) {
		// The exclusion world shrank: drop candidate sets filtered
		// without the restored server's variants.
		m.exclusionChanged()
	}
}

// Quarantined reports whether a server is currently quarantined by the
// circuit breaker and, if so, the remaining cooldown.
func (m *Manager) Quarantined(id media.ServerID) (time.Duration, bool) {
	_, _, left := m.servers.lookup(id, m.clk)
	return left, left > 0
}

// exclusionChanged runs after a breaker transition (trip or restore): cache
// entries filtered under any other exclusion world can no longer be looked
// up — their key has the old hash — so they are dropped promptly instead of
// aging out of the LRU. Correctness does not depend on this (the key alone
// guarantees a hit matches the current world); it reclaims capacity and
// feeds the invalidation counter. Only this manager's cache is purged: a
// sibling shard's entries for the old world are never hit while it lasts,
// and are valid again if it returns.
func (m *Manager) exclusionChanged() {
	if m.cache == nil {
		return
	}
	_, _, hash := m.servers.exclusion(m.clk)
	m.cache.PurgeExclusions(hash)
}
