package core

import (
	"errors"
	"fmt"
	"time"

	"qosneg/internal/media"
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

// commitFailure is the typed outcome of a failed tryCommit.
type commitFailure struct {
	cause FailureCause
	// server is the server the failure is attributable to; empty for
	// constraint violations and cancellations.
	server media.ServerID
	// op is "reserve" or "connect" for server-attributable failures.
	op  string
	err error
}

func (f *commitFailure) String() string {
	if f.server != "" {
		return fmt.Sprintf("%s %s: %v", f.cause, f.server, f.err)
	}
	return fmt.Sprintf("%s: %v", f.cause, f.err)
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

// serverHealth is the breaker state the manager keeps per server.
type serverHealth struct {
	// gen counts failure recordings against the server. Success evidence
	// is stamped with the generation current when it was gathered and
	// only clears breaker state while the generation still matches:
	// a slow commit that reserved before a quarantine tripped must not
	// lift that quarantine when it finally reports in.
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

// healthFor returns the (lazily created) health record for a server; the
// caller must hold healthMu.
func (m *Manager) healthFor(id media.ServerID) *serverHealth {
	h, ok := m.health[id]
	if !ok {
		h = &serverHealth{}
		m.health[id] = h
	}
	return h
}

// recordCommitFailure feeds one failed commit attempt into the outcome
// counters and, for server-attributable causes, the circuit breaker.
func (m *Manager) recordCommitFailure(f *commitFailure) {
	m.met.commitFailure(f.cause)
	m.statsMu.Lock()
	switch f.cause {
	case CauseServerDown:
		m.stats.CommitServerDown++
	case CauseCapacity:
		m.stats.CommitCapacity++
	case CauseConstraint:
		m.stats.CommitConstraint++
	}
	m.statsMu.Unlock()
	if f.server == "" || (f.cause != CauseServerDown && f.cause != CauseCapacity) {
		return
	}

	m.healthMu.Lock()
	h := m.healthFor(f.server)
	h.gen++
	switch f.op {
	case "reserve":
		h.reserveFailures++
	case "connect":
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
		if t := m.opts.Health.FailureThreshold; t > 0 && h.consecutive >= t {
			quarantine = true
		}
	}
	tripped := false
	if quarantine {
		until := m.now().Add(m.opts.Health.cooldown())
		if until.After(h.quarantinedUntil) {
			tripped = !h.quarantinedUntil.After(m.now())
			h.quarantinedUntil = until
		}
	}
	if tripped {
		h.quarantines++
	}
	consecutive, until := h.consecutive, h.quarantinedUntil
	m.healthMu.Unlock()

	m.met.serverHealthGauges(f.server, consecutive, until)
	if tripped {
		m.exclusionChanged()
		m.met.quarantineTrip()
		m.statsMu.Lock()
		m.stats.Quarantines++
		m.statsMu.Unlock()
		if m.opts.Shard != nil {
			// Locally gathered breaker evidence only: quarantines applied
			// from a sibling shard go through ApplyQuarantine, which never
			// re-publishes — so evidence crosses the bus exactly once.
			m.opts.Shard.PublishQuarantine(f.server, until)
		}
		if m.opts.Tracer != nil {
			detail := fmt.Sprintf("%s for %s after %s", f.server, m.opts.Health.cooldown(), f.cause)
			m.span(telemetry.Event{Step: telemetry.StepQuarantine, Server: string(f.server), Status: f.cause.String(), Detail: detail})
		}
	}
}

// serverHealthGen snapshots a server's failure-evidence generation. A
// commit attempt captures it before reserving and hands it back to
// recordServerSuccess, which ignores the success if any failure was
// recorded in between.
func (m *Manager) serverHealthGen(id media.ServerID) uint64 {
	m.healthMu.Lock()
	defer m.healthMu.Unlock()
	if h, ok := m.health[id]; ok {
		return h.gen
	}
	return 0
}

// recordServerSuccess resets a server's breaker: a successful reserve and
// connect is proof of health, so the consecutive counter and any pending
// quarantine are cleared — unless the evidence is stale. gen is the
// generation serverHealthGen returned when the successful attempt began;
// if failures were recorded since, they are newer evidence than this
// success and the breaker state stands.
func (m *Manager) recordServerSuccess(id media.ServerID, gen uint64) {
	m.healthMu.Lock()
	h, ok := m.health[id]
	applied, restored := false, false
	if ok && h.gen == gen {
		applied = true
		h.consecutive = 0
		restored = h.quarantinedUntil.After(m.now())
		h.quarantinedUntil = time.Time{}
	}
	m.healthMu.Unlock()
	if applied {
		if restored {
			// The exclusion world shrank: drop candidate sets filtered
			// without the restored server's variants.
			m.exclusionChanged()
		}
		m.met.serverHealthGauges(id, 0, time.Time{})
	}
}

// ApplyQuarantine installs externally gathered breaker evidence: the server
// is quarantined until the given deadline unless a longer local quarantine
// already stands. The sharded fleet calls it on every sibling of the shard
// whose breaker tripped, so one shard's hard-down evidence excludes the
// server fleet-wide without each shard burning its own failed commits.
//
// The failure-evidence generation is bumped so an in-flight local commit
// that started before the evidence arrived cannot clear it on success, and
// ShardHooks.PublishQuarantine deliberately does not fire — replicated
// evidence is never re-published, which is what makes the propagation
// loop-free.
func (m *Manager) ApplyQuarantine(id media.ServerID, until time.Time) {
	if !until.After(m.now()) {
		return
	}
	m.healthMu.Lock()
	h := m.healthFor(id)
	h.gen++
	tripped := false
	if until.After(h.quarantinedUntil) {
		tripped = !h.quarantinedUntil.After(m.now())
		h.quarantinedUntil = until
	}
	if tripped {
		h.quarantines++
	}
	consecutive, deadline := h.consecutive, h.quarantinedUntil
	m.healthMu.Unlock()

	m.met.serverHealthGauges(id, consecutive, deadline)
	if tripped {
		m.exclusionChanged()
		m.met.quarantineTrip()
		m.statsMu.Lock()
		m.stats.Quarantines++
		m.statsMu.Unlock()
		if m.opts.Tracer != nil {
			detail := fmt.Sprintf("%s until %s (replicated evidence)", id, until.Format(time.RFC3339))
			m.span(telemetry.Event{Step: telemetry.StepQuarantine, Server: string(id), Status: "replicated", Detail: detail})
		}
	}
}

// Quarantined reports whether a server is currently quarantined by the
// circuit breaker and, if so, the remaining cooldown.
func (m *Manager) Quarantined(id media.ServerID) (time.Duration, bool) {
	m.healthMu.Lock()
	defer m.healthMu.Unlock()
	h, ok := m.health[id]
	if !ok {
		return 0, false
	}
	if rem := h.quarantinedUntil.Sub(m.now()); rem > 0 {
		return rem, true
	}
	return 0, false
}

// quarantineExclude snapshots the quarantined-server set as a variant
// filter for classification, plus the longest remaining cooldown (the
// RetryAfter hint when quarantine starves the candidate sets) and the
// order-independent hash of the set — the exclusion-world component of the
// offer-cache key. It returns a nil filter and a zero hash when no server
// is quarantined. Because the hash is computed from the same snapshot the
// filter closes over, a cached candidate set is always keyed by exactly the
// exclusion world it was filtered under — including worlds reached by
// silent time-based quarantine expiry, which simply hash differently.
func (m *Manager) quarantineExclude() (func(media.Variant) bool, time.Duration, uint64) {
	m.healthMu.Lock()
	var quarantined map[media.ServerID]bool
	var ids []media.ServerID
	var longest time.Duration
	now := m.now()
	for id, h := range m.health {
		if rem := h.quarantinedUntil.Sub(now); rem > 0 {
			if quarantined == nil {
				quarantined = make(map[media.ServerID]bool)
			}
			quarantined[id] = true
			ids = append(ids, id)
			if rem > longest {
				longest = rem
			}
		}
	}
	m.healthMu.Unlock()
	if quarantined == nil {
		return nil, 0, 0
	}
	return func(v media.Variant) bool { return quarantined[v.Server] }, longest, offercache.ExclusionHash(ids)
}

// exclusionChanged runs after a breaker transition (trip or restore): cache
// entries filtered under any other exclusion world can no longer be looked
// up — their key has the old hash — so they are dropped promptly instead of
// aging out of the LRU. Correctness does not depend on this (the key alone
// guarantees a hit matches the current world); it reclaims capacity and
// feeds the invalidation counter.
func (m *Manager) exclusionChanged() {
	if m.cache == nil {
		return
	}
	_, _, hash := m.quarantineExclude()
	if n := m.cache.PurgeExclusions(hash); n > 0 {
		m.met.offerCacheInvalidations(n)
		m.met.offerCacheEntries(m.cache.Len())
	}
}

// healthSnapshot copies a server's breaker state into a ServerLoad row.
func (m *Manager) healthSnapshot(row *ServerLoad) {
	m.healthMu.Lock()
	defer m.healthMu.Unlock()
	h, ok := m.health[row.ID]
	if !ok {
		return
	}
	if rem := h.quarantinedUntil.Sub(m.now()); rem > 0 {
		row.Quarantined = true
		row.QuarantineMs = rem.Milliseconds()
	}
	row.ConsecutiveFailures = h.consecutive
	row.DownFailures = h.downFailures
	row.ReserveFailures = h.reserveFailures
	row.ConnectFailures = h.connectFailures
	row.Quarantines = h.quarantines
}
