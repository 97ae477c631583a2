package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"qosneg/internal/clock"
	"qosneg/internal/cmfs"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/offer"
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
	// refusedStreamCap: the server's plan refused the stream at its
	// stream cap, bound.
	refusedStreamCap
	// refusedRoundBudget: the server's plan needs value bytes per round
	// against a round budget of bound.
	refusedRoundBudget
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
	// err is the context's, the server's or the transport's error; a
	// server's plan refusal keeps the bare cmfs.ErrAdmission.
	err      error
	from, to network.NodeID
	left     time.Duration
	// value and bound are the figure that refused and the limit it
	// exceeds: the start delay or combined jitter and its bound, in
	// nanoseconds; the bytes per round a plan needs and the round budget;
	// or (bound alone) the stream cap.
	value, bound int64
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
	case refusedStreamCap:
		return fmt.Sprintf("reserve on %s: %v", f.server, &cmfs.Refusal{Server: f.server, Cap: int(f.bound)})
	case refusedRoundBudget:
		return fmt.Sprintf("reserve on %s: %v", f.server, &cmfs.Refusal{Server: f.server, Demand: f.value, Budget: f.bound})
	case refusedConnect:
		return fmt.Sprintf("connect %s -> %s: %v", f.from, f.to, f.err)
	case refusedStartDelay:
		return fmt.Sprintf("start delay %s exceeds profile bound %s", time.Duration(f.value), time.Duration(f.bound))
	case refusedSync:
		return fmt.Sprintf("combined jitter %s exceeds sync tolerance %s between %s and %s", time.Duration(f.value), time.Duration(f.bound), f.a, f.b)
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

// planRefusal is a server's refusal of the plan p as a failure: an
// admission refusal keeps the figures the refused plan holds, and any other
// refusal its error.
func planRefusal(sid media.ServerID, p cmfs.Plan, err error) commitFailure {
	f := commitFailure{cause: refusalCause(err), kind: refusedReserve, server: sid, err: err}
	if err == cmfs.ErrAdmission {
		if r := p.Refusal(sid); r.Cap > 0 {
			f.kind, f.bound = refusedStreamCap, int64(r.Cap)
		} else {
			f.kind, f.value, f.bound = refusedRoundBudget, r.Demand, r.Budget
		}
	}
	return f
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
// the one record of each server's commit outcomes, which both the circuit
// breaker and an installed policy read, so a trip, a consecutive-failure
// count and a policy's evidence are one fact per server. Step 5 reads
// a choice's server, failure generation and remaining quarantine in one
// read-locked lookup, and posts each outcome once.
type ServerTable struct {
	mu      sync.RWMutex
	servers map[media.ServerID]*serverRecord
}

// newServerTable returns an empty server table.
func newServerTable() *ServerTable {
	return &ServerTable{servers: make(map[media.ServerID]*serverRecord)}
}

// serverRecord is one server's row: its registration (zero until AddServer
// — failures are recorded against unregistered servers too) and its commit
// record.
type serverRecord struct {
	serverEntry
	serverHealth
}

type serverEntry struct {
	server MediaServer
	node   network.NodeID
}

// serverHealth is the commit record the table keeps per server.
type serverHealth struct {
	// gen counts failure recordings against the server; 0 means none ever
	// was. Success evidence is stamped with the generation current when it
	// was gathered and only clears breaker state — the streak and the
	// quarantine — while the generation still matches: a slow commit that
	// reserved before a quarantine tripped must not lift that quarantine
	// when it finally reports in.
	gen uint64
	// consecutive counts capacity-class failures since the last success.
	consecutive int
	// quarantinedUntil is non-zero while the server is quarantined.
	quarantinedUntil time.Time
	// Per-cause counters, exposed through ServerLoads and the
	// qosneg_server_*_failures_total series.
	downFailures    int
	reserveFailures int
	connectFailures int
	quarantines     int
	// outcomes is every commit outcome of each service guarantee, decayed,
	// indexed by cost.Guarantee: what a policy scores the server by.
	outcomes [2]outcomeCounts
}

// outcomeCounts is a server's decayed commit-success and commit-failure counts
// for one service guarantee.
type outcomeCounts struct{ successes, failures float64 }

// outcomeDecay scales a guarantee's older outcomes at each new one, so the
// record tracks a server whose behaviour changes.
const outcomeDecay = 0.98

// of returns the outcomes of guarantee g; a guarantee the pricing does not
// know is best effort, as it is priced.
func (h *serverHealth) of(g cost.Guarantee) *outcomeCounts {
	if g == cost.Guaranteed {
		return &h.outcomes[cost.Guaranteed]
	}
	return &h.outcomes[cost.BestEffort]
}

// post folds one commit outcome into the outcomes of its guarantee.
func (h *serverHealth) post(g cost.Guarantee, ok bool) {
	o := h.of(g)
	o.successes *= outcomeDecay
	o.failures *= outcomeDecay
	if ok {
		o.successes++
	} else {
		o.failures++
	}
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

// lookupOffer is step 5's one read of an offer's servers, under one read
// lock and at most one clock read. It gives each choice's plan the
// server's registration (a nil server when unregistered) and its
// failure-evidence generation, and returns the first choice whose server
// is quarantined with the quarantine left (-1 and zero when none is); the
// choices after that one are not read. A commit attempt hands the
// generation back to the success it posts, which is ignored if any failure
// was recorded in between.
func (t *ServerTable) lookupOffer(choices []offer.Choice, plan []plannedChoice, clk clock.Clock) (int, time.Duration) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var at time.Time
	for i := range choices {
		rec, ok := t.servers[choices[i].Variant.Server]
		if !ok {
			plan[i].entry, plan[i].gen = serverEntry{}, 0
			continue
		}
		if !rec.quarantinedUntil.IsZero() {
			if at.IsZero() {
				at = clk.Now()
			}
			if left := rec.quarantinedUntil.Sub(at); left > 0 {
				return i, left
			}
		}
		plan[i].entry, plan[i].gen = rec.serverEntry, rec.gen
	}
	return -1, 0
}

// lookup is step 5's read of one server: its registration (a nil server
// when unregistered), its failure-evidence generation and its remaining
// quarantine (zero when none), as lookupOffer reads them.
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

// recordPlan posts a plan-refused attempt's evidence under one lock: a
// success for each planned choice, in choice order, then the refusal f if
// post is set. It reports whether a success lifted a quarantine and
// whether the refusal tripped the breaker.
func (t *ServerTable) recordPlan(choices []offer.Choice, planned []plannedChoice, g cost.Guarantee, f commitFailure, post bool, p HealthPolicy, clk clock.Clock) (restored, tripped bool) {
	if len(planned) == 0 && !post {
		return false, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range planned {
		restored = t.successLocked(choices[i].Variant.Server, g, planned[i].gen, clk) || restored
	}
	if post {
		tripped = t.failureLocked(f, g, p, clk)
	}
	return restored, tripped
}

// recordFailure posts one server-attributable failure of a guarantee-g
// commit and reports whether it tripped the breaker.
func (t *ServerTable) recordFailure(f commitFailure, g cost.Guarantee, p HealthPolicy, clk clock.Clock) (tripped bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failureLocked(f, g, p, clk)
}

// failureLocked is recordFailure under the caller's write lock.
func (t *ServerTable) failureLocked(f commitFailure, g cost.Guarantee, p HealthPolicy, clk clock.Clock) (tripped bool) {
	h := &t.record(f.server).serverHealth
	h.post(g, false)
	h.gen++
	switch f.kind {
	case refusedUnregistered, refusedReserve, refusedStreamCap, refusedRoundBudget:
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

// recordSuccess posts a successful reserve and connect of a guarantee-g
// commit, and resets the server's breaker — unless the evidence is stale:
// gen is what lookup returned when the attempt began, and failures recorded
// since are newer evidence than this success. It reports whether the reset
// lifted a quarantine.
func (t *ServerTable) recordSuccess(id media.ServerID, g cost.Guarantee, gen uint64, clk clock.Clock) (restored bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.successLocked(id, g, gen, clk)
}

// successLocked is recordSuccess under the caller's write lock.
func (t *ServerTable) successLocked(id media.ServerID, g cost.Guarantee, gen uint64, clk clock.Clock) (restored bool) {
	rec, ok := t.servers[id]
	if !ok {
		return false
	}
	rec.post(g, true)
	if rec.gen != gen {
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

// quarantines sums the breaker trips on the server rows: the one count of
// them, which Stats and qosneg_quarantines_total read.
func (t *ServerTable) quarantines() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, rec := range t.servers {
		n += rec.quarantines
	}
	return n
}

// policyInfo snapshots one server's row for a policy: its breaker history,
// its outcomes for guarantee g and its live load.
func (t *ServerTable) policyInfo(id media.ServerID, g cost.Guarantee) PolicyServer {
	info := PolicyServer{ID: id}
	t.mu.RLock()
	rec, ok := t.servers[id]
	var server MediaServer
	if ok {
		server = rec.server
		info.ConsecutiveFailures = rec.consecutive
		info.Quarantines = rec.quarantines
		o := rec.of(g)
		info.Successes, info.Failures = o.successes, o.failures
	}
	t.mu.RUnlock()
	if server != nil {
		info.Utilization = server.Utilization()
	}
	return info
}

// instrument registers the breaker gauges and the per-cause failure
// counters of every server with a failure on record, read from the table at
// Snapshot time. The table is their one owner, so each server is exposed
// once.
func (t *ServerTable) instrument(reg *telemetry.Registry) {
	series := func(name, help string, gauge bool, v func(*serverHealth) int64) {
		reg.Collect(telemetry.Collector{Name: name, Help: help, Label: "server", Gauge: gauge, Owner: t,
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
	series(MetricDownFailures, "Commit failures with server-down evidence, by server.", false,
		func(h *serverHealth) int64 { return int64(h.downFailures) })
	series(MetricReserveFailures, "Stream reservations the server refused, by server.", false,
		func(h *serverHealth) int64 { return int64(h.reserveFailures) })
	series(MetricConnectFailures, "Connections to the server's node the transport refused, by server.", false,
		func(h *serverHealth) int64 { return int64(h.connectFailures) })
	series(MetricQuarantined, "Unix time a server's quarantine ends; 0 when healthy.", true, func(h *serverHealth) int64 {
		if h.quarantinedUntil.IsZero() {
			return 0
		}
		return h.quarantinedUntil.Unix()
	})
	series(MetricConsecutive, "Consecutive commit failures since the server's last success.", true,
		func(h *serverHealth) int64 { return int64(h.consecutive) })
}

// recordCommitFailure feeds one failed commit attempt of guarantee g into
// the outcome counters and, for server-attributable causes, the server's
// record, which counts a trip. A trip is traced and purged from the offer
// cache here.
func (m *Manager) recordCommitFailure(f commitFailure, g cost.Guarantee) {
	m.count.commitFailures[f.cause].Add(1)
	if serverAttributable(f) && m.servers.recordFailure(f, g, m.opts.Health, m.clk) {
		m.tripped(f)
	}
}

// serverAttributable reports whether a failure is evidence against its
// server: a server-down or capacity refusal that names one.
func serverAttributable(f commitFailure) bool {
	return f.server != "" && (f.cause == CauseServerDown || f.cause == CauseCapacity)
}

// tripped acts on a breaker trip the failure f caused: the exclusion world
// grew, and a tracer hears of the quarantine.
func (m *Manager) tripped(f commitFailure) {
	m.exclusionChanged()
	if m.opts.Tracer != nil {
		detail := fmt.Sprintf("%s for %s after %s", f.server, m.opts.Health.cooldown(), f.cause)
		m.span(telemetry.Event{Step: telemetry.StepQuarantine, Server: string(f.server), Status: f.cause.String(), Detail: detail})
	}
}

// recordServerSuccess posts a successful reserve and connect of guarantee
// g to the server's record. It is proof of health, so the consecutive
// counter and any pending quarantine are cleared — unless failures were
// recorded since generation gen, which are newer evidence than this success.
func (m *Manager) recordServerSuccess(id media.ServerID, g cost.Guarantee, gen uint64) {
	if m.servers.recordSuccess(id, g, gen, m.clk) {
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
// feeds the invalidation counter.
func (m *Manager) exclusionChanged() {
	if m.cache == nil {
		return
	}
	_, _, hash := m.servers.exclusion(m.clk)
	m.cache.PurgeExclusions(hash)
}
