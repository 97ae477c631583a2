// Package shard fronts N independent core.Manager shards behind session-id
// routing, exposing the same manager surface (core.SessionManager), so the
// facade, protocol server and admission controller sit on top of a fleet
// exactly as they sit on top of a single manager. See DESIGN.md §14 for the
// topology and the shared-state argument.
package shard

import (
	"context"
	"strconv"
	"sync/atomic"
	"time"

	"qosneg/internal/admission"
	"qosneg/internal/client"
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
	// Registry is the document/variant catalog. Every shard reads it
	// directly, so a catalog mutation is visible to every shard as soon as
	// it returns.
	Registry *registry.Registry
	// Transport is the (shared) connection-establishment substrate; every
	// shard commits against the same network, so capacity admission stays
	// global.
	Transport core.Transport
	// Pricing is the initial tariff.
	Pricing cost.Pricing
	// Options is the per-shard manager configuration; the fleet installs
	// each shard's handle as Options.Shard on that shard's copy, which hands
	// every shard the fleet's one server table. Every shard consults and
	// teaches the same Options.Policy object.
	Options core.Options
	// Admission, when non-nil, gates negotiation-class work once at the
	// router, before routing: refused work is answered FAILEDTRYLATER with
	// the controller's load-derived RetryAfter hint and Result.Shed set,
	// without reaching a shard. Nil disables admission control at zero cost.
	Admission *admission.Controller
}

// shardHandle is one manager shard. It is the shard's core.ShardHooks:
// metric label, session-id allocator and the fleet's server table.
type shardHandle struct {
	fleet *Fleet
	idx   int
	mgr   *core.Manager

	// nextID is the id the shard allocates next; only its manager reads
	// or writes it, under the manager's session-table lock.
	nextID core.SessionID
}

// Fleet fronts N independent core.Manager shards. New negotiations are
// placed round-robin; every session-addressed operation routes by the
// session id, which names the shard that allocated it: shard i of n
// allocates the ids i+1, i+1+n, i+1+2n, … Fleet implements
// core.SessionManager, so everything built against the manager surface
// works against a fleet unchanged.
type Fleet struct {
	shards []*shardHandle
	// servers is the media servers and their circuit breaker, shared by
	// every shard.
	servers *core.ServerTable
	// adm, when non-nil, gates negotiation-class work once at the router.
	adm *admission.Controller
	rr  atomic.Uint64
	// routedTo is each shard's routed counter; nil series when
	// uninstrumented, which the telemetry package makes inert.
	routedTo []*telemetry.Counter
}

// Fleet must keep satisfying the manager surface.
var _ core.SessionManager = (*Fleet)(nil)

// New builds a fleet of cfg.Shards managers over the shared substrate. The
// shards share the registry, the policy objects and one server table — the
// media servers registered later via AddServer and their circuit breaker —
// so disk-round and network admission and every quarantine are global; each
// keeps its own offer cache, tariff copy and a disjoint session-id
// partition.
func New(cfg Config) *Fleet {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	f := &Fleet{
		servers:  core.NewServerTable(),
		adm:      cfg.Admission,
		routedTo: make([]*telemetry.Counter, n),
	}
	f.instrument(cfg.Options.Metrics)
	for i := 0; i < n; i++ {
		sh := &shardHandle{fleet: f, idx: i, nextID: core.SessionID(i + 1)}
		opts := cfg.Options
		opts.Shard = sh
		sh.mgr = core.NewManager(cfg.Registry, cfg.Transport, cfg.Pricing, opts)
		f.shards = append(f.shards, sh)
	}
	return f
}

// Shards returns the shard count.
func (f *Fleet) Shards() int { return len(f.shards) }

// Shard returns shard i's manager, for tests that drive one shard directly.
func (f *Fleet) Shard(i int) *core.Manager { return f.shards[i].mgr }

// Label is the shard's index, the "shard" label of its latency series.
func (sh *shardHandle) Label() string { return strconv.Itoa(sh.idx) }

// NextSessionID allocates the shard's next id, striding by the shard
// count, so ids are fleet-unique without coordination and route back to
// the shard. A single-shard fleet allocates 1, 2, 3, … exactly like a bare
// manager. The manager calls it under its session-table lock.
func (sh *shardHandle) NextSessionID() core.SessionID {
	id := sh.nextID
	sh.nextID += core.SessionID(len(sh.fleet.shards))
	return id
}

// Servers is the fleet's one server table.
func (sh *shardHandle) Servers() *core.ServerTable { return sh.fleet.servers }

// Sync is a no-op: shards share the registry and the server table and
// receive tariffs directly, so there is nothing to catch up on. It remains
// because the benchmark module calls it.
func (f *Fleet) Sync() {}

// route resolves the home shard of a session id, the shard whose stride
// holds it, and returns its manager.
// Unknown ids route like known ones: the home shard is the only shard that
// could ever hold the session, so its ErrUnknownSession answer is
// authoritative.
func (f *Fleet) route(id core.SessionID) *core.Manager {
	sh := f.shards[int((id-1)%core.SessionID(len(f.shards)))]
	f.routedTo[sh.idx].Inc()
	return sh.mgr
}

// place picks the shard for a new negotiation round-robin — no session id
// exists yet to route by, and round-robin keeps the fleet evenly loaded.
func (f *Fleet) place() *shardHandle {
	sh := f.shards[int(f.rr.Add(1)-1)%len(f.shards)]
	f.routedTo[sh.idx].Inc()
	return sh
}

// shedResult is the answer to one router-level admission refusal, which
// the controller counts (Stats).
func shedResult(retry time.Duration) core.Result {
	return core.Result{
		Status:     core.FailedTryLater,
		Reason:     "admission control: manager overloaded",
		RetryAfter: retry,
		Shed:       true,
	}
}

// NegotiateContext gates the request through the router's admission
// controller, places it on the next shard round-robin and runs the
// procedure there.
func (f *Fleet) NegotiateContext(ctx context.Context, mach client.Machine, doc media.DocumentID, u profile.UserProfile) (core.Result, error) {
	release, retry, admitted := f.adm.Admit()
	if !admitted {
		return shedResult(retry), nil
	}
	if release != nil {
		defer release()
	}
	return f.place().mgr.NegotiateContext(ctx, mach, doc, u)
}

// RenegotiateContext gates through the router's admission controller and
// routes to the session's home shard.
func (f *Fleet) RenegotiateContext(ctx context.Context, id core.SessionID, u profile.UserProfile) (core.Result, error) {
	release, retry, admitted := f.adm.Admit()
	if !admitted {
		return shedResult(retry), nil
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

// Sessions concatenates every shard's sessions in the given state; a
// one-shard fleet returns its shard's slice as it is.
func (f *Fleet) Sessions(state core.SessionState) []*core.Session {
	if len(f.shards) == 1 {
		return f.shards[0].mgr.Sessions(state)
	}
	var out []*core.Session
	for _, sh := range f.shards {
		out = append(out, sh.mgr.Sessions(state)...)
	}
	return out
}

// Invoice itemizes a session's committed offer on its home shard.
func (f *Fleet) Invoice(id core.SessionID) (cost.Invoice, error) {
	return f.route(id).Invoice(id)
}

// SetPricing installs a tariff on every shard before it returns. Each shard
// bumps its pricing generation, so candidate sets memoized under the old
// tables are recomputed (core.Manager.SetPricing).
func (f *Fleet) SetPricing(p cost.Pricing) {
	for _, sh := range f.shards {
		sh.mgr.SetPricing(p)
	}
}

// AddServer registers a media server in the fleet's server table, which
// every shard commits against. Admission (disk rounds, utilization) is
// enforced by the server itself, so capacity stays a global property however
// many shards front it.
func (f *Fleet) AddServer(s core.MediaServer, node network.NodeID) {
	f.shards[0].mgr.AddServer(s, node)
}

// Quarantined reports the server's remaining quarantine in the fleet's
// server table.
func (f *Fleet) Quarantined(id media.ServerID) (time.Duration, bool) {
	return f.shards[0].mgr.Quarantined(id)
}

// Stats sums every shard's outcome counters, and counts the admission
// controller's sheds, which never reach a shard, as requests that ended
// FAILEDTRYLATER: the router's refusals and the protocol server's alike.
func (f *Fleet) Stats() core.Stats {
	ms := make([]*core.Manager, len(f.shards))
	for i, sh := range f.shards {
		ms[i] = sh.mgr
	}
	st := core.SumStats(ms...)
	sheds := int(f.adm.Stats().Sheds)
	st.Requests += sheds
	st.FailedTryLater += sheds
	st.AdmissionSheds = sheds
	return st
}

// ServerLoads reports the fleet's server table: each server's load and
// breaker state, sorted by id.
func (f *Fleet) ServerLoads() []core.ServerLoad {
	return f.shards[0].mgr.ServerLoads()
}

// Stat is one shard's row in the per-shard ops view (`qosctl shards`).
type Stat struct {
	Shard int `json:"shard"`
	// Sessions counts the shard's live (reserved or playing) sessions.
	Sessions int `json:"sessions"`
	// Stats is the shard's own outcome-counter snapshot.
	Stats core.Stats `json:"stats"`
	// BusLag always reads 0: shards share state, so none lags. The field
	// remains because the benchmark module reads it.
	BusLag uint64 `json:"busLag"`
}

// ShardStats snapshots each shard's session count and outcome counters. The
// protocol server detects this method on its manager via interface
// assertion and attaches the rows to MsgStats answers, which is how `qosctl
// shards` sees them.
func (f *Fleet) ShardStats() []Stat {
	out := make([]Stat, len(f.shards))
	for i, sh := range f.shards {
		out[i] = Stat{
			Shard:    i,
			Sessions: sh.mgr.LiveSessions(),
			Stats:    sh.mgr.Stats(),
		}
	}
	return out
}

// MetricShardRouted is the router's metric name; DESIGN.md §14 documents it.
const MetricShardRouted = "qosneg_shard_routed_total"

// instrument registers the router's series: the controller's sheds (at the
// router or the wire) as FAILEDTRYLATER outcomes, summed with the shards'
// own, and one routed counter per shard.
func (f *Fleet) instrument(reg *telemetry.Registry) {
	reg.Collect(telemetry.Collector{Name: core.MetricNegotiations, Help: "Negotiation outcomes by NegotiationStatus.",
		Label: "status", Owner: f, Read: func(emit func(string, int64)) {
			if n := f.adm.Stats().Sheds; n > 0 {
				emit(core.FailedTryLater.String(), int64(n))
			}
		}})
	routed := reg.CounterFamily(MetricShardRouted,
		"Requests routed to each manager shard (placements and session-addressed operations).", "shard")
	for i := range f.routedTo {
		f.routedTo[i] = routed.With(strconv.Itoa(i))
	}
}
