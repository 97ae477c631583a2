// Package qosneg is a Go reproduction of "A Quality of Service Negotiation
// Procedure for Distributed Multimedia Presentational Applications" (Hafid,
// v. Bochmann, Kerhervé; HPDC-5, 1996): a QoS manager that negotiates an
// optimal system configuration — which variant of each monomedia component
// of a multimedia document to deliver, from which server, over which
// network path — against a user profile of desired QoS, worst-acceptable
// QoS, cost bounds and importance factors, and that automatically adapts
// running sessions when servers or network links degrade.
//
// The package is a facade over the substrate packages (see DESIGN.md for
// the full inventory): a metadata registry, continuous-media file servers
// with disk-round admission control, a reservation-capable network, the
// transport system, client machine models, the offer classification
// machinery of the paper's Section 5, the six-step negotiation procedure of
// Section 4 run on a streaming pipeline, the adaptation monitor, a
// playout driver on a virtual or real-time clock, a TCP wire protocol, and
// the profile manager's window flow.
//
// Quickstart:
//
//	sys, _ := qosneg.New(qosneg.WithClients(1), qosneg.WithServers(2))
//	doc, _ := sys.AddNewsArticle("news-1", "Election night", 3*time.Minute)
//	res, _ := sys.Negotiate(ctx, "client-1", doc.ID, "tv-quality")
//	if res.Status.Reserved() {
//		sys.Manager.Confirm(res.Session.ID)
//	}
//
// # Errors
//
// The facade reports failures through typed sentinels so callers can branch
// with errors.Is / errors.As rather than matching message text:
//
//   - [ErrClientNotFound]: a client id is not part of the assembled system.
//   - [ErrProfileNotFound]: a named profile is not in the profile store.
//   - [ErrSessionNotFound]: a session id names no live or past session.
//   - [ErrChoicePeriodExpired]: the session's choice period elapsed before
//     the operation; its resources are already released.
//   - [ErrTooManyOffers]: the document's variant product exceeds the
//     enumeration bound (core.Options.MaxOffers).
//
// A negotiation whose monomedia cannot be decoded at all does not error: it
// returns a Result with status FAILEDWITHOUTOFFER, as in the paper.
// Canceled negotiations return the context's error (context.Canceled or
// context.DeadlineExceeded) with all partially committed resources
// released.
package qosneg

import (
	"context"
	"fmt"
	"net"
	"time"

	"qosneg/internal/adaptation"
	"qosneg/internal/admission"
	"qosneg/internal/client"
	"qosneg/internal/clock"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/faults"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/protocol"
	"qosneg/internal/qos"
	"qosneg/internal/session"
	"qosneg/internal/telemetry"
	"qosneg/internal/testbed"
)

// config collects the option values; with opts at core.DefaultOptions it
// builds a two-client, two-server star-topology system with the default disk
// model, link capacities and cost tables.
type config struct {
	spec testbed.Spec
	opts core.Options
}

// Option configures New; the With* constructors build them.
type Option func(*config)

// WithClients sets the number of client workstations (client-1..N).
func WithClients(n int) Option {
	return func(c *config) { c.spec.Clients = n }
}

// WithServers sets the number of CMFS servers (server-1..M).
func WithServers(n int) Option {
	return func(c *config) { c.spec.Servers = n }
}

// WithServerConfig overrides the CMFS disk model.
func WithServerConfig(cfg cmfs.Config) Option {
	return func(c *config) { c.spec.ServerConfig = &cfg }
}

// WithAccessCapacity overrides the star topology's access-link capacity.
func WithAccessCapacity(r qos.BitRate) Option {
	return func(c *config) { c.spec.AccessCapacity = r }
}

// WithPricing overrides the default cost tables (see cost.LoadPricing).
func WithPricing(p cost.Pricing) Option {
	return func(c *config) { c.spec.Pricing = &p }
}

// WithOfferCache sizes the candidate-set cache memoizing the static half of
// the negotiation procedure (step-2 variant filtering, the §6 QoS mapping
// and the §7 per-variant pricing) across negotiations: repeat requests for
// the same document from the same machine class skip straight to
// classification. The cache is on by default (size 0 selects
// offercache.DefaultSize); pass a negative size to disable it. Hits are
// provably coherent — registry mutations, pricing swaps and breaker
// transitions all invalidate — so outcomes are identical with the cache on
// or off.
func WithOfferCache(size int) Option {
	return func(c *config) { c.opts.OfferCache = size }
}

// WithHealthPolicy enables the QoS manager's per-server circuit breaker:
// consecutive commit failures quarantine a server for a cooldown, and
// FAILEDTRYLATER results carry the policy's RetryAfter hint.
func WithHealthPolicy(p core.HealthPolicy) Option {
	return func(c *config) { c.opts.Health = p }
}

// WithMetrics instruments the whole system with the given telemetry
// registry: the QoS manager records negotiation outcome counters and
// per-step latency histograms, every CMFS server and the network record
// admission decisions, and servers/clients built by Serve and Dial record
// per-RPC latency. A nil registry (telemetry.Noop) leaves the hot paths
// free of telemetry work.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(c *config) { c.opts.Metrics = reg }
}

// WithTracer installs a structured span tracer on the QoS manager (and on
// clients built by Dial): every negotiation step, skip, quarantine and
// redial emits a typed telemetry.Event.
func WithTracer(tr telemetry.Tracer) Option {
	return func(c *config) { c.opts.Tracer = tr }
}

// WithAdmission installs an SLO-driven admission controller on the system:
// the manager fleet's router sheds negotiation requests with FAILEDTRYLATER
// (and a load-derived RetryAfter hint) when the controller reports overload
// — once per request, before routing — and servers built by Serve refuse
// negotiation-class RPCs with a typed busy reply before any reservation
// work. When WithMetrics is also set, New instruments the controller. A nil
// controller
// disables admission control (the default): each gate is then a single nil
// check — the zero-overhead path.
func WithAdmission(c *admission.Controller) Option {
	return func(cfg *config) { cfg.spec.Admission = c }
}

// WithShards sets how many independent manager shards the system's fleet
// runs behind session-id routing (see internal/shard and
// DESIGN.md §14): new negotiations are placed round-robin, session
// operations route by session id, every shard reads the one document
// catalog and commits against the one server table (servers and circuit
// breaker), and tariff changes reach every shard before the call that made
// them returns. System.Fleet holds the fleet handle;
// System.Manager remains the single surface callers use. The default is one
// shard, which allocates session ids 1, 2, 3 …; n < 1 means 1.
func WithShards(n int) Option {
	return func(c *config) { c.spec.Shards = n }
}

// WithPolicy installs a policy on the QoS manager (see internal/policy and
// DESIGN.md §15) that orders both step 5's commitment attempts and the
// adaptation procedure's targets among offers the classifier ranked equal —
// same status, same OIF — instead of the fixed cost-then-key tie-break. The
// policy keeps no evidence: each tie run it orders carries its servers' rows
// of the server table, which records every commit outcome once and which
// every shard of a sharded system (WithShards) shares. Every shard consults
// this one object, so it must be safe for concurrent use. Nil — the default
// — keeps the paper's fixed order byte-for-byte.
func WithPolicy(p core.Policy) Option {
	return func(c *config) { c.opts.Policy = p }
}

// WithFaultInjector wraps every CMFS server and the transport system with
// the given fault injector before they are registered with the manager, so
// crashes, probabilistic failures and latency can be driven at runtime
// (System.Faults keeps the handle).
func WithFaultInjector(inj *faults.Injector) Option {
	return func(c *config) { c.spec.Faults = inj }
}

// System is an assembled news-on-demand prototype: the testbed's substrate
// and manager fleet (Registry, Network, Transit, Manager, Fleet, Servers,
// Clients, Pricing, Faults, Ledger, AddNewsArticle — see testbed.Bed), plus a
// profile store pre-loaded with the factory profiles and the wire and
// telemetry configuration Serve and Dial use.
type System struct {
	*testbed.Bed
	Profiles *profile.Store
	// Wire is the wire configuration Serve and Dial hand to the protocol
	// layer; the zero value selects the default stream cap. Set it before
	// Serve, as cmd/qosnegd does from -max-streams.
	Wire protocol.WireOptions
	// Metrics is the telemetry registry installed by WithMetrics, nil
	// otherwise. Serve and Dial instrument the wire layer with it.
	Metrics *telemetry.Registry
	// Tracer is the span tracer installed by WithTracer, nil otherwise.
	Tracer telemetry.Tracer
	// Admission is the controller installed by WithAdmission, nil
	// otherwise; Serve threads it into the protocol server's shed path.
	Admission *admission.Controller
}

// New assembles a system from the options; with none it builds the default
// two-client, two-server star topology.
func New(options ...Option) (*System, error) {
	cfg := config{opts: core.DefaultOptions()}
	for _, o := range options {
		o(&cfg)
	}
	cfg.spec.Options = &cfg.opts
	bed, err := testbed.New(cfg.spec)
	if err != nil {
		return nil, err
	}
	metrics := cfg.opts.Metrics
	cfg.spec.Admission.Instrument(metrics) // a no-op on a nil controller
	if metrics != nil {
		for _, srv := range bed.Servers {
			srv.Instrument(metrics)
		}
		bed.Network.Instrument(metrics)
		bed.Ledger.Instrument(metrics)
	}
	store := profile.NewStore()
	for _, p := range profile.DefaultProfiles() {
		if err := store.Save(p); err != nil {
			return nil, err
		}
	}
	return &System{
		Bed:       bed,
		Profiles:  store,
		Metrics:   metrics,
		Tracer:    cfg.opts.Tracer,
		Admission: cfg.spec.Admission,
	}, nil
}

// AddDocument registers an arbitrary document.
func (s *System) AddDocument(d media.Document) error { return s.Registry.Add(d) }

// Client returns the machine with the given id, or an error wrapping
// ErrClientNotFound.
func (s *System) Client(id string) (client.Machine, error) {
	m, ok := s.Clients[client.MachineID(id)]
	if !ok {
		return client.Machine{}, fmt.Errorf("%w: %q", ErrClientNotFound, id)
	}
	return m, nil
}

// Negotiate runs the negotiation procedure for a named client and a named
// stored profile, bounded by ctx.
func (s *System) Negotiate(ctx context.Context, clientID string, doc media.DocumentID, profileName string) (core.Result, error) {
	mach, err := s.Client(clientID)
	if err != nil {
		return core.Result{}, err
	}
	u, err := s.Profiles.Get(profileName)
	if err != nil {
		return core.Result{}, err
	}
	return s.Manager.NegotiateContext(ctx, mach, doc, u)
}

// NegotiateWith runs the negotiation procedure with an explicit machine and
// profile, bounded by ctx.
func (s *System) NegotiateWith(ctx context.Context, mach client.Machine, doc media.DocumentID, u profile.UserProfile) (core.Result, error) {
	return s.Manager.NegotiateContext(ctx, mach, doc, u)
}

// Monitor builds the adaptation monitor over the system's substrate.
func (s *System) Monitor() *adaptation.Monitor {
	servers := make([]*cmfs.Server, 0, len(s.Servers))
	for _, id := range s.ServerIDs() {
		servers = append(servers, s.Servers[id])
	}
	return adaptation.New(s.Manager, s.Network, servers...)
}

// Player builds a playout driver ticking once a second of clk.
func (s *System) Player(clk clock.Clock) *session.Player {
	return session.NewPlayer(clk, s.Manager, time.Second)
}

// Serve exposes the QoS manager over the wire protocol on l as cmd/qosnegd
// runs it: with Wire, Admission and Metrics, every session confirmed
// through it playing out in real time (protocol.AttachPlayout), and the
// adaptation monitor sweeping for QoS violations on the same clock
// (protocol.AttachMonitor), so a playing session whose server or path
// degrades is adapted without user involvement. It blocks until l is
// closed, then stops the monitor and then playout; the server's Close stops
// handlers.
func (s *System) Serve(l net.Listener) (*protocol.Server, error) {
	srv := protocol.NewServer(s.Manager, s.Registry,
		protocol.WithServerWire(s.Wire), protocol.WithServerAdmission(s.Admission))
	srv.Instrument(s.Metrics)
	defer protocol.AttachPlayout(srv, s.Manager).Stop()
	defer protocol.AttachMonitor(srv, s.Monitor())()
	return srv, srv.Serve(l)
}

// Dial connects a self-healing protocol client to a negotiation daemon.
func (s *System) Dial(ctx context.Context, addr string) (*protocol.Client, error) {
	c, err := protocol.Dial(ctx, addr, protocol.WithWire(s.Wire))
	if err != nil {
		return nil, err
	}
	if s.Metrics != nil || s.Tracer != nil {
		c.Instrument(s.Metrics, s.Tracer)
	}
	return c, nil
}
