// Package faults is a deterministic fault injector for the QoS manager's
// substrate: it wraps the media-server and transport interfaces the
// manager commits against (core.MediaServer, core.Transport) and injects
// server crashes and restarts, probabilistic admission and connect
// failures, latency, and crash-between-Reserve-and-Connect — the failure
// model the negotiation procedure's FAILEDTRYLATER / FAILEDWITHOUTOFFER
// statuses and the manager's server quarantine are tested against.
//
// Step 5 plans an offer before it reserves it. A crash is state, so the
// wrappers' Plan answers it as Reserve and Connect do. Injected latency,
// probabilistic failures and scheduled crashes are events of a
// reservation: they act on Reserve and Connect only, so an offer whose plan
// fits can still be refused by them, and then rolls back.
//
// All randomness comes from one seeded source, so a chaos run with a given
// seed replays the same fault schedule every time. Injected latency is a
// sleep on the injector's clock: real time by default, virtual time on a
// Sim clock (SetClock).
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"qosneg/internal/clock"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/qos"
	"qosneg/internal/transport"
)

// ErrInjected marks a probabilistically injected failure; it is
// deliberately NOT core.ErrServerDown, so the manager classifies it as a
// transient capacity failure (feeding the consecutive-failure breaker)
// rather than hard down evidence.
var ErrInjected = errors.New("faults: injected failure")

// Injector is the root of a fault domain: one seeded random source plus
// the set of wrapped servers and transports, and the node-partition map
// crashed servers register in.
type Injector struct {
	clk        clock.Clock
	mu         sync.Mutex
	rng        *rand.Rand
	down       map[network.NodeID]bool
	servers    map[media.ServerID]*Server
	transports []*Transport
}

// New builds an injector whose fault schedule is fully determined by seed.
func New(seed int64) *Injector {
	return &Injector{
		clk:     clock.Wall{},
		rng:     rand.New(rand.NewSource(seed)),
		down:    make(map[network.NodeID]bool),
		servers: make(map[media.ServerID]*Server),
	}
}

// chance draws from the injector's seeded source.
func (in *Injector) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64() < p
}

func (in *Injector) setNodeDown(node network.NodeID, down bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if down {
		in.down[node] = true
	} else {
		delete(in.down, node)
	}
}

func (in *Injector) nodeDown(node network.NodeID) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.down[node]
}

// WrapServer interposes the injector between the manager and a media
// server attached at node; register the returned wrapper with
// Manager.AddServer in place of the raw server.
func (in *Injector) WrapServer(s core.MediaServer, node network.NodeID) *Server {
	ws := &Server{inner: s, inj: in, node: node, live: make(map[cmfs.ReservationID]bool)}
	in.mu.Lock()
	in.servers[s.ID()] = ws
	in.mu.Unlock()
	return ws
}

// WrapTransport interposes the injector on the connection-establishment
// path; crashed servers' nodes refuse connects through it.
func (in *Injector) WrapTransport(t core.Transport) *Transport {
	wt := &Transport{inner: t, inj: in}
	in.mu.Lock()
	in.transports = append(in.transports, wt)
	in.mu.Unlock()
	return wt
}

// Server returns the wrapped server with the given id.
func (in *Injector) Server(id media.ServerID) (*Server, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	s, ok := in.servers[id]
	return s, ok
}

// Servers returns every wrapped server, sorted by id.
func (in *Injector) Servers() []*Server {
	in.mu.Lock()
	out := make([]*Server, 0, len(in.servers))
	for _, s := range in.servers {
		out = append(out, s)
	}
	in.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Crash crashes the named server; it reports whether the server is known.
func (in *Injector) Crash(id media.ServerID) bool {
	s, ok := in.Server(id)
	if ok {
		s.Crash()
	}
	return ok
}

// Restart restarts the named server; it reports whether the server is
// known.
func (in *Injector) Restart(id media.ServerID) bool {
	s, ok := in.Server(id)
	if ok {
		s.Restart()
	}
	return ok
}

// SetReserveFailure sets the probabilistic Reserve failure rate on every
// wrapped server.
func (in *Injector) SetReserveFailure(p float64) {
	for _, s := range in.Servers() {
		s.SetReserveFailure(p)
	}
}

// SetConnectFailure sets the probabilistic Connect failure rate on every
// wrapped transport.
func (in *Injector) SetConnectFailure(p float64) {
	in.mu.Lock()
	ts := append([]*Transport(nil), in.transports...)
	in.mu.Unlock()
	for _, t := range ts {
		t.SetConnectFailure(p)
	}
}

// SetClock makes injected latency a sleep on clk instead of real time; on
// a Sim clock every Reserve and Connect must then run in an engine process.
// Call it before the wrapped servers and transports see traffic.
func (in *Injector) SetClock(clk clock.Clock) { in.clk = clk }

// SetLatency injects a fixed latency into every wrapped server Reserve and
// transport Connect.
func (in *Injector) SetLatency(d time.Duration) {
	for _, s := range in.Servers() {
		s.SetLatency(d)
	}
	in.mu.Lock()
	ts := append([]*Transport(nil), in.transports...)
	in.mu.Unlock()
	for _, t := range ts {
		t.SetLatency(d)
	}
}

// Server wraps a core.MediaServer with fault injection. A crashed server
// loses its reservation state (the inner server's admissions are released,
// as a real restart would) and refuses Plan, Reserve and Release with
// core.ErrServerDown until Restart; its attachment node also refuses
// transport plans and connects, so in-flight commits fail between Reserve
// and Connect exactly as against a machine that died mid-negotiation.
// Injected reserve failures, latency and CrashAfterReserves act on Reserve
// alone: Plan draws nothing from the injector's random source.
type Server struct {
	inner core.MediaServer
	inj   *Injector
	node  network.NodeID

	mu           sync.Mutex
	down         bool
	reserveFailP float64
	latency      time.Duration
	// crashAfter, when > 0, counts down successful Reserves; the Reserve
	// that brings it to zero crashes the server right after granting —
	// the crash-between-Reserve-and-Connect window.
	crashAfter int
	// live tracks reservations granted through this wrapper, so a crash
	// can drop them from the inner server (state loss).
	live map[cmfs.ReservationID]bool
}

// ID returns the inner server's id.
func (s *Server) ID() media.ServerID { return s.inner.ID() }

// Config returns the inner server's disk model.
func (s *Server) Config() cmfs.Config { return s.inner.Config() }

// ActiveStreams returns the inner server's live stream count.
func (s *Server) ActiveStreams() int { return s.inner.ActiveStreams() }

// Utilization returns the inner server's disk-round utilization.
func (s *Server) Utilization() float64 { return s.inner.Utilization() }

// Node returns the server's network attachment point.
func (s *Server) Node() network.NodeID { return s.node }

// Down reports whether the server is currently crashed.
func (s *Server) Down() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// SetReserveFailure makes each Reserve fail with probability p (drawn from
// the injector's seeded source) even while the server is up.
func (s *Server) SetReserveFailure(p float64) {
	s.mu.Lock()
	s.reserveFailP = p
	s.mu.Unlock()
}

// SetLatency injects a fixed delay into every Reserve.
func (s *Server) SetLatency(d time.Duration) {
	s.mu.Lock()
	s.latency = d
	s.mu.Unlock()
}

// CrashAfterReserves schedules a crash immediately after the n-th next
// successful Reserve: the reservation is granted, then lost — the
// commit-in-progress observes the crash on its Connect (or on the next
// choice's Reserve) and must roll back.
func (s *Server) CrashAfterReserves(n int) {
	s.mu.Lock()
	s.crashAfter = n
	s.mu.Unlock()
}

// Crash takes the server down: pending reservation state is lost (released
// on the inner server), Reserve/Release refuse with core.ErrServerDown,
// and the attachment node refuses transport connects.
func (s *Server) Crash() {
	s.mu.Lock()
	s.down = true
	s.crashAfter = 0
	ids := make([]cmfs.ReservationID, 0, len(s.live))
	for id := range s.live {
		ids = append(ids, id)
	}
	s.live = make(map[cmfs.ReservationID]bool)
	s.mu.Unlock()
	for _, id := range ids {
		s.inner.Release(id)
	}
	s.inj.setNodeDown(s.node, true)
}

// Restart brings a crashed server back empty: it accepts new work but
// remembers nothing reserved before the crash.
func (s *Server) Restart() {
	s.mu.Lock()
	s.down = false
	s.mu.Unlock()
	s.inj.setNodeDown(s.node, false)
}

// Plan answers step 5's plan as Reserve would without the injected faults:
// down while the server is crashed, and otherwise the inner server's
// answer. Latency, probabilistic failures and CrashAfterReserves act on
// Reserve only, so an offer whose plan fits can still be refused by them
// when it reserves.
func (s *Server) Plan(q qos.NetworkQoS, p cmfs.Plan) (cmfs.Plan, error) {
	if s.Down() {
		return p, fmt.Errorf("%w: %s is crashed", core.ErrServerDown, s.ID())
	}
	return s.inner.Plan(q, p)
}

// Reserve runs the inner admission test unless the server is down or an
// injected failure fires.
func (s *Server) Reserve(q qos.NetworkQoS) (cmfs.Reservation, error) {
	s.mu.Lock()
	latency, down, failP := s.latency, s.down, s.reserveFailP
	s.mu.Unlock()
	if latency > 0 {
		s.inj.clk.Sleep(latency)
	}
	if down {
		return cmfs.Reservation{}, fmt.Errorf("%w: %s is crashed", core.ErrServerDown, s.ID())
	}
	if s.inj.chance(failP) {
		return cmfs.Reservation{}, fmt.Errorf("%w: reserve on %s", ErrInjected, s.ID())
	}
	res, err := s.inner.Reserve(q)
	if err != nil {
		return res, err
	}
	s.mu.Lock()
	if s.down {
		// Crash raced the inner Reserve: its live-set snapshot predates
		// this reservation, so nothing else will ever release it — undo
		// the grant here or the stream leaks past the restart.
		s.mu.Unlock()
		s.inner.Release(res.ID)
		return cmfs.Reservation{}, fmt.Errorf("%w: %s is crashed", core.ErrServerDown, s.ID())
	}
	s.live[res.ID] = true
	crashNow := false
	if s.crashAfter > 0 {
		s.crashAfter--
		crashNow = s.crashAfter == 0
	}
	s.mu.Unlock()
	if crashNow {
		s.Crash()
	}
	return res, nil
}

// Release frees a reservation; on a crashed server the state is already
// gone and core.ErrServerDown is returned (the manager ignores release
// errors, mirroring a lost release message).
func (s *Server) Release(id cmfs.ReservationID) error {
	s.mu.Lock()
	down := s.down
	delete(s.live, id)
	s.mu.Unlock()
	if down {
		return fmt.Errorf("%w: %s is crashed", core.ErrServerDown, s.ID())
	}
	return s.inner.Release(id)
}

// Transport wraps a core.Transport with fault injection: plans and
// connects to or from a crashed server's node refuse with
// core.ErrServerDown, and probabilistic connect failures simulate
// path-reservation races; those, and injected latency, act on Connect
// alone. Close always reaches the inner transport, so rollback never
// leaks.
type Transport struct {
	inner core.Transport
	inj   *Injector

	mu           sync.Mutex
	connectFailP float64
	latency      time.Duration
}

// SetConnectFailure makes each Connect fail with probability p.
func (t *Transport) SetConnectFailure(p float64) {
	t.mu.Lock()
	t.connectFailP = p
	t.mu.Unlock()
}

// SetLatency injects a fixed delay into every Connect.
func (t *Transport) SetLatency(d time.Duration) {
	t.mu.Lock()
	t.latency = d
	t.mu.Unlock()
}

// Plan answers step 5's plan as Connect would without the injected faults:
// refused while an endpoint is down, and otherwise the inner transport's
// answer. Latency and probabilistic failures act on Connect only.
func (t *Transport) Plan(src, dst network.NodeID, q qos.NetworkQoS, p *network.Plan) (network.PathMetrics, error) {
	if err := t.unreachable(src, dst); err != nil {
		return network.PathMetrics{}, err
	}
	return t.inner.Plan(src, dst, q, p)
}

// unreachable refuses a connection with a crashed server's node at either
// end.
func (t *Transport) unreachable(src, dst network.NodeID) error {
	for _, node := range [2]network.NodeID{src, dst} {
		if t.inj.nodeDown(node) {
			return fmt.Errorf("%w: node %s unreachable", core.ErrServerDown, node)
		}
	}
	return nil
}

// Connect establishes a connection unless an endpoint is down or an
// injected failure fires.
func (t *Transport) Connect(src, dst network.NodeID, q qos.NetworkQoS) (transport.Connection, error) {
	t.mu.Lock()
	latency, failP := t.latency, t.connectFailP
	t.mu.Unlock()
	if latency > 0 {
		t.inj.clk.Sleep(latency)
	}
	if err := t.unreachable(src, dst); err != nil {
		return transport.Connection{}, err
	}
	if t.inj.chance(failP) {
		return transport.Connection{}, fmt.Errorf("%w: connect %s -> %s", ErrInjected, src, dst)
	}
	return t.inner.Connect(src, dst, q)
}

// Close tears down a connection; never injected, so rollback always
// releases network state.
func (t *Transport) Close(c transport.Connection) error { return t.inner.Close(c) }
