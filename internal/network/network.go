// Package network simulates the communication substrate that connected the
// news-on-demand prototype's client and server machines (ATM links with
// resource reservation in the style of RSVP [Zha 95] / the native-mode ATM
// stack [Kes 95]). The QoS manager's negotiation step 5 asks "the transport
// system ... to reserve resources"; this package provides the link/topology
// model, QoS-aware path finding and per-link bandwidth reservation that the
// transport facade (package transport) builds on.
//
// A network is a directed graph of links, each with a bandwidth capacity,
// propagation delay, jitter contribution and loss rate. A path is feasible
// for a requested qos.NetworkQoS when every link has enough spare capacity
// for the average bit rate, the accumulated jitter stays within the jitter
// target, and the composed loss probability stays within the loss target.
//
// Experiments inject congestion by degrading a link's capacity; existing
// reservations that no longer fit are reported by Overcommitted and drive
// the adaptation procedure.
package network

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"qosneg/internal/ledger"
	"qosneg/internal/qos"
	"qosneg/internal/telemetry"
)

// NodeID names a network node: a client machine, a server machine or an
// interior switch.
type NodeID string

// LinkID names a directed link.
type LinkID string

// ErrNoPath is returned when no feasible path exists for a request.
var ErrNoPath = errors.New("network: no feasible path")

// ErrUnknownReservation is returned when releasing an unknown reservation.
var ErrUnknownReservation = errors.New("network: unknown reservation")

// Link is one directed edge of the topology.
type Link struct {
	ID       LinkID
	From, To NodeID
	// Capacity is the schedulable bandwidth of the link.
	Capacity qos.BitRate
	// Delay is the link's propagation + queueing delay contribution.
	Delay time.Duration
	// Jitter is the link's worst-case delay variation contribution.
	Jitter time.Duration
	// Loss is the link's packet loss probability.
	Loss float64
}

// Validate reports an error for inconsistent link parameters.
func (l Link) Validate() error {
	if l.ID == "" {
		return fmt.Errorf("network: empty link id")
	}
	if l.From == "" || l.To == "" || l.From == l.To {
		return fmt.Errorf("network link %s: bad endpoints (%s → %s)", l.ID, l.From, l.To)
	}
	if l.Capacity <= 0 {
		return fmt.Errorf("network link %s: non-positive capacity", l.ID)
	}
	if l.Delay < 0 || l.Jitter < 0 {
		return fmt.Errorf("network link %s: negative delay or jitter", l.ID)
	}
	if l.Loss < 0 || l.Loss >= 1 {
		return fmt.Errorf("network link %s: loss %g outside [0, 1)", l.ID, l.Loss)
	}
	return nil
}

// Path is an ordered sequence of link ids from a source to a destination.
type Path []LinkID

// ReservationID names a bandwidth reservation across a path.
type ReservationID uint64

// Reservation records reserved bandwidth along a path.
type Reservation struct {
	ID   ReservationID
	Path Path
	Rate qos.BitRate
}

// Network is the topology plus its reservation state. It is safe for
// concurrent use.
type Network struct {
	mu    sync.Mutex
	links map[LinkID]*linkState
	// nodes indexes the node set; out holds each node's outgoing links in
	// installation order, which is the order the walk tries them in.
	nodes map[NodeID]int
	out   [][]*linkState
	next  ReservationID
	resv  map[ReservationID]Reservation

	// w is the graph walk's scratch, reused under mu.
	w walker

	// Telemetry series, installed by Instrument; nil when uninstrumented.
	admitted *telemetry.Counter
	rejected *telemetry.Counter
	active   *telemetry.Gauge

	// led, when non-nil, records every Reserve/Release in the resource
	// ledger. Reservation ids are never reused, so a Release of an unknown
	// id is posted too — the ledger flags it as a double release.
	led *ledger.Ledger
}

// SetLedger installs a resource ledger on the network's reservation state;
// a nil ledger detaches.
func (n *Network) SetLedger(l *ledger.Ledger) {
	n.mu.Lock()
	n.led = l
	n.mu.Unlock()
}

// Instrument wires the network's reservation decisions into a telemetry
// registry: admit/reject counters and a live-reservation gauge. A nil
// registry is a no-op.
func (n *Network) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	admitted := reg.Counter("qosneg_network_admits_total",
		"Path bandwidth reservations admitted.")
	rejected := reg.Counter("qosneg_network_rejects_total",
		"Path bandwidth reservations rejected (path no longer feasible).")
	active := reg.Gauge("qosneg_network_active_reservations",
		"Currently held path reservations.")
	n.mu.Lock()
	n.admitted, n.rejected, n.active = admitted, rejected, active
	n.active.Set(int64(len(n.resv)))
	n.mu.Unlock()
}

type linkState struct {
	Link
	// to is the index of the node the link leads to.
	to          int
	reserved    qos.BitRate
	degradation float64
}

// New returns an empty network.
func New() *Network {
	return &Network{
		links: make(map[LinkID]*linkState),
		nodes: make(map[NodeID]int),
		resv:  make(map[ReservationID]Reservation),
	}
}

// nodeLocked returns a node's index, creating the node if it is new.
func (n *Network) nodeLocked(id NodeID) int {
	i, ok := n.nodes[id]
	if !ok {
		i = len(n.out)
		n.nodes[id] = i
		n.out = append(n.out, nil)
		n.w.visited = append(n.w.visited, false)
	}
	return i
}

// AddLink installs a directed link. Nodes are created implicitly.
func (n *Network) AddLink(l Link) error {
	if err := l.Validate(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.links[l.ID]; ok {
		return fmt.Errorf("network: duplicate link id %s", l.ID)
	}
	from := n.nodeLocked(l.From)
	ls := &linkState{Link: l, to: n.nodeLocked(l.To)}
	n.links[l.ID] = ls
	n.out[from] = append(n.out[from], ls)
	return nil
}

// AddDuplex installs the two directed links of a full-duplex connection,
// naming them id+":fwd" and id+":rev".
func (n *Network) AddDuplex(id LinkID, a, b NodeID, capacity qos.BitRate, delay, jitter time.Duration, loss float64) error {
	fwd := Link{ID: id + ":fwd", From: a, To: b, Capacity: capacity, Delay: delay, Jitter: jitter, Loss: loss}
	rev := Link{ID: id + ":rev", From: b, To: a, Capacity: capacity, Delay: delay, Jitter: jitter, Loss: loss}
	if err := n.AddLink(fwd); err != nil {
		return err
	}
	return n.AddLink(rev)
}

// Nodes returns the sorted node set.
func (n *Network) Nodes() []NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Link returns a link's static description.
func (n *Network) Link(id LinkID) (Link, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ls, ok := n.links[id]
	if !ok {
		return Link{}, false
	}
	return ls.Link, true
}

// Available returns a link's spare capacity under current reservations and
// degradation.
func (n *Network) Available(id LinkID) (qos.BitRate, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ls, ok := n.links[id]
	if !ok {
		return 0, false
	}
	return availableLocked(ls), true
}

func availableLocked(ls *linkState) qos.BitRate {
	eff := qos.BitRate(float64(ls.Capacity) * (1 - ls.degradation))
	if ls.reserved >= eff {
		return 0
	}
	return eff - ls.reserved
}

// PathMetrics aggregates the QoS a path delivers.
type PathMetrics struct {
	Hops   int
	Delay  time.Duration
	Jitter time.Duration
	Loss   float64
	// Bottleneck is the smallest spare capacity along the path.
	Bottleneck qos.BitRate
}

// linksMetrics computes the metrics of a path given as its links; caller
// holds the lock.
func linksMetrics(links []*linkState) PathMetrics {
	m := PathMetrics{Bottleneck: 1<<62 - 1}
	keep := 1.0
	for _, ls := range links {
		m.Hops++
		m.Delay += ls.Delay
		m.Jitter += ls.Jitter
		keep *= 1 - ls.Loss
		if a := availableLocked(ls); a < m.Bottleneck {
			m.Bottleneck = a
		}
	}
	m.Loss = 1 - keep
	return m
}

// resolveLocked looks a path's links up into the walker's resolve scratch;
// caller holds the lock.
func (n *Network) resolveLocked(p Path) ([]*linkState, error) {
	links := n.w.resolved[:0]
	for _, id := range p {
		ls, ok := n.links[id]
		if !ok {
			return nil, fmt.Errorf("network: unknown link %s in path", id)
		}
		links = append(links, ls)
	}
	n.w.resolved = links
	return links, nil
}

// Metrics returns the aggregate QoS of a path.
func (n *Network) Metrics(p Path) (PathMetrics, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	links, err := n.resolveLocked(p)
	if err != nil {
		return PathMetrics{}, err
	}
	return linksMetrics(links), nil
}

// feasibleLocked reports whether metrics m support the request q.
func feasibleLocked(m PathMetrics, q qos.NetworkQoS) bool {
	if m.Bottleneck < q.AvgBitRate {
		return false
	}
	if q.Jitter > 0 && m.Jitter > q.Jitter {
		return false
	}
	if q.LossRate > 0 && m.Loss > q.LossRate {
		return false
	}
	if q.Delay > 0 && m.Delay > q.Delay {
		return false
	}
	return true
}

// maxHops bounds the walk's depth. Topologies here are small (tens of
// nodes), so exhaustive enumeration under a depth bound is fine.
const maxHops = 8

// walker is the scratch of the one graph walk. It belongs to a Network and
// is only touched under its lock, so walks reuse it and allocate nothing
// once it has grown to the topology's size.
type walker struct {
	// stack is the path being extended; visited is indexed by node.
	stack   []*linkState
	visited []bool
	// found holds the feasible paths in discovery order, each a span of
	// links, where the paths are stored back to back.
	found []candidate
	links []*linkState
	// resolved is Reserve's and Metrics' lookup of a caller's path.
	resolved []*linkState
}

// candidate is one feasible path the walk found.
type candidate struct {
	start, end int
	metrics    PathMetrics
}

// better reports whether c ranks before d: fewer hops, then a larger
// bottleneck capacity.
func (c candidate) better(d candidate) bool {
	if c.metrics.Hops != d.metrics.Hops {
		return c.metrics.Hops < d.metrics.Hops
	}
	return c.metrics.Bottleneck > d.metrics.Bottleneck
}

// findLocked walks the graph from src towards dst, depth-first over each
// node's links in installation order, and collects the first 4k feasible
// loop-free paths into the walker; caller holds the lock. The result
// aliases the walker and is valid until the next walk.
func (n *Network) findLocked(src, dst NodeID, q qos.NetworkQoS, k int) ([]candidate, error) {
	if k <= 0 {
		k = 1
	}
	s, okS := n.nodes[src]
	d, okD := n.nodes[dst]
	if !okS || !okD {
		return nil, fmt.Errorf("%w: unknown endpoint %s or %s", ErrNoPath, src, dst)
	}
	w := &n.w
	w.stack, w.found, w.links = w.stack[:0], w.found[:0], w.links[:0]
	w.visited[s] = true
	n.walkLocked(s, d, q, 4*k)
	w.visited[s] = false
	if len(w.found) == 0 {
		return nil, fmt.Errorf("%w: %s → %s for %v", ErrNoPath, src, dst, q)
	}
	return w.found, nil
}

// walkLocked extends the walker's stack from node at; it stops once limit
// candidates are found (enough to choose the best k from).
func (n *Network) walkLocked(at, dst int, q qos.NetworkQoS, limit int) {
	w := &n.w
	if len(w.found) >= limit && len(w.stack) > 0 {
		return
	}
	if at == dst {
		if m := linksMetrics(w.stack); feasibleLocked(m, q) {
			start := len(w.links)
			w.links = append(w.links, w.stack...)
			w.found = append(w.found, candidate{start: start, end: len(w.links), metrics: m})
		}
		return
	}
	if len(w.stack) >= maxHops {
		return
	}
	for _, ls := range n.out[at] {
		// Prune links that cannot carry the rate at all.
		if w.visited[ls.to] || availableLocked(ls) < q.AvgBitRate {
			continue
		}
		w.visited[ls.to] = true
		w.stack = append(w.stack, ls)
		n.walkLocked(ls.to, dst, q, limit)
		w.stack = w.stack[:len(w.stack)-1]
		w.visited[ls.to] = false
	}
}

// FindPaths returns up to k loop-free paths from src to dst that are
// feasible for the request, ordered best-first: fewest hops, then largest
// bottleneck capacity, then the order the walk found them in. The paths are
// the best k of the first 4k feasible ones the walk finds. It returns
// ErrNoPath when none exists.
func (n *Network) FindPaths(src, dst NodeID, q qos.NetworkQoS, k int) ([]Path, error) {
	k = max(k, 1)
	n.mu.Lock()
	defer n.mu.Unlock()
	found, err := n.findLocked(src, dst, q, k)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(found, func(i, j int) bool { return found[i].better(found[j]) })
	if len(found) > k {
		found = found[:k]
	}
	out := make([]Path, len(found))
	for i, c := range found {
		out[i] = pathOf(n.w.links[c.start:c.end])
	}
	return out, nil
}

// pathOf copies a path's link ids out of the walker.
func pathOf(links []*linkState) Path {
	p := make(Path, len(links))
	for i, ls := range links {
		p[i] = ls.ID
	}
	return p
}

// Open finds a path for the request and reserves it in one critical
// section: the path is FindPaths(src, dst, q, k)[0], the reservation is
// what Reserve would grant on it, and the metrics are what Metrics would
// then report. No concurrent reservation can take the path's capacity
// between the choice and the charge. The reservation's own copy of the
// path is the only allocation.
func (n *Network) Open(src, dst NodeID, q qos.NetworkQoS, k int) (Reservation, PathMetrics, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	found, err := n.findLocked(src, dst, q, k)
	if err != nil {
		return Reservation{}, PathMetrics{}, err
	}
	best := found[0]
	for _, c := range found[1:] {
		if c.better(best) {
			best = c
		}
	}
	links := n.w.links[best.start:best.end]
	r := n.chargeLocked(links, q)
	return r, linksMetrics(links), nil
}

// Reserve reserves the request's average bit rate on every link of the
// path. It fails atomically: either every link is charged or none.
func (n *Network) Reserve(p Path, q qos.NetworkQoS) (Reservation, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	links, err := n.resolveLocked(p)
	if err != nil {
		n.rejected.Inc()
		return Reservation{}, err
	}
	if !feasibleLocked(linksMetrics(links), q) {
		n.rejected.Inc()
		return Reservation{}, fmt.Errorf("%w: path no longer feasible for %v", ErrNoPath, q)
	}
	return n.chargeLocked(links, q), nil
}

// chargeLocked reserves the request's average bit rate on a feasible path
// and records the reservation; caller holds the lock.
func (n *Network) chargeLocked(links []*linkState, q qos.NetworkQoS) Reservation {
	for _, ls := range links {
		ls.reserved += q.AvgBitRate
	}
	n.next++
	r := Reservation{ID: n.next, Path: pathOf(links), Rate: q.AvgBitRate}
	n.resv[r.ID] = r
	n.admitted.Inc()
	n.active.Set(int64(len(n.resv)))
	n.led.Acquire(ledger.KindNetwork, "", uint64(r.ID))
	return r
}

// Release frees a reservation's bandwidth on every link of its path.
func (n *Network) Release(id ReservationID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, ok := n.resv[id]
	if !ok {
		// Ids are never reused: an unknown release is a double release (or
		// a release of something never granted) — post it so an installed
		// ledger fails fast.
		n.led.Release(ledger.KindNetwork, "", uint64(id))
		return fmt.Errorf("%w: %d", ErrUnknownReservation, id)
	}
	for _, lid := range r.Path {
		if ls, ok := n.links[lid]; ok {
			ls.reserved -= r.Rate
			if ls.reserved < 0 {
				ls.reserved = 0
			}
		}
	}
	delete(n.resv, id)
	n.active.Set(int64(len(n.resv)))
	n.led.Release(ledger.KindNetwork, "", uint64(id))
	return nil
}

// ActiveReservations returns the number of live reservations.
func (n *Network) ActiveReservations() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.resv)
}

// SetLinkDegradation shrinks a link's effective capacity by the fraction in
// [0, 1); experiments use it to inject network congestion.
func (n *Network) SetLinkDegradation(id LinkID, fraction float64) error {
	if fraction < 0 || fraction >= 1 {
		return fmt.Errorf("network: degradation fraction %g outside [0, 1)", fraction)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	ls, ok := n.links[id]
	if !ok {
		return fmt.Errorf("network: unknown link %s", id)
	}
	ls.degradation = fraction
	return nil
}

// Overcommitted returns the reservations crossing any link whose effective
// capacity no longer covers its reserved bandwidth, largest rate first.
// The QoS manager's adaptation procedure treats these as QoS violations.
func (n *Network) Overcommitted() []Reservation {
	n.mu.Lock()
	defer n.mu.Unlock()
	over := make(map[LinkID]qos.BitRate) // excess per link
	for id, ls := range n.links {
		eff := qos.BitRate(float64(ls.Capacity) * (1 - ls.degradation))
		if ls.reserved > eff {
			over[id] = ls.reserved - eff
		}
	}
	if len(over) == 0 {
		return nil
	}
	var out []Reservation
	for _, r := range n.resv {
		for _, lid := range r.Path {
			if _, bad := over[lid]; bad {
				out = append(out, r)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rate != out[j].Rate {
			return out[i].Rate > out[j].Rate
		}
		return out[i].ID < out[j].ID
	})
	return out
}
