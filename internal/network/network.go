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
	"slices"
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

// ErrPathHeld refuses a plan that a route could carry but for the
// bandwidth other reservations hold on it now. It is an ErrNoPath.
var ErrPathHeld = fmt.Errorf("%w: every route that could carry it is held by reservations", ErrNoPath)

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
	ID ReservationID
	// Path is the route cache's copy, shared with every other reservation
	// on the same route, and must be treated as read-only. Reserve shares
	// it too when the caller's path is a cached route; any other path
	// (uncached pair, a loop, more than maxHops links) gets a copy of its
	// own. The cache holds each opened pair's loop-free paths of at most
	// maxHops links until the next AddLink, and a reservation keeps its
	// route alive until it is released.
	Path Path
	Rate qos.BitRate
}

// Network is the topology plus its reservation state. It is safe for
// concurrent use.
type Network struct {
	mu    sync.Mutex
	links map[LinkID]*linkState
	// nodes indexes the node set; out holds each node's outgoing links in
	// installation order, which is the order routes are enumerated in.
	nodes map[NodeID]int
	out   [][]*linkState
	next  ReservationID
	resv  map[ReservationID]held
	// routes caches each requested pair's routes (routesLocked); AddLink
	// clears it.
	routes map[pair][]route

	// w is the path scratch, reused under mu.
	w walker

	// rejected counts refused reservations, installed by Instrument; nil (a
	// no-op) when uninstrumented. Admits are the ids issued from next.
	rejected *telemetry.Counter

	// led, when non-nil, is the resource ledger the reservation table is
	// registered with, told of every Release of an unknown id.
	led *ledger.Ledger
}

// SetLedger registers the network's reservation table with a resource
// ledger, which reads it for its open count, its issued ids and its leaks.
// Reserve, Open and Release post nothing, but reservation ids are never
// reused, so a Release of an unknown id is a double release (or a release
// of something never granted) and is reported to the ledger as a
// violation. A nil ledger registers nothing and takes no reports.
func (n *Network) SetLedger(l *ledger.Ledger) {
	l.Register(ledger.KindNetwork, "", (*table)(n))
	n.mu.Lock()
	n.led = l
	n.mu.Unlock()
}

// table is the network as the ledger reads it: its reservation table, whose
// ids come from next.
type table Network

func (t *table) Tally() (uint64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return uint64(t.next), len(t.resv)
}

func (t *table) EachOpen(f func(uint64)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := range t.resv {
		f(uint64(id))
	}
}

// Instrument wires the network's reservation decisions into a telemetry
// registry: admit/reject counters and a live-reservation gauge. Admits and
// the gauge are read from the reservation table; only rejects, which no
// table keeps, are counted. A nil registry is a no-op.
func (n *Network) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Collect(telemetry.Collector{Name: "qosneg_network_admits_total", Help: "Path bandwidth reservations admitted.",
		Owner: n, Read: func(emit func(string, int64)) {
			issued, _ := (*table)(n).Tally()
			emit("", int64(issued))
		}})
	rejected := reg.Counter("qosneg_network_rejects_total",
		"Path bandwidth reservations rejected (path no longer feasible).")
	reg.Collect(telemetry.Collector{Name: "qosneg_network_active_reservations", Help: "Currently held path reservations.",
		Gauge: true, Owner: n, Read: func(emit func(string, int64)) { emit("", int64(n.ActiveReservations())) }})
	n.mu.Lock()
	n.rejected = rejected
	n.mu.Unlock()
}

type linkState struct {
	Link
	// to is the index of the node the link leads to.
	to          int
	reserved    qos.BitRate
	degradation float64
	// over marks the link overloaded during an Overcommitted scan.
	over bool
}

// held is a reservation's entry in the network's table: the route it
// charged and the rate it charged on every link.
type held struct {
	rt   *route
	rate qos.BitRate
}

// New returns an empty network.
func New() *Network {
	return &Network{
		links:  make(map[LinkID]*linkState),
		nodes:  make(map[NodeID]int),
		resv:   make(map[ReservationID]held),
		routes: make(map[pair][]route),
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
	clear(n.routes)
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
	return spare(effectiveLocked(ls), ls.reserved)
}

// spare is the capacity left on a link of effective capacity eff with
// reserved already taken.
func spare(eff, reserved qos.BitRate) qos.BitRate {
	if reserved >= eff {
		return 0
	}
	return eff - reserved
}

// effectiveLocked returns a link's capacity under its degradation.
func effectiveLocked(ls *linkState) qos.BitRate {
	return qos.BitRate(float64(ls.Capacity) * (1 - ls.degradation))
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
	return plannedMetrics(links, nil)
}

// plannedMetrics computes the metrics of a path given as its links as if
// the connections p plans were already charged (none when p is nil); caller
// holds the lock.
func plannedMetrics(links []*linkState, p *Plan) PathMetrics {
	m := PathMetrics{Bottleneck: 1<<62 - 1}
	keep := 1.0
	for _, ls := range links {
		m.Hops++
		m.Delay += ls.Delay
		m.Jitter += ls.Jitter
		keep *= 1 - ls.Loss
		reserved := ls.reserved
		if p != nil {
			reserved += p.on(ls)
		}
		if a := spare(effectiveLocked(ls), reserved); a < m.Bottleneck {
			m.Bottleneck = a
		}
	}
	m.Loss = 1 - keep
	return m
}

// resolveLocked looks a caller's path up into the walker's resolve scratch;
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

// maxHops bounds the length of a route. Topologies here are small (tens of
// nodes), so a pair's loop-free paths under the bound are few — one on a
// star, two on the dual path — and the route cache holds them all.
const maxHops = 8

// walker is the network's path scratch. It belongs to a Network and is only
// touched under its lock, so it is reused and allocates nothing once it has
// grown to the topology's size.
type walker struct {
	// stack is the path being extended and visited is indexed by node,
	// while routesLocked enumerates a pair's routes.
	stack   []*linkState
	visited []bool
	// found is FindPaths' feasible routes, in route order.
	found []candidate
	// resolved is Reserve's and Metrics' lookup of a caller's path.
	resolved []*linkState
}

// pair keys the route cache.
type pair struct{ src, dst NodeID }

// route is one cached path: its links, and the read-only copy of its ids
// that every reservation on it shares.
type route struct {
	links []*linkState
	path  Path
}

// candidate is one feasible route with its current metrics.
type candidate struct {
	rt      *route
	metrics PathMetrics
}

// better reports whether metrics m rank before o: fewer hops, then a larger
// bottleneck capacity.
func (m PathMetrics) better(o PathMetrics) bool {
	if m.Hops != o.Hops {
		return m.Hops < o.Hops
	}
	return m.Bottleneck > o.Bottleneck
}

// routesLocked returns every loop-free path of at most maxHops links from
// src to dst, in depth-first order over each node's links in installation
// order; caller holds the lock. The first request for a pair enumerates
// its routes and caches them until the next AddLink. Reservations and
// degradation never touch the cache: they change which routes are
// feasible, not which exist. Filtering the routes in this order by
// feasibility yields exactly the paths a depth-first walk pruning the
// links that cannot carry the rate would find, in the order it finds them:
// every path through a pruned link is infeasible.
func (n *Network) routesLocked(src, dst NodeID) ([]route, error) {
	if rs, ok := n.routes[pair{src, dst}]; ok {
		return rs, nil
	}
	s, okS := n.nodes[src]
	d, okD := n.nodes[dst]
	if !okS || !okD {
		return nil, fmt.Errorf("%w: unknown endpoint %s or %s", ErrNoPath, src, dst)
	}
	// One pass counts the routes and their links, a second lays them out
	// back to back in three exact-size arrays.
	var b routeBuild
	n.enumerateLocked(s, d, &b)
	if b.nroutes > 0 {
		b.routes = make([]route, 0, b.nroutes)
		b.links = make([]*linkState, 0, b.nlinks)
		b.ids = make(Path, 0, b.nlinks)
		n.enumerateLocked(s, d, &b)
	}
	n.routes[pair{src, dst}] = b.routes
	return b.routes, nil
}

// routeBuild collects one pair's routes: it only counts them until routes
// is allocated, then fills it.
type routeBuild struct {
	nroutes, nlinks int
	routes          []route
	links           []*linkState
	ids             Path
}

func (b *routeBuild) add(stack []*linkState) {
	if b.routes == nil {
		b.nroutes++
		b.nlinks += len(stack)
		return
	}
	start := len(b.links)
	b.links = append(b.links, stack...)
	for _, ls := range stack {
		b.ids = append(b.ids, ls.ID)
	}
	end := len(b.links)
	b.routes = append(b.routes, route{links: b.links[start:end:end], path: b.ids[start:end:end]})
}

// enumerateLocked hands b every loop-free path from node s to node d of at
// most maxHops links, depth-first; caller holds the lock.
func (n *Network) enumerateLocked(s, d int, b *routeBuild) {
	w := &n.w
	w.stack = w.stack[:0]
	w.visited[s] = true
	n.extendLocked(s, d, b)
	w.visited[s] = false
}

// extendLocked extends the walker's stack from node at.
func (n *Network) extendLocked(at, dst int, b *routeBuild) {
	w := &n.w
	if at == dst {
		b.add(w.stack)
		return
	}
	if len(w.stack) >= maxHops {
		return
	}
	for _, ls := range n.out[at] {
		if w.visited[ls.to] {
			continue
		}
		w.visited[ls.to] = true
		w.stack = append(w.stack, ls)
		n.extendLocked(ls.to, dst, b)
		w.stack = w.stack[:len(w.stack)-1]
		w.visited[ls.to] = false
	}
}

// noPath is the error of a request no route can carry.
func noPath(src, dst NodeID, q qos.NetworkQoS) error {
	return fmt.Errorf("%w: %s → %s for %v", ErrNoPath, src, dst, q)
}

// FindPaths returns up to k loop-free paths from src to dst that are
// feasible for the request, ordered best-first: fewest hops, then largest
// bottleneck capacity, then route order. The paths are the best k of the
// first 4k feasible routes. It returns ErrNoPath when none exists.
func (n *Network) FindPaths(src, dst NodeID, q qos.NetworkQoS, k int) ([]Path, error) {
	k = max(k, 1)
	n.mu.Lock()
	defer n.mu.Unlock()
	routes, err := n.routesLocked(src, dst)
	if err != nil {
		return nil, err
	}
	found := n.w.found[:0]
	for i := range routes {
		if m := linksMetrics(routes[i].links); feasibleLocked(m, q) {
			found = append(found, candidate{&routes[i], m})
			if len(found) == 4*k {
				break
			}
		}
	}
	n.w.found = found
	if len(found) == 0 {
		return nil, noPath(src, dst, q)
	}
	sort.SliceStable(found, func(i, j int) bool { return found[i].metrics.better(found[j].metrics) })
	if len(found) > k {
		found = found[:k]
	}
	out := make([]Path, len(found))
	for i, c := range found {
		out[i] = pathOf(c.rt.links)
	}
	return out, nil
}

// pathOf copies a path's link ids.
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
// between the choice and the charge. Open on a pair opened before
// allocates nothing; the first request for a pair allocates its routes.
func (n *Network) Open(src, dst NodeID, q qos.NetworkQoS, k int) (Reservation, PathMetrics, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	routes, err := n.routesLocked(src, dst)
	if err != nil {
		return Reservation{}, PathMetrics{}, err
	}
	best, m := pickLocked(routes, q, k, nil)
	if best == nil {
		return Reservation{}, PathMetrics{}, noPath(src, dst, q)
	}
	return n.chargeLocked(best, q), m.charged(q.AvgBitRate), nil
}

// pickLocked returns the best of the first 4k routes feasible for the
// request with p's connections charged (none when p is nil), and its
// metrics; nil when none is. Caller holds the lock.
func pickLocked(routes []route, q qos.NetworkQoS, k int, p *Plan) (*route, PathMetrics) {
	limit := 4 * max(k, 1)
	var best *route
	var bestM PathMetrics
	found := 0
	for i := range routes {
		m := plannedMetrics(routes[i].links, p)
		if !feasibleLocked(m, q) {
			continue
		}
		if best == nil || m.better(bestM) {
			best, bestM = &routes[i], m
		}
		if found++; found == limit {
			break
		}
	}
	return best, bestM
}

// heldLocked reports whether a route would carry the request on top of p's
// connections if no reservation held bandwidth on its links; caller holds
// the lock.
func heldLocked(routes []route, q qos.NetworkQoS, p *Plan) bool {
	for i := range routes {
		m := plannedMetrics(routes[i].links, p)
		m.Bottleneck = 1<<62 - 1
		for _, ls := range routes[i].links {
			m.Bottleneck = min(m.Bottleneck, spare(effectiveLocked(ls), p.on(ls)))
		}
		if feasibleLocked(m, q) {
			return true
		}
	}
	return false
}

// planWidth is how many connections a Plan holds without allocating: a
// document rarely has more continuous streams than this.
const planWidth = 4

// Plan is a caller-held tally of the connections an attempt plans to open:
// the route each would charge and its rate. Open after them would see each
// link's spare capacity reduced by exactly these charges. The zero value
// plans nothing. Network.Plan extends a Plan in place, and Truncate takes
// the latest charges back off, so one Plan serves a caller's successive
// attempts: each keeps the prefix it shares with the last. Copies share the
// charges past planWidth.
type Plan struct {
	n     int
	fixed [planWidth]charge
	// more holds the charges past planWidth; only a wider plan allocates.
	more []charge
}

// Len returns how many connections p plans.
func (p *Plan) Len() int { return p.n }

// Truncate keeps p's first n charges and drops the rest; n must be at
// most Len.
func (p *Plan) Truncate(n int) {
	p.n = n
	p.more = p.more[:max(n-planWidth, 0)]
}

// charge is one planned connection.
type charge struct {
	rt   *route
	rate qos.BitRate
}

// add extends p by a charge of rate on rt.
func (p *Plan) add(rt *route, rate qos.BitRate) {
	if p.n < planWidth {
		p.fixed[p.n] = charge{rt, rate}
	} else {
		p.more = append(p.more[:p.n-planWidth], charge{rt, rate})
	}
	p.n++
}

// on returns the rate p plans on one link.
func (p *Plan) on(ls *linkState) (rate qos.BitRate) {
	for i := range min(p.n, planWidth) {
		rate += p.fixed[i].on(ls)
	}
	for i := range p.more {
		rate += p.more[i].on(ls)
	}
	return rate
}

// on returns the rate c charges on one link.
func (c *charge) on(ls *linkState) (rate qos.BitRate) {
	for _, l := range c.rt.links {
		if l == ls {
			rate += c.rate
		}
	}
	return rate
}

// Plan is Open without the reservation: it picks the route Open would
// charge for the request if the connections p tallies were already open,
// extends p by that route and returns the metrics Open would then report.
// It charges nothing, allocates nothing on a pair opened before (nor
// within planWidth charges), and consumes no reservation id; a later Open
// may still pick another route, or refuse, if a reservation or a
// degradation came in between. Plan refuses as Open would, leaving p as it
// was, with one distinction: when a route would fit but for the bandwidth
// other reservations hold on it now, the refusal is ErrPathHeld, which
// allocates nothing.
func (n *Network) Plan(src, dst NodeID, q qos.NetworkQoS, k int, p *Plan) (PathMetrics, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	routes, err := n.routesLocked(src, dst)
	if err != nil {
		return PathMetrics{}, err
	}
	best, m := pickLocked(routes, q, k, p)
	if best == nil {
		if heldLocked(routes, q, p) {
			return PathMetrics{}, ErrPathHeld
		}
		return PathMetrics{}, noPath(src, dst, q)
	}
	p.add(best, q.AvgBitRate)
	return m.charged(q.AvgBitRate), nil
}

// charged returns the metrics of a feasible path after rate is charged on
// it: every link had at least the bottleneck spare, so each loses rate and
// the bottleneck with them. An empty path has no link to charge.
func (m PathMetrics) charged(rate qos.BitRate) PathMetrics {
	if m.Hops > 0 {
		m.Bottleneck -= rate
	}
	return m
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
	return n.chargeLocked(n.routeOfLocked(links), q), nil
}

// routeOfLocked returns the cached route with exactly these links, so a
// reservation on it shares the route's Path; a path no cached route
// matches gets a route of its own. Caller holds the lock.
func (n *Network) routeOfLocked(links []*linkState) *route {
	if len(links) > 0 {
		routes := n.routes[pair{links[0].From, links[len(links)-1].To}]
		for i := range routes {
			if slices.Equal(routes[i].links, links) {
				return &routes[i]
			}
		}
	}
	return &route{links: slices.Clone(links), path: pathOf(links)}
}

// chargeLocked reserves the request's average bit rate on every link of a
// feasible route and records the reservation; caller holds the lock.
func (n *Network) chargeLocked(rt *route, q qos.NetworkQoS) Reservation {
	for _, ls := range rt.links {
		ls.reserved += q.AvgBitRate
	}
	n.next++
	n.resv[n.next] = held{rt: rt, rate: q.AvgBitRate}
	return Reservation{ID: n.next, Path: rt.path, Rate: q.AvgBitRate}
}

// Release frees a reservation's bandwidth on every link of its path.
func (n *Network) Release(id ReservationID) error {
	n.mu.Lock()
	h, ok := n.resv[id]
	if !ok {
		led := n.led
		n.mu.Unlock()
		// Ids are never reused: an unknown release is a double release (or
		// a release of something never granted), which an installed ledger
		// reports at once.
		led.BadRelease(ledger.KindNetwork, "", uint64(id))
		return fmt.Errorf("%w: %d", ErrUnknownReservation, id)
	}
	for _, ls := range h.rt.links {
		ls.reserved -= h.rate
		if ls.reserved < 0 {
			ls.reserved = 0
		}
	}
	delete(n.resv, id)
	n.mu.Unlock()
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
	var overloaded bool
	for _, links := range n.out {
		for _, ls := range links {
			ls.over = ls.reserved > effectiveLocked(ls)
			overloaded = overloaded || ls.over
		}
	}
	if !overloaded {
		return nil
	}
	var out []Reservation
	for id, h := range n.resv {
		for _, ls := range h.rt.links {
			if ls.over {
				out = append(out, Reservation{ID: id, Path: h.rt.path, Rate: h.rate})
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
