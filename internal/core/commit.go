package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cmfs"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/offer"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/telemetry"
	"qosneg/internal/transport"
)

// commitResult is the outcome of one step-5 pass: the first offer that
// committed, if any, and a tally of the attempts that did not.
type commitResult struct {
	ok     bool
	chosen offer.Ranked
	commit commitment
	// rank is chosen's classical position in its set, for the policy
	// metrics; only set meaningfully when a policy is installed.
	rank int
	// Failed attempts by cause (a down server counts once), offers skipped
	// for touching a down server, and the longest quarantine left on one.
	downs, capacities, constraints, skipped int
	retryAfter                              time.Duration
}

// commitFirst is step 5, shared by negotiation and adaptation: it attempts
// resource commitment for the ranked offers — "at first ... only the offers
// which satisfy the cost and the QoS requested by the user", then the others,
// "always in the order defined above" — and stops at the first that commits,
// passing over the offer with skip's key (the one an adaptation is leaving),
// compared by offer.CompareKeys, which builds no string.
// The committed offer's hold is copied into spare when its capacity
// suffices (an adaptation hands over the array of the commitment it
// withdrew), and into an exact-size slice otherwise.
// A server that fails as down is attempted at most once per pass however a
// policy orders the attempts: the dead set keys on the server and marks it
// idempotently, so the bookkeeping is independent of iteration order.
//
// Without a policy both passes read the one view under the acceptable-set
// predicate, so a pass that commits its first offer orders nothing past it;
// a policy permutes ties within each set, so the two sets are materialized
// for it from the sorted list. A canceled ctx returns its error.
func (m *Manager) commitFirst(ctx context.Context, mach *client.Machine, doc *media.Document, u *profile.UserProfile, ranked *offer.Classified, skip *offer.SystemOffer, spare []heldChoice, pol Policy, procedure string) (commitResult, error) {
	var c commitResult
	var dead map[media.ServerID]bool
	last := m.carries.get()
	defer m.carries.put(last)
	var groups [2][]offer.Ranked
	if pol != nil {
		groups[0], groups[1] = offer.Partition(ranked.All(), u)
	}
	for pass, group := range groups {
		group, ranks := m.policyOrder(group, u.Desired.Cost.Guarantee, pol, procedure)
		n := len(group)
		if pol == nil {
			n = ranked.Len()
		}
		for i := range n {
			var r offer.Ranked
			if pol != nil {
				r = group[i]
			} else if r = ranked.At(i); r.Acceptable(u) != (pass == 0) {
				continue
			}
			if skip != nil && offer.CompareKeys(r.SystemOffer, skip) == 0 {
				continue
			}
			if id, onDead := offerOnDead(r, dead); onDead {
				if m.opts.Tracer != nil {
					m.span(telemetry.Event{Step: telemetry.StepSkipDead, Offer: r.Key(), Server: string(id)})
				}
				m.met.commitSkips.Inc()
				c.skipped++
				continue
			}
			cm, fail := m.tryCommit(ctx, mach, doc, u, r, last, spare)
			if fail.cause == CauseNone {
				c.ok, c.chosen, c.commit, c.rank = true, r, cm, i
				if ranks != nil {
					c.rank = ranks[i]
				}
				return c, nil
			}
			ctxErr := ctx.Err()
			if m.opts.Tracer != nil {
				server, status, detail := string(fail.server), fail.cause.String(), fail.String()
				if ctxErr != nil {
					server, status, detail = "", "canceled", ctxErr.Error()
				}
				m.span(telemetry.Event{Step: telemetry.StepCommitment, Offer: r.Key(), Server: server, Status: status, Detail: detail})
			}
			if ctxErr != nil {
				return c, ctxErr
			}
			switch fail.cause {
			case CauseServerDown:
				if !dead[fail.server] {
					if dead == nil {
						dead = make(map[media.ServerID]bool)
					}
					dead[fail.server] = true
					c.downs++
				}
				if rem, ok := m.Quarantined(fail.server); ok && rem > c.retryAfter {
					c.retryAfter = rem
				}
			case CauseCapacity:
				c.capacities++
			case CauseConstraint:
				c.constraints++
			}
		}
	}
	return c, nil
}

// offerOnDead reports whether any choice of the offer is served by a
// server already seen down this negotiation.
func offerOnDead(r offer.Ranked, dead map[media.ServerID]bool) (media.ServerID, bool) {
	if len(dead) == 0 {
		return "", false
	}
	for _, ch := range r.Choices {
		if dead[ch.Variant.Server] {
			return ch.Variant.Server, true
		}
	}
	return "", false
}

// planWidth is how many choices a pass plans, and an attempt holds, in
// fixed arrays on the stack: a news article has four monomedia. A wider
// document's plan and hold spill to the heap.
const planWidth = 4

// plannedChoice is step 5's plan for one choice of an offer, at the same
// index: its server as looked up, with the breaker generation its success
// evidence is stamped with; the network QoS its stream needs; the server's
// tally after it; and the delay and jitter of its planned connection,
// overwritten by the held connection's where that took another route.
type plannedChoice struct {
	entry         serverEntry
	gen           uint64
	q             qos.NetworkQoS
	tally         cmfs.Plan
	delay, jitter time.Duration
}

// streamQoS maps a chosen variant to its network QoS through the pointer,
// where the value-receiver media.Variant.NetworkQoS would copy the variant.
func streamQoS(v *media.Variant) qos.NetworkQoS { return qos.MapSetting(v.QoS, v.Blocks) }

// lastPlan carries a pass's last plan to its next attempt. A plan-refused
// attempt changes nothing the plan reads, so an offer sharing its first
// choices with the last one planned reuses their plan, and the refusal
// too when it shares the choice that was refused; it plans only from the
// first choice they differ in. Only another caller's reservations, a
// degradation or a fault can change the substrate in between, and a plan
// is a snapshot that reserving re-checks anyway.
type lastPlan struct {
	choices []offer.Choice
	// clean is how many leading choices planned clean.
	clean int
	plan  [planWidth]plannedChoice
	// routes is the network plan of the clean choices, extended in place;
	// charges[i] is how many connections it held after choice i.
	routes  network.Plan
	charges [planWidth]uint8
	// refused, when its cause is set, is how the plan of choice clean was
	// refused.
	refused commitFailure
}

// carryList recycles the passes' plan carries. The transport extends a
// carry's network plan through a pointer, passed through an interface, so
// a carry lives on the heap; a pass takes one here and gives it back when
// it ends, so the list holds as many as passes ever ran at once. It is a
// free list, not a sync.Pool: a garbage collection empties a pool, and a
// race-detector build drops a quarter of what is put back, and either
// shows as an allocation in the negotiation's allocation gates.
type carryList struct {
	mu   sync.Mutex
	free []*lastPlan
}

// get returns an empty carry.
func (c *carryList) get() *lastPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.free)
	if n == 0 {
		return new(lastPlan)
	}
	l := c.free[n-1]
	c.free = c.free[:n-1]
	return l
}

// put empties a carry, so the next pass starts with no plan, and keeps it
// for that pass.
func (c *carryList) put(l *lastPlan) {
	l.choices, l.clean, l.refused = nil, 0, commitFailure{}
	l.routes.Truncate(0)
	c.mu.Lock()
	c.free = append(c.free, l)
	c.mu.Unlock()
}

// carry moves the last plan over to the offer's attempt: it keeps the
// leading choices the two offers share that planned clean, with the
// network plan truncated to them, and the refusal that followed them if
// the offers share the refused choice too.
func (l *lastPlan) carry(r offer.Ranked) {
	prev := l.choices
	l.choices = r.Choices
	same := func(i int) bool {
		return i < len(prev) && i < len(r.Choices) &&
			prev[i].Variant.ID == r.Choices[i].Variant.ID && prev[i].Variant.Server == r.Choices[i].Variant.Server
	}
	keep := 0
	for keep < l.clean && same(keep) {
		keep++
	}
	if keep < l.clean || !same(keep) {
		l.refused = commitFailure{}
	}
	l.clean = keep
	if keep == 0 {
		l.routes.Truncate(0)
	} else {
		l.routes.Truncate(int(l.charges[keep-1]))
	}
}

// tryCommit is step 5 for one offer: "the first offer whose every choice
// fits a capacity snapshot". It plans every choice, in order, against each
// substrate's own admission rule — the server's disk-round test and the
// network's route choice, each on top of the offer's earlier choices — and
// checks the profile's start-delay and synchronization bounds on the
// planned routes. Only an offer whose plan fits is reserved. It returns a
// zero failure when everything committed, or a typed failure cause:
// server-down, capacity shortage, hard constraint, or cancellation.
//
// A refusal the plan finds touches no substrate, and records the evidence
// a reserve-and-rollback walk would have: the server table gets a success
// for each choice planned before the refusal, then the refusal. A path
// that other reservations hold is the exception: the attempt then walks on
// as reservations, and the transport refuses it or not. Server-attributable
// failures feed the breaker, so quarantines accrue no matter which entry
// point (negotiate, renegotiate, adapt) drove the attempt.
func (m *Manager) tryCommit(ctx context.Context, mach *client.Machine, doc *media.Document, u *profile.UserProfile, r offer.Ranked, last *lastPlan, spare []heldChoice) (commitment, commitFailure) {
	var plan []plannedChoice
	if len(r.Choices) > planWidth {
		// A wider offer plans on the heap and is not carried over.
		wide := m.carries.get()
		defer m.carries.put(wide)
		plan, last = make([]plannedChoice, len(r.Choices)), wide
	} else {
		plan = last.plan[:len(r.Choices)]
	}
	last.carry(r)
	g := u.Desired.Cost.Guarantee
	// One read of the table gives every choice its server, its evidence
	// generation and its quarantine: a quarantine that trips after it bumps
	// the generation, so it outlives this attempt's success. Planning has
	// no sleep point, so this is the table each choice would read in turn.
	// A carried refusal ends the walk at choice last.clean, so no row past
	// it is read.
	read := r.Choices
	if last.refused.cause != CauseNone {
		read = read[:last.clean+1]
	}
	quarantined, left := m.servers.lookupOffer(read, plan, m.clk)
	routes := &last.routes
	for i := range r.Choices {
		if err := ctx.Err(); err != nil {
			return commitment{}, m.planRefused(r, plan[:i], g, commitFailure{cause: CauseCanceled, kind: refusedCanceled, err: err})
		}
		sid := r.Choices[i].Variant.Server
		if i == quarantined {
			// No new evidence — the breaker already tripped — so this is
			// not recorded against the server again.
			return commitment{}, m.planRefused(r, plan[:i], g, commitFailure{cause: CauseServerDown, kind: refusedQuarantined, server: sid, left: left})
		}
		pc := &plan[i]
		if pc.entry.server == nil {
			return commitment{}, m.planRefused(r, plan[:i], g, commitFailure{cause: CauseServerDown, kind: refusedUnregistered, server: sid})
		}
		if i < last.clean {
			continue
		}
		if last.refused.cause != CauseNone {
			return commitment{}, m.planRefused(r, plan[:i], g, last.refused)
		}
		pc.q, pc.tally = streamQoS(r.Choices[i].Variant), cmfs.Plan{}
		for j := i - 1; j >= 0; j-- {
			if r.Choices[j].Variant.Server == sid {
				pc.tally = plan[j].tally
				break
			}
		}
		tally, err := pc.entry.server.Plan(pc.q, pc.tally)
		if err != nil {
			last.refused = planRefusal(sid, tally, err)
			return commitment{}, m.planRefused(r, plan[:i], g, last.refused)
		}
		pc.tally = tally
		pm, err := m.transport.Plan(pc.entry.node, mach.Node, pc.q, routes)
		if err != nil {
			if errors.Is(err, network.ErrPathHeld) {
				// Bandwidth on a path is taken and given back by the
				// client's other negotiations within a round trip: a
				// snapshot that finds it held is not final. The attempt
				// reserves the choices planned so far and walks the rest
				// as reservations, so the transport decides when it gets
				// there.
				last.clean = 0
				return m.reserve(ctx, mach, doc, u, r, plan[:i], spare)
			}
			last.refused = commitFailure{cause: refusalCause(err), kind: refusedConnect, server: sid, err: err, from: pc.entry.node, to: mach.Node}
			return commitment{}, m.planRefused(r, plan[:i], g, last.refused)
		}
		pc.delay, pc.jitter = pm.Delay, pm.Jitter
		if i < planWidth {
			last.charges[i], last.clean = uint8(routes.Len()), i+1
		}
	}
	if f := constraintFailure(doc, u, r, plan); f.cause != CauseNone {
		return commitment{}, m.planRefused(r, plan, g, f)
	}
	// Reserving overwrites the plan's metrics and may race another caller:
	// the next attempt plans afresh.
	last.clean = 0
	return m.reserve(ctx, mach, doc, u, r, plan, spare)
}

// planRefused records a refusal the plan found as the reserve-and-rollback
// walk would have: a success for each choice planned before it, then the
// refusal — unless it is a cancellation or a quarantine, which are no new
// evidence against a server. The server table takes all of it under one
// lock; a restore or a trip it causes acts after.
func (m *Manager) planRefused(r offer.Ranked, planned []plannedChoice, g cost.Guarantee, f commitFailure) commitFailure {
	fails := f.kind != refusedCanceled && f.kind != refusedQuarantined
	if fails {
		m.count.commitFailures[f.cause].Add(1)
	}
	restored, tripped := m.servers.recordPlan(r.Choices, planned, g, f, fails && serverAttributable(f), m.opts.Health, m.clk)
	if restored {
		m.exclusionChanged()
	}
	if tripped {
		m.tripped(f)
	}
	return f
}

// reserve commits an offer: it reserves and connects every choice in
// order, the planned ones first and then any the plan did not reach, each
// looked up as the plan would have. The attempt holds its reservations in a
// fixed-size array and copies them out only when the offer commits: into
// spare when its capacity suffices, else into one exact-size slice. A
// refusal of a planned choice means the substrate changed after the plan —
// a concurrent negotiation took the capacity, or an injected fault fired —
// and rolls back what the attempt holds; so does a start-delay or
// synchronization bound the reserved routes break where the planned ones
// did not.
func (m *Manager) reserve(ctx context.Context, mach *client.Machine, doc *media.Document, u *profile.UserProfile, r offer.Ranked, plan []plannedChoice, spare []heldChoice) (commitment, commitFailure) {
	var buf [planWidth]heldChoice
	held := buf[:0]
	if len(r.Choices) > planWidth {
		held = make([]heldChoice, 0, len(r.Choices))
	}
	g := u.Desired.Cost.Guarantee
	// rerouted is set when a connection took a route other than its plan's,
	// or had none, so the bounds checked on the planned routes do not hold.
	rerouted := false
	for i := range r.Choices {
		if err := ctx.Err(); err != nil {
			m.releaseHeld(held, len(held))
			return commitment{}, commitFailure{cause: CauseCanceled, kind: refusedCanceled, err: err}
		}
		sid := r.Choices[i].Variant.Server
		if i == len(plan) {
			entry, gen, left := m.servers.lookup(sid, m.clk)
			if left > 0 {
				m.releaseHeld(held, len(held))
				return commitment{}, commitFailure{cause: CauseServerDown, kind: refusedQuarantined, server: sid, left: left}
			}
			if entry.server == nil {
				return commitment{}, m.refuse(held, len(held), g,
					commitFailure{cause: CauseServerDown, kind: refusedUnregistered, server: sid})
			}
			plan = append(plan, plannedChoice{entry: entry, gen: gen, q: streamQoS(r.Choices[i].Variant)})
			rerouted = true
		}
		pc := &plan[i]
		held = held[:i+1]
		res, err := pc.entry.server.Reserve(pc.q)
		if err != nil {
			return commitment{}, m.refuse(held[:i], i, g,
				commitFailure{cause: refusalCause(err), kind: refusedReserve, server: sid, err: err})
		}
		held[i] = heldChoice{server: pc.entry.server, res: res.ID}
		conn, err := m.transport.Connect(pc.entry.node, mach.Node, pc.q)
		if err != nil {
			return commitment{}, m.refuse(held, len(held)-1, g,
				commitFailure{cause: refusalCause(err), kind: refusedConnect, server: sid, err: err, from: pc.entry.node, to: mach.Node})
		}
		held[i].conn = conn.Reservation.ID
		m.recordServerSuccess(sid, g, pc.gen)
		if pc.delay != conn.Metrics.Delay || pc.jitter != conn.Metrics.Jitter {
			pc.delay, pc.jitter = conn.Metrics.Delay, conn.Metrics.Jitter
			rerouted = true
		}
	}
	if rerouted {
		if f := constraintFailure(doc, u, r, plan); f.cause != CauseNone {
			return commitment{}, m.refuse(held, len(held), g, f)
		}
	}
	if cap(spare) < len(held) {
		spare = make([]heldChoice, 0, len(held))
	}
	return commitment{choices: append(spare[:0], held...)}, commitFailure{}
}

// constraintFailure checks a planned or reserved offer against the profile's
// hard constraints, reading each choice's connection delay and jitter from
// the plan; it returns a zero failure when both hold.
func constraintFailure(doc *media.Document, u *profile.UserProfile, r offer.Ranked, plan []plannedChoice) commitFailure {
	// Time profile: the configuration must be able to start the
	// presentation within the user's start-delay bound.
	if bound := u.Desired.Time.MaxStartDelay; bound > 0 {
		var start time.Duration
		for i := range plan {
			start = max(start, plan[i].delay+plan[i].entry.server.Config().RoundLength)
		}
		if start > bound {
			return commitFailure{cause: CauseConstraint, kind: refusedStartDelay, value: int64(start), bound: int64(bound)}
		}
	}
	// Synchronization feasibility: for every temporal constraint with a
	// skew tolerance, the paths' combined jitter — the bound the
	// synchronization protocol must compensate [Lam 94] — must fit the
	// tolerance; otherwise this configuration cannot hold lip-sync.
	for _, tc := range doc.Temporal {
		if tc.Tolerance <= 0 {
			continue
		}
		ja, okA := connJitter(r, plan, tc.A)
		jb, okB := connJitter(r, plan, tc.B)
		if okA && okB && ja+jb > tc.Tolerance {
			return commitFailure{cause: CauseConstraint, kind: refusedSync, value: int64(ja + jb), bound: int64(tc.Tolerance), a: tc.A, b: tc.B}
		}
	}
	return commitFailure{}
}

// connJitter returns the path jitter of the choice presenting monomedia id;
// ok is false when no choice does or its stream needs no network
// connection.
func connJitter(r offer.Ranked, plan []plannedChoice, id media.MonomediaID) (jitter time.Duration, ok bool) {
	for i := range plan {
		if r.Choices[i].Monomedia == id && !plan[i].q.Zero() {
			jitter, ok = plan[i].jitter, true
		}
	}
	return jitter, ok
}

// refuse rolls back a refused attempt — every held server reservation, then
// the first conns connections — and records the refusal against its server.
func (m *Manager) refuse(held []heldChoice, conns int, g cost.Guarantee, f commitFailure) commitFailure {
	m.releaseHeld(held, conns)
	m.recordCommitFailure(f, g)
	return f
}

// releaseHeld frees held resources: every server reservation first, then
// the connections of the first conns choices.
func (m *Manager) releaseHeld(held []heldChoice, conns int) {
	for i := range held {
		held[i].server.Release(held[i].res)
	}
	for i := range held[:conns] {
		m.transport.Close(transport.Connection{Reservation: network.Reservation{ID: held[i].conn}})
	}
}

// release frees a session's committed resources.
func (m *Manager) release(cm commitment) {
	m.releaseHeld(cm.choices, len(cm.choices))
}
