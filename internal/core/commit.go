package core

import (
	"context"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/offer"
	"qosneg/internal/profile"
	"qosneg/internal/telemetry"
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
// passing over the offer keyed skipKey (the one an adaptation is leaving).
// A server that fails as down is attempted at most once per pass however a
// policy orders the attempts: the dead set keys on the server and marks it
// idempotently, so the bookkeeping is independent of iteration order.
//
// Without a policy the one ranked slice is walked twice under the
// acceptable-set predicate; a policy permutes ties within each set, so the
// two sets are materialized for it. A canceled ctx returns its error.
func (m *Manager) commitFirst(ctx context.Context, mach *client.Machine, doc *media.Document, u *profile.UserProfile, ranked []offer.Ranked, skipKey string, pol Policy, procedure string) (commitResult, error) {
	var c commitResult
	var dead map[media.ServerID]bool
	groups := [2][]offer.Ranked{ranked, ranked}
	if pol != nil {
		groups[0], groups[1] = offer.Partition(ranked, u)
	}
	for pass, group := range groups {
		group, ranks := m.policyOrder(group, u.Desired.Cost.Guarantee, pol, procedure)
		for i, r := range group {
			if pol == nil && r.Acceptable(u) != (pass == 0) {
				continue
			}
			if skipKey != "" && r.Key() == skipKey {
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
			cm, fail := m.tryCommit(ctx, mach, doc, u, r)
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

// planWidth is how many choices tryCommit holds in its on-stack plan; the
// plan of a wider document spills to the heap.
const planWidth = 8

// tryCommit reserves server and network resources for every choice of the
// offer. It either commits everything (a zero failure) or rolls back and
// reports a typed failure cause: server-down, capacity shortage, hard
// constraint, or cancellation. Server-attributable failures also feed the
// circuit breaker, so quarantines accrue no matter which entry point
// (negotiate, renegotiate, adapt) drove the attempt.
//
// The attempt holds its reservations in a fixed-size plan and copies them
// into one exact-size slice only when the offer commits; a refusal
// allocates nothing here.
func (m *Manager) tryCommit(ctx context.Context, mach *client.Machine, doc *media.Document, u *profile.UserProfile, r offer.Ranked) (commitment, commitFailure) {
	var plan [planWidth]heldChoice
	held := plan[:0]
	if len(r.Choices) > planWidth {
		held = make([]heldChoice, 0, len(r.Choices))
	}
	g := u.Desired.Cost.Guarantee
	var startDelay time.Duration
	for i := range r.Choices {
		ch := &r.Choices[i]
		if err := ctx.Err(); err != nil {
			m.releaseHeld(held, len(held))
			return commitment{}, commitFailure{cause: CauseCanceled, kind: refusedCanceled, err: err}
		}
		sid := ch.Variant.Server
		// One lookup reads the server, its evidence generation and its
		// quarantine together: a quarantine that trips after it bumps the
		// generation, so it outlives this attempt's success.
		entry, healthGen, left := m.servers.lookup(sid, m.clk)
		if left > 0 {
			// No new evidence — the breaker already tripped — so this is
			// not recorded against the server again.
			m.releaseHeld(held, len(held))
			return commitment{}, commitFailure{cause: CauseServerDown, kind: refusedQuarantined, server: sid, left: left}
		}
		if entry.server == nil {
			return commitment{}, m.refuse(held, len(held), g,
				commitFailure{cause: CauseServerDown, kind: refusedUnregistered, server: sid})
		}
		netQoS := ch.Variant.NetworkQoS()
		var began time.Time
		if m.observer != nil {
			began = m.clk.Now()
		}
		res, err := entry.server.Reserve(netQoS)
		if err != nil {
			return commitment{}, m.refuse(held, len(held), g,
				commitFailure{cause: refusalCause(err), kind: refusedReserve, server: sid, err: err})
		}
		held = append(held, heldChoice{server: entry.server, res: res})
		conn, err := m.transport.Connect(entry.node, mach.Node, netQoS)
		if err != nil {
			return commitment{}, m.refuse(held, len(held)-1, g,
				commitFailure{cause: refusalCause(err), kind: refusedConnect, server: sid, err: err, from: entry.node, to: mach.Node})
		}
		held[len(held)-1].conn = conn
		m.recordServerSuccess(sid, healthGen)
		if m.observer != nil {
			m.observeCommit(sid, g, CauseNone, m.clk.Now().Sub(began))
		}
		if d := conn.Metrics.Delay + entry.server.Config().RoundLength; d > startDelay {
			startDelay = d
		}
	}
	// Time profile: the committed configuration must be able to start the
	// presentation within the user's start-delay bound.
	if max := u.Desired.Time.MaxStartDelay; max > 0 && startDelay > max {
		return commitment{}, m.refuse(held, len(held), g,
			commitFailure{cause: CauseConstraint, kind: refusedStartDelay, value: startDelay, bound: max})
	}
	// Synchronization feasibility: for every temporal constraint with a
	// skew tolerance, the committed paths' combined jitter — the bound the
	// synchronization protocol must compensate [Lam 94] — must fit the
	// tolerance; otherwise this configuration cannot hold lip-sync.
	for _, tc := range doc.Temporal {
		if tc.Tolerance <= 0 {
			continue
		}
		ja, okA := connJitter(r, held, tc.A)
		jb, okB := connJitter(r, held, tc.B)
		if okA && okB && ja+jb > tc.Tolerance {
			return commitment{}, m.refuse(held, len(held), g,
				commitFailure{cause: CauseConstraint, kind: refusedSync, value: ja + jb, bound: tc.Tolerance, a: tc.A, b: tc.B})
		}
	}
	return commitment{choices: append(make([]heldChoice, 0, len(held)), held...)}, commitFailure{}
}

// connJitter returns the committed path jitter of the choice presenting
// monomedia id; ok is false when no choice does or its stream needs no
// network connection.
func connJitter(r offer.Ranked, held []heldChoice, id media.MonomediaID) (jitter time.Duration, ok bool) {
	for i := range r.Choices {
		if ch := &r.Choices[i]; ch.Monomedia == id && !ch.Variant.NetworkQoS().Zero() {
			jitter, ok = held[i].conn.Metrics.Jitter, true
		}
	}
	return jitter, ok
}

// refuse rolls back a refused attempt — every held server reservation, then
// the first conns connections — and records the refusal against its server.
func (m *Manager) refuse(held []heldChoice, conns int, g cost.Guarantee, f commitFailure) commitFailure {
	m.releaseHeld(held, conns)
	m.recordCommitFailure(f)
	m.observeCommit(f.server, g, f.cause, 0)
	return f
}

// releaseHeld frees held resources: every server reservation first, then
// the connections of the first conns choices.
func (m *Manager) releaseHeld(held []heldChoice, conns int) {
	for i := range held {
		held[i].server.Release(held[i].res.ID)
	}
	for i := range held[:conns] {
		m.transport.Close(held[i].conn)
	}
}

// release frees a session's committed resources.
func (m *Manager) release(cm commitment) {
	m.releaseHeld(cm.choices, len(cm.choices))
}
