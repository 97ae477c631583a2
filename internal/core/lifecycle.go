package core

import (
	"context"
	"fmt"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/media"
	"qosneg/internal/offer"
	"qosneg/internal/profile"
	"qosneg/internal/telemetry"
)

// This file is the session lifecycle: step 6 (confirm, reject, time out),
// playout, renegotiation (Section 8) and adaptation (Section 4). Every
// transition opens with lockIn and every terminal one closes with finish;
// the two procedures that commit off-lock share one unlock window
// (withdraw, then install or abortWindow) under the epoch guard
// (DESIGN.md §10).

// lockIn looks session id up and returns it locked if it is in state want,
// for the caller to unlock (or finish): the opening every session-addressed
// transition shares. A session in any
// other state answers ErrBadState naming op, or ErrChoicePeriodExpired when
// the choice period ended it and op needs a reserved session.
func (m *Manager) lockIn(id SessionID, want SessionState, op string) (*Session, error) {
	s, err := m.Session(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.state != want {
		st, expired := s.state, s.expired
		s.mu.Unlock()
		if expired && want == Reserved {
			return nil, fmt.Errorf("%w: session %d", ErrChoicePeriodExpired, id)
		}
		return nil, fmt.Errorf("%w: %s in state %v", ErrBadState, op, st)
	}
	return s, nil
}

// finish ends a locked live session in a terminal state and unlocks it,
// then releases its commitment and retires it to the tombstone ring.
func (m *Manager) finish(s *Session, state SessionState) {
	cm := s.end(state)
	s.mu.Unlock()
	m.release(cm)
	m.retire(s)
}

// Confirm is step 6's acceptance: the session moves from Reserved to
// Playing and the presentation starts. Confirming after the choice period
// was enforced returns ErrChoicePeriodExpired.
func (m *Manager) Confirm(id SessionID) error {
	s, err := m.lockIn(id, Reserved, "confirm")
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	if s.busy {
		// Mid-renegotiation the session holds no resources to start the
		// presentation on; confirming would play a configuration that is
		// being replaced underneath it.
		return fmt.Errorf("%w: renegotiation in flight on session %d", ErrBadState, id)
	}
	s.state = Playing
	s.epoch++
	// Step 6's latency: how long the user deliberated before accepting
	// the reserved configuration.
	if !s.reservedAt.IsZero() {
		d := m.clk.Now().Sub(s.reservedAt)
		m.met.steps[telemetry.StepConfirmation].Observe(d)
		m.span(telemetry.Event{Step: telemetry.StepConfirmation, Elapsed: d})
	}
	return nil
}

// Reject is step 6's rejection: reserved resources are de-allocated and the
// session is aborted.
func (m *Manager) Reject(id SessionID) error {
	s, err := m.lockIn(id, Reserved, "reject")
	if err != nil {
		return err
	}
	m.finish(s, Aborted)
	return nil
}

// Expire is step 6's time-out: like Reject, but the session is marked
// expired so later Confirm/Reject/Renegotiate calls report
// ErrChoicePeriodExpired instead of a bare state error. The protocol
// server's choice-period timers call it.
func (m *Manager) Expire(id SessionID) error {
	s, err := m.lockIn(id, Reserved, "expire")
	if err != nil {
		return err
	}
	s.expired = true
	m.finish(s, Aborted)
	return nil
}

// Advance moves a playing session's position forward; the playout driver,
// session.Player, calls it every tick of its clock.
func (m *Manager) Advance(id SessionID, dt time.Duration) error {
	s, err := m.lockIn(id, Playing, "advance")
	if err != nil {
		return err
	}
	s.position += dt
	s.mu.Unlock()
	return nil
}

// Complete finishes a playing session and releases its resources.
func (m *Manager) Complete(id SessionID) error {
	s, err := m.lockIn(id, Playing, "complete")
	if err != nil {
		return err
	}
	price := s.Current.Total()
	m.finish(s, Completed)
	m.count.revenue.Add(int64(price))
	return nil
}

// Abort terminates a session in any live state and releases its resources.
func (m *Manager) Abort(id SessionID) error {
	s, err := m.Session(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.state.terminal() {
		s.mu.Unlock()
		return nil
	}
	m.finish(s, Aborted)
	return nil
}

// window is one unlock window: a session whose commitment a procedure has
// withdrawn and released while it commits a replacement off-lock. epoch is
// the session's epoch at withdrawal; the other fields are the session as the
// window found it, read under the lock, since a concurrent end() clears the
// ranked list. Only an adaptation reads that list, so only its window
// carries it, sorted before it is copied: no read off-lock reorders the
// array the session shares. held is the withdrawn commitment's array, empty
// and released: no session reaches it once withdraw cleared the session's
// commitment under the lock, so an adaptation's step 5 copies its new hold
// into it. A renegotiation, a failed adaptation and a stale install drop
// it.
type window struct {
	s       *Session
	want    SessionState
	epoch   uint64
	op      string
	mach    client.Machine
	doc     media.DocumentID
	terms   terms
	current offer.Ranked
	ranked  offer.Classified
	held    []heldChoice
}

// withdraw opens an unlock window on session id, which must be in state
// want and not already in one (inFlight names what a second one refuses
// on). It marks the session busy, bumps its epoch, takes its commitment and
// releases it, so the replacement can re-use the capacity. Every window must
// close through install or abortWindow, which clear busy.
func (m *Manager) withdraw(id SessionID, want SessionState, op, inFlight string) (window, error) {
	s, err := m.lockIn(id, want, op)
	if err != nil {
		return window{}, err
	}
	if s.busy {
		s.mu.Unlock()
		return window{}, fmt.Errorf("%w: %s already in flight on session %d", ErrBadState, inFlight, id)
	}
	s.busy = true
	s.epoch++
	w := window{s: s, want: want, epoch: s.epoch, op: op, mach: s.Machine, doc: s.Document,
		terms: s.terms, current: s.Current}
	if want == Playing { // an adaptation
		s.ranked.All()
		w.ranked = s.ranked
	}
	old := s.commit
	s.commit = commitment{}
	s.mu.Unlock()
	m.release(old)
	w.held = old.choices[:0]
	if m.testHookUnlocked != nil {
		m.testHookUnlocked(op, id)
	}
	return w, nil
}

// install closes a window with the fresh commitment cm. If the session is
// still in the window's state and epoch, install hands it cm, bumps the
// epoch, clears busy and returns ok with s.mu held, for the caller to
// install the rest. Otherwise a concurrent transition (the choice-period
// time-out, a Reject, Abort or Complete) ended the session while it was
// unlocked; installing would strand cm on a terminal session forever, so
// install releases it, counts a stale install and returns the state the
// session reached.
func (m *Manager) install(w *window, cm commitment) (moved SessionState, expired, ok bool) {
	s := w.s
	s.mu.Lock()
	s.busy = false
	if s.state == w.want && s.epoch == w.epoch {
		s.commit = cm
		s.epoch++
		return s.state, false, true
	}
	moved, expired = s.state, s.expired
	s.mu.Unlock()
	m.release(cm)
	for i, op := range staleProcedures {
		if op == w.op {
			m.count.staleInstalls[i].Add(1)
		}
	}
	if m.opts.Tracer != nil {
		detail := fmt.Sprintf("session %d reached %v mid-%s; fresh commitment released", s.ID, moved, w.op)
		m.span(telemetry.Event{Step: telemetry.StepCommitment, Status: "stale-install", Detail: detail})
	}
	return moved, expired, false
}

// abortWindow closes a window that produced no new commitment: the session
// is aborted unless a concurrent transition already ended it, and busy is
// cleared. withdraw released the old commitment, so nothing is left to free.
func (m *Manager) abortWindow(w *window) {
	s := w.s
	s.mu.Lock()
	s.busy = false
	if s.state == w.want && s.epoch == w.epoch {
		m.finish(s, Aborted)
		return
	}
	s.mu.Unlock()
}

// RenegotiateContext re-runs the negotiation procedure for a reserved
// session with a modified user profile: the GUI's "modify the offer and
// then push OK to initiate a renegotiation" (Section 8). The session's
// current reservation is released first; on success the same session holds
// the new offer and a fresh choice period, on failure (any non-reserved
// status) the session is aborted and the Result explains why. A canceled
// ctx aborts the session and returns the context's error. Options.Admission
// gates the request first; a shed leaves the session as it was.
//
// The procedure commits off-lock, so the choice-period time-out (or a
// concurrent Reject/Abort) can end the session mid-renegotiation. The
// epoch guard resolves the race leak-free: the terminal transition wins,
// the freshly committed resources are released instead of installed, and
// ErrChoicePeriodExpired (or ErrBadState) is returned.
func (m *Manager) RenegotiateContext(ctx context.Context, id SessionID, u profile.UserProfile) (Result, error) {
	release, shed, ok := m.admit()
	if !ok {
		return shed, nil
	}
	if release != nil {
		defer release()
	}
	w, err := m.withdraw(id, Reserved, "renegotiate", "renegotiation or adaptation")
	if err != nil {
		return Result{}, err
	}
	doc, docGen, err := m.registry.Snapshot(w.doc)
	if err != nil {
		m.abortWindow(&w)
		return Result{}, err
	}
	out, err := m.runProcedure(ctx, &w.mach, &doc, docGen, &u)
	if err != nil {
		m.abortWindow(&w)
		return Result{}, err
	}
	if !out.status.Reserved() {
		m.abortWindow(&w)
		return out.refusal(), nil
	}
	moved, expired, ok := m.install(&w, out.commit)
	if !ok {
		if expired {
			return Result{}, fmt.Errorf("%w: session %d expired during renegotiation", ErrChoicePeriodExpired, id)
		}
		return Result{}, fmt.Errorf("%w: session %d moved to %v during renegotiation", ErrBadState, id, moved)
	}
	s := w.s
	s.terms = termsOf(&u)
	s.Current = out.chosen
	s.ranked = out.ranked
	s.ChoicePeriod = m.choicePeriodFor(&u)
	if m.opts.Metrics != nil || m.opts.Tracer != nil {
		s.reservedAt = m.clk.Now()
	}
	s.mu.Unlock()
	uo := out.chosen.UserOffer()
	return Result{Status: out.status, Offer: &uo, Session: s}, nil
}

// Transition records one completed adaptation: the offer the session left,
// the offer it moved to and the playout position the presentation restarted
// from ("the QoS Manager stops the presentation of the document after
// having obtained the current position of the document, and restarts the
// presentation (using the alternate components) from the position
// parameter").
type Transition struct {
	Session SessionID
	From    offer.Ranked
	To      offer.Ranked
	// Position is the playout position preserved across the transition.
	Position int64 // nanoseconds, JSON-friendly
}

// Adapt runs the adaptation procedure with no deadline. It is equivalent to
// AdaptContext(context.Background(), id); callers that can be canceled — the
// monitor's scan loop, request handlers — should prefer AdaptContext.
func (m *Manager) Adapt(id SessionID) (Transition, error) {
	return m.AdaptContext(context.Background(), id)
}

// AdaptContext runs the adaptation procedure of Section 4 on a playing
// session whose current offer is in difficulty: it considers the ordered set
// of system offers, except the current one, and re-executes the resource
// commitment step. On success the session transparently switches to the
// alternate configuration, keeping its playout position. On failure — no
// alternate committed, or ctx expired mid-procedure — the session is
// aborted and ErrAdaptationFailed (or the ctx error) returned.
//
// The procedure drops the session lock while it commits the alternate, so a
// concurrent Complete/Abort/Expire can end the session mid-flight. The
// epoch captured at withdrawal detects that at install time: the fresh
// commitment is released instead of being leaked onto a terminal session.
func (m *Manager) AdaptContext(ctx context.Context, id SessionID) (Transition, error) {
	// Stop the presentation: withdrawing releases the troubled
	// configuration first so surviving capacity can be re-used by the
	// alternate offer.
	w, err := m.withdraw(id, Playing, "adapt", "adaptation")
	if err != nil {
		return Transition{}, err
	}
	d, err := m.registry.Document(w.doc)
	if err != nil {
		m.abortWindow(&w)
		return Transition{}, err
	}

	// Consider the ordered offers except the current one, acceptable set
	// first, as in step 5. An installed policy may reorder ties within each
	// group — the same freedom it has in step 5.
	c, _ := m.commitFirst(ctx, &w.mach, &d, w.terms, &w.ranked, w.current.SystemOffer, w.held, m.opts.Policy, "adapt")
	if !c.ok {
		m.abortWindow(&w)
		m.count.adaptations[adaptFailed].Add(1)
		if m.opts.Tracer != nil {
			m.span(telemetry.Event{Step: telemetry.StepAdaptation, Offer: w.current.Key(), Status: "failed"})
		}
		if err := ctx.Err(); err != nil {
			return Transition{}, fmt.Errorf("%w: session %d: %w", ErrAdaptationFailed, id, err)
		}
		return Transition{}, fmt.Errorf("%w: session %d", ErrAdaptationFailed, id)
	}
	moved, _, ok := m.install(&w, c.commit)
	if !ok {
		return Transition{}, fmt.Errorf("%w: adapt in state %v", ErrBadState, moved)
	}
	s := w.s
	s.Current = c.chosen
	s.transition++
	pos := s.position
	s.mu.Unlock()
	m.count.adaptations[adaptOK].Add(1)
	if m.opts.Tracer != nil {
		m.span(telemetry.Event{Step: telemetry.StepAdaptation, Offer: c.chosen.Key(), Status: "ok", Detail: "from " + w.current.Key()})
	}
	return Transition{Session: id, From: w.current, To: c.chosen, Position: int64(pos)}, nil
}
