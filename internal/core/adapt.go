package core

import (
	"context"
	"fmt"

	"qosneg/internal/cmfs"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/offer"
	"qosneg/internal/telemetry"
)

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
	s, err := m.Session(id)
	if err != nil {
		return Transition{}, err
	}
	s.mu.Lock()
	if s.state != Playing {
		st := s.state
		s.mu.Unlock()
		return Transition{}, fmt.Errorf("%w: adapt in state %v", ErrBadState, st)
	}
	if s.busy {
		s.mu.Unlock()
		return Transition{}, fmt.Errorf("%w: adaptation already in flight on session %d", ErrBadState, id)
	}
	s.busy = true
	s.epoch++ // commitment withdrawal is a transition
	epoch := s.epoch
	current := s.Current
	old := s.commit
	s.commit = commitment{}
	mach := s.Machine
	u := s.Profile
	ranked := s.Ranked
	doc := s.Document
	s.mu.Unlock()

	// Stop the presentation: release the troubled configuration first so
	// surviving capacity can be re-used by the alternate offer.
	m.release(old)
	m.hookUnlocked("adapt", id)

	d, err := m.registry.Document(doc)
	if err != nil {
		m.abortWindow(s, epoch, Playing)
		return Transition{}, err
	}

	// Consider the ordered offers except the current one, acceptable set
	// first, as in step 5. An installed policy may reorder ties within each
	// group — the same freedom it has in step 5.
	if c, _ := m.commitFirst(ctx, mach, d, u, ranked, current.Key(), m.opts.Policy, "adapt"); c.ok {
		r := c.chosen
		s.mu.Lock()
		if s.state != Playing || s.epoch != epoch {
			// A concurrent transition ended the session while we were
			// committing; don't install resources nothing will release.
			st := s.state
			s.busy = false
			s.mu.Unlock()
			m.release(c.commit)
			m.recordStaleInstall("adapt", id, st)
			return Transition{}, fmt.Errorf("%w: adapt in state %v", ErrBadState, st)
		}
		s.commit = c.commit
		s.Current = r
		s.transition++
		s.epoch++
		s.busy = false
		pos := s.position
		s.mu.Unlock()
		m.met.adapt(true)
		if m.opts.Tracer != nil {
			m.span(telemetry.Event{Step: telemetry.StepAdaptation, Offer: r.Key(), Status: "ok", Detail: "from " + current.Key()})
		}
		m.statsMu.Lock()
		m.stats.Adaptations++
		m.statsMu.Unlock()
		return Transition{Session: id, From: current, To: r, Position: int64(pos)}, nil
	}

	m.abortWindow(s, epoch, Playing)
	m.adaptFailed(current)
	if err := ctx.Err(); err != nil {
		return Transition{}, fmt.Errorf("%w: session %d: %w", ErrAdaptationFailed, id, err)
	}
	return Transition{}, fmt.Errorf("%w: session %d", ErrAdaptationFailed, id)
}

// adaptFailed records a failed adaptation in metrics, spans and stats.
func (m *Manager) adaptFailed(current offer.Ranked) {
	m.met.adapt(false)
	if m.opts.Tracer != nil {
		m.span(telemetry.Event{Step: telemetry.StepAdaptation, Offer: current.Key(), Status: "failed"})
	}
	m.statsMu.Lock()
	m.stats.AdaptationFailures++
	m.statsMu.Unlock()
}

// SessionByServerReservation finds the live session holding the given CMFS
// reservation; the adaptation monitor uses it to map server overcommitments
// to sessions.
func (m *Manager) SessionByServerReservation(server media.ServerID, res cmfs.ReservationID) (*Session, bool) {
	return m.sessionHolding(func(cm commitment) bool {
		for _, h := range cm.choices {
			if h.server.ID() == server && h.res.ID == res {
				return true
			}
		}
		return false
	})
}

// SessionByNetworkReservation finds the live session holding the given
// network reservation.
func (m *Manager) SessionByNetworkReservation(res network.ReservationID) (*Session, bool) {
	return m.sessionHolding(func(cm commitment) bool {
		for _, h := range cm.choices {
			if h.conn.Reservation.ID == res {
				return true
			}
		}
		return false
	})
}

// sessionHolding scans the session table, which holds live sessions only (a
// terminal or mid-window session has an empty commitment anyway).
func (m *Manager) sessionHolding(holds func(commitment) bool) (*Session, bool) {
	m.sessMu.RLock()
	defer m.sessMu.RUnlock()
	for _, s := range m.sessions {
		s.mu.Lock()
		found := holds(s.commit)
		s.mu.Unlock()
		if found {
			return s, true
		}
	}
	return nil, false
}
