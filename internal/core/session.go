package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cmfs"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/offer"
	"qosneg/internal/profile"
)

// SessionID names one negotiated delivery session.
type SessionID uint64

// SessionState is the lifecycle of a session.
type SessionState int

// The session states. A session is created Reserved (resources committed,
// awaiting the user's confirmation within choicePeriod); Confirm moves it
// to Playing; it ends Completed, or Aborted (rejection, time-out, or an
// adaptation failure).
const (
	Reserved SessionState = iota
	Playing
	Completed
	Aborted
)

var sessionStateNames = [...]string{"reserved", "playing", "completed", "aborted"}

// String returns the lower-case state name.
func (s SessionState) String() string {
	if s < 0 || int(s) >= len(sessionStateNames) {
		return fmt.Sprintf("SessionState(%d)", int(s))
	}
	return sessionStateNames[s]
}

// commitment holds the resources reserved for one system offer: one
// heldChoice per monomedia choice, in the offer's choice order.
type commitment struct {
	choices []heldChoice
}

// heldChoice is what step 5 holds for one choice of an offer: the ids of
// the CMFS reservation on its server and of the transport connection's
// network reservation (zero for discrete media, which need none). The
// server and the network keep the reservations themselves; four words is
// all a session needs to release them.
type heldChoice struct {
	server MediaServer
	res    cmfs.ReservationID
	conn   network.ReservationID
}

// Session is the state the QoS manager keeps per negotiated delivery: the
// committed offer, the full classified offer list (kept, per step 4, so
// "the adaptation procedure makes use of the whole set of feasible system
// offers"), and the playout position used by the transition procedure.
//
// The manager holds a session only while it is live. A terminal transition
// retires it to a tombstone, from which Manager.Session renders a Session
// with the final state, document, position, transitions and the committed
// offer's key and price — no choices, machine, profile or ranked list.
type Session struct {
	ID       SessionID
	Machine  client.Machine
	Document media.DocumentID
	Profile  profile.UserProfile
	// Current is the committed offer.
	Current offer.Ranked
	// ChoicePeriod is the confirmation window in force (step 6).
	ChoicePeriod time.Duration

	// mu guards the mutable fields below plus Current, Profile and
	// ChoicePeriod when they are rewritten by renegotiation or adaptation.
	// Lock ordering: Manager.sessMu before Session.mu, never the reverse.
	mu sync.Mutex
	// ranked is the classified offer list from negotiation step 4, sorted
	// only as far as step 5 read it, or sorted whole and shared when it is
	// the offer cache's memoized ranking; empty once the session is
	// terminal.
	ranked offer.Classified
	state  SessionState
	// epoch is the session's transition counter: every state change and
	// every commitment install or withdrawal under mu bumps it. Procedures
	// that drop mu mid-flight (adaptation, renegotiation) capture the
	// epoch when they withdraw the old commitment and re-validate
	// (state, epoch) before installing the new one; a mismatch means a
	// concurrent transition won the race, and the freshly committed
	// resources are released instead of being installed on a session that
	// no longer expects them (DESIGN.md, "Session lifecycle").
	epoch uint64
	// busy marks an adaptation or renegotiation in flight: the session's
	// commitment is withdrawn and the procedure is off-lock committing a
	// replacement. Other long procedures and Confirm refuse while busy;
	// the terminal transitions (Reject/Expire/Complete/Abort) proceed,
	// and the epoch guard makes the in-flight install stale.
	busy       bool
	position   time.Duration
	commit     commitment
	transition int // number of adaptation transitions performed
	// expired marks an Aborted session whose choice period timed out, so
	// late Confirm/Reject/Renegotiate calls get ErrChoicePeriodExpired.
	expired bool
	// reservedAt is when resources were committed; only set while
	// telemetry is enabled, to time step 6 (reservation → confirmation).
	reservedAt time.Time
}

// end moves the session to a terminal state and hands back the commitment
// for the caller to release once mu is dropped. Only a live session adapts,
// so the ranked list goes with it. Caller holds mu.
func (s *Session) end(state SessionState) commitment {
	s.state = state
	s.epoch++
	cm := s.commit
	s.commit = commitment{}
	s.ranked = offer.Classified{}
	return cm
}

// TombstoneRing is how many retired sessions a manager remembers. Late calls
// on a retired id inside that window answer as on the terminal session
// (ErrChoicePeriodExpired, ErrBadState, the final SessionInfo); older ids
// answer ErrUnknownSession.
const TombstoneRing = 1024

// tombstone is what SessionInfo, the session listing and the late-call errors
// need of a retired session; of a cached product it refers to nothing but the
// key buffer (offer.SystemOffer.Summary).
type tombstone struct {
	id          SessionID
	document    media.DocumentID
	offer       offer.SystemOffer // Summary of the committed offer
	position    time.Duration
	transitions int
	state       SessionState
	expired     bool
}

// session renders the tombstone as a Session for the caller to keep.
func (t *tombstone) session() *Session {
	committed := t.offer
	return &Session{
		ID:         t.id,
		Document:   t.document,
		Current:    offer.Ranked{SystemOffer: &committed},
		state:      t.state,
		expired:    t.expired,
		position:   t.position,
		transition: t.transitions,
	}
}

// retire takes a session that just reached a terminal state out of the live
// table and leaves its tombstone in the ring, overwriting the oldest.
func (m *Manager) retire(s *Session) {
	s.mu.Lock()
	t := tombstone{
		id: s.ID, document: s.Document, offer: s.Current.Summary(),
		position: s.position, transitions: s.transition, state: s.state, expired: s.expired,
	}
	s.mu.Unlock()
	m.sessMu.Lock()
	delete(m.sessions, s.ID)
	if len(m.tombs) < TombstoneRing {
		m.tombs = append(m.tombs, t)
	} else {
		m.tombs[m.tombNext] = t
		m.tombNext = (m.tombNext + 1) % TombstoneRing
	}
	m.sessMu.Unlock()
}

// State returns the session's lifecycle state.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Epoch returns the session's transition counter; it increases on every
// state change and commitment install/withdrawal. Observability and tests
// use it — equality of two reads brackets a quiescent session.
func (s *Session) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// terminal reports whether the state is Completed or Aborted.
func (s SessionState) terminal() bool {
	return s == Completed || s == Aborted
}

// Position returns the current playout position.
func (s *Session) Position() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.position
}

// Transitions returns how many adaptation transitions the session has
// undergone.
func (s *Session) Transitions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.transition
}

// Cost returns the price of the committed offer.
func (s *Session) Cost() cost.Money {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Current.Total()
}

// UserOffer returns the user offer derived from the committed system offer.
func (s *Session) UserOffer() profile.MMProfile {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Current.UserOffer()
}

// Ranked returns a copy of the full classified offer list from negotiation
// step 4, best-first; nil once the session is terminal. The list is a copy
// because the session's own may be the offer cache's memoized ranking,
// which other sessions read; the offers it points at are shared with the
// offer cache and immutable.
func (s *Session) Ranked() []offer.Ranked {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.ranked.All())
}

// EachHold calls f with each reservation the session's commitment holds:
// per choice of the committed offer, its server, the CMFS reservation there
// and the network reservation of its connection (zero for a discrete
// choice, which has none). A terminal session, or one inside an adaptation
// or renegotiation window, holds nothing. f runs under the session lock
// and must not call back into the session.
func (s *Session) EachHold(f func(server media.ServerID, res cmfs.ReservationID, conn network.ReservationID)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.commit.choices {
		h := &s.commit.choices[i]
		f(h.server.ID(), h.res, h.conn)
	}
}

// CurrentOffer returns a copy of the committed offer under the session
// lock; concurrent readers (monitors, UIs) should prefer it over the
// exported Current field, which renegotiation and adaptation rewrite.
func (s *Session) CurrentOffer() offer.Ranked {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Current
}
