package core

import (
	"context"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/profile"
)

// SessionManager is the manager surface the rest of the system programs
// against: the six-step negotiation procedure, the step 6 session lifecycle,
// the adaptation procedure and the ops views. *Manager implements it; the
// protocol server, playout driver and adaptation monitor take the interface,
// so tests can put a fake behind them. The surface has no reservation
// lookup: the adaptation monitor lists the live sessions (Sessions) and asks
// each what it holds (Session.EachHold).
type SessionManager interface {
	// Negotiation (Section 4, steps 1-5) and renegotiation (Section 8).
	NegotiateContext(ctx context.Context, mach client.Machine, doc media.DocumentID, u profile.UserProfile) (Result, error)
	RenegotiateContext(ctx context.Context, id SessionID, u profile.UserProfile) (Result, error)

	// Step 6 and the playout lifecycle.
	Confirm(id SessionID) error
	Reject(id SessionID) error
	Expire(id SessionID) error
	Advance(id SessionID, dt time.Duration) error
	Complete(id SessionID) error
	Abort(id SessionID) error

	// The adaptation procedure.
	Adapt(id SessionID) (Transition, error)
	AdaptContext(ctx context.Context, id SessionID) (Transition, error)

	// Session and substrate queries.
	Session(id SessionID) (*Session, error)
	Sessions(state SessionState) []*Session
	Stats() Stats
	Invoice(id SessionID) (cost.Invoice, error)
	Quarantined(id media.ServerID) (time.Duration, bool)

	// Assembly and runtime reconfiguration.
	AddServer(s MediaServer, node network.NodeID)
	SetPricing(p cost.Pricing)
}

// The concrete manager must keep satisfying the full surface.
var _ SessionManager = (*Manager)(nil)
