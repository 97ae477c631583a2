// Package protocol implements the negotiation wire protocol between client
// machines and the QoS manager: the distributed half of the prototype, in
// which the profile manager on the user's workstation talks to the QoS
// manager over the network.
//
// The wire has one codec, binary/2 (CodecBinary). It puts typed bodies in
// length-prefixed frames (magic, version, flags, stream id) and multiplexes
// concurrent RPCs over a single connection: each RPC runs on its own stream
// id, so N concurrent negotiations share one connection, and watch
// subscriptions are server-push streams. A connection opens with a
// JSON MsgHello line offering binary/2, answered by a MsgHelloAck line. A
// peer that offers no binary/2, or sends anything else first, gets one
// MsgError line and a closed connection, and a client that is refused or
// acked another codec fails the dial with a typed error.
//
// The protocol carries the full negotiation flow of Section 4: a negotiate
// request (client machine description + document + user profile), the
// negotiation result (status, user offer, reserved session), and the
// confirmation round of step 6 — with the server enforcing the
// choicePeriod: a reserved session that is neither confirmed nor rejected
// within its choice period is aborted server-side, exactly as the
// information window's timer does in the GUI (Section 8).
package protocol

import (
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/media"
)

// MessageType discriminates requests and responses.
type MessageType string

// Request types.
const (
	// MsgHello negotiates the connection codec; it must be the first
	// message on a connection, sent as a JSON line, and is answered by
	// MsgHelloAck.
	MsgHello MessageType = "hello"
	// MsgNegotiate runs the negotiation procedure.
	MsgNegotiate MessageType = "negotiate"
	// MsgConfirm accepts a reserved offer (step 6).
	MsgConfirm MessageType = "confirm"
	// MsgReject declines a reserved offer; resources are released.
	MsgReject MessageType = "reject"
	// MsgRenegotiate re-runs the procedure for a reserved session with a
	// modified profile (Section 8's "modify the offer and then push OK").
	MsgRenegotiate MessageType = "renegotiate"
	// MsgSession queries a session's state.
	MsgSession MessageType = "session"
	// MsgListDocuments lists or searches the document catalog.
	MsgListDocuments MessageType = "list-documents"
	// MsgListSessions lists the daemon's sessions and their states.
	MsgListSessions MessageType = "list-sessions"
	// MsgInvoice fetches a session's itemized bill.
	MsgInvoice MessageType = "invoice"
	// MsgWatch streams MsgSessionInfo updates for one session until it
	// reaches a terminal state: the notification channel the profile
	// manager uses to follow the delivery (and to learn about automatic
	// adaptations) without polling. The watch is a server-push stream on
	// its own stream id, and other RPCs proceed concurrently.
	MsgWatch MessageType = "watch"
	// MsgMetrics fetches the daemon's full telemetry snapshot (counters,
	// gauges, latency histograms): the one observability read, from which
	// `qosctl stats` and `servers` each render one instant. A
	// daemon running without telemetry answers with an empty snapshot.
	MsgMetrics MessageType = "metrics"
)

// Response types.
const (
	// MsgHelloAck answers MsgHello with the chosen codec.
	MsgHelloAck MessageType = "hello-ack"
	// MsgResult answers MsgNegotiate and MsgRenegotiate.
	MsgResult MessageType = "result"
	// MsgOK answers MsgConfirm / MsgReject.
	MsgOK MessageType = "ok"
	// MsgSessionInfo answers MsgSession.
	MsgSessionInfo MessageType = "session-info"
	// MsgDocuments answers MsgListDocuments.
	MsgDocuments MessageType = "documents"
	// MsgSessions answers MsgListSessions.
	MsgSessions MessageType = "sessions"
	// MsgInvoiceInfo answers MsgInvoice.
	MsgInvoiceInfo MessageType = "invoice-info"
	// MsgMetricsInfo answers MsgMetrics.
	MsgMetricsInfo MessageType = "metrics-info"
	// MsgError reports a request failure.
	MsgError MessageType = "error"
	// MsgBusy reports that the server shed the request at admission —
	// stream cap reached or the admission controller refusing new work —
	// with a load-derived RetryAfter hint. Clients surface it as
	// *ErrBusy. Cheap refusal instead of queueing: the paper's
	// FAILEDTRYLATER stance applied to the wire itself.
	MsgBusy MessageType = "busy"
)

// DocumentSummary is one catalog row of MsgDocuments.
type DocumentSummary struct {
	ID    media.DocumentID `json:"id"`
	Title string           `json:"title"`
	// Components counts the monomedia components.
	Components int `json:"components"`
}

// SessionSummary is one row of MsgSessions.
type SessionSummary struct {
	Session     core.SessionID   `json:"session"`
	Document    media.DocumentID `json:"document"`
	State       string           `json:"state"`
	PositionMs  int64            `json:"positionMs"`
	Transitions int              `json:"transitions"`
	Cost        cost.Money       `json:"cost"`
}

// ParseStatus maps a paper-style status name back to the enum; it returns
// false for unknown names.
func ParseStatus(name string) (core.NegotiationStatus, bool) {
	for s := core.Succeeded; s <= core.FailedWithLocalOffer; s++ {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}
