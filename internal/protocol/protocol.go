// Package protocol implements the negotiation wire protocol between client
// machines and the QoS manager: the distributed half of the prototype, in
// which the profile manager on the user's workstation talks to the QoS
// manager over the network.
//
// Two codecs share one TCP port. The legacy codec is newline-delimited
// JSON, one request answered at a time — simple clients interoperate with
// nothing but a socket and a JSON library. The binary codec puts typed
// bodies in length-prefixed frames (magic, version, flags, stream id) and
// multiplexes concurrent RPCs over a single connection: each RPC runs on its
// own stream id, watch subscriptions are server-push streams, and a batch
// RPC negotiates a whole playlist in one round trip. A client opens with a
// MsgHello listing the codecs it speaks; the server picks one and answers
// MsgHelloAck. Older peers land on JSON: a server that predates the
// handshake answers MsgError to the hello, an old client never sends one,
// and a peer with another binary version shares only "json" with this one.
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
	// message on a connection and is answered by MsgHelloAck.
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
	// MsgBatchNegotiate negotiates a list of (machine, document, profile)
	// triples — a playlist or composite document — in one round trip. The
	// manager fans the items out concurrently and answers MsgBatchResult
	// with per-item statuses and RetryAfter hints.
	MsgBatchNegotiate MessageType = "batch-negotiate"
	// MsgSession queries a session's state.
	MsgSession MessageType = "session"
	// MsgListDocuments lists or searches the document catalog.
	MsgListDocuments MessageType = "list-documents"
	// MsgStats fetches the QoS manager's outcome counters.
	MsgStats MessageType = "stats"
	// MsgListSessions lists the daemon's sessions and their states.
	MsgListSessions MessageType = "list-sessions"
	// MsgInvoice fetches a session's itemized bill.
	MsgInvoice MessageType = "invoice"
	// MsgServerLoads fetches the media servers' current load.
	MsgServerLoads MessageType = "server-loads"
	// MsgWatch streams MsgSessionInfo updates for one session until it
	// reaches a terminal state: the notification channel the profile
	// manager uses to follow the delivery (and to learn about automatic
	// adaptations) without polling. On a multiplexed connection the watch
	// is a server-push stream on its own stream id and other RPCs proceed
	// concurrently; on the JSON codec it occupies the connection until the
	// final update.
	MsgWatch MessageType = "watch"
	// MsgMetrics fetches the daemon's full telemetry snapshot (counters,
	// gauges, latency histograms); `qosctl stats` renders it. A daemon
	// running without telemetry answers with an empty snapshot.
	MsgMetrics MessageType = "metrics"
)

// Response types.
const (
	// MsgHelloAck answers MsgHello with the chosen codec.
	MsgHelloAck MessageType = "hello-ack"
	// MsgResult answers MsgNegotiate and MsgRenegotiate.
	MsgResult MessageType = "result"
	// MsgBatchResult answers MsgBatchNegotiate.
	MsgBatchResult MessageType = "batch-result"
	// MsgOK answers MsgConfirm / MsgReject.
	MsgOK MessageType = "ok"
	// MsgSessionInfo answers MsgSession.
	MsgSessionInfo MessageType = "session-info"
	// MsgDocuments answers MsgListDocuments.
	MsgDocuments MessageType = "documents"
	// MsgStatsInfo answers MsgStats.
	MsgStatsInfo MessageType = "stats-info"
	// MsgSessions answers MsgListSessions.
	MsgSessions MessageType = "sessions"
	// MsgInvoiceInfo answers MsgInvoice.
	MsgInvoiceInfo MessageType = "invoice-info"
	// MsgServerLoadsInfo answers MsgServerLoads.
	MsgServerLoadsInfo MessageType = "server-loads-info"
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
