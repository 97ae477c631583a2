package protocol

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/shard"
	"qosneg/internal/telemetry"
)

// Envelope is the unified wire message: a message type and one typed payload
// per message type. Adding an RPC means adding a payload struct and a
// messages entry — not widening a shared field bag.
//
// On the wire an envelope is a type-code byte and a body (codec.go), on the
// stream its frame header names. The hello exchange that opens a connection
// carries it as one flat JSON line instead: {"type":...} merged with the
// payload's fields.
type Envelope struct {
	Type    MessageType
	Payload any
}

// Request payloads (client → server).

// HelloRequest opens codec negotiation: the client's codec preference list
// and its desired concurrent-stream cap. It must be the first message on a
// connection, and its list must offer CodecBinary; any other opening is
// answered with one MsgError line and the connection is closed.
type HelloRequest struct {
	Codecs     []string `json:"codecs"`
	MaxStreams int      `json:"maxStreams,omitempty"`
}

// NegotiateRequest carries MsgNegotiate.
type NegotiateRequest struct {
	Machine  *client.Machine      `json:"machine,omitempty"`
	Document media.DocumentID     `json:"document,omitempty"`
	Profile  *profile.UserProfile `json:"profile,omitempty"`
}

// RenegotiateRequest carries MsgRenegotiate.
type RenegotiateRequest struct {
	Profile *profile.UserProfile `json:"profile,omitempty"`
	Session core.SessionID       `json:"session,omitempty"`
}

// SessionRequest carries the session-targeted RPCs: MsgConfirm, MsgReject,
// MsgSession and MsgInvoice.
type SessionRequest struct {
	Session core.SessionID `json:"session,omitempty"`
}

// ListDocumentsRequest carries MsgListDocuments.
type ListDocumentsRequest struct {
	Query string `json:"query,omitempty"`
}

// WatchRequest carries MsgWatch.
type WatchRequest struct {
	Session    core.SessionID `json:"session,omitempty"`
	IntervalMs int64          `json:"intervalMs,omitempty"`
}

// Response payloads (server → client).

// HelloAck answers MsgHello with the codec the server chose and its
// per-connection stream cap.
type HelloAck struct {
	Codec      string `json:"codec"`
	MaxStreams int    `json:"maxStreams,omitempty"`
}

// ErrorPayload carries MsgError.
type ErrorPayload struct {
	Error string `json:"error,omitempty"`
}

// BusyPayload carries MsgBusy: the server's typed refusal of a request it
// shed at admission, with the retry hint the refusal derives from current
// load.
type BusyPayload struct {
	Error        string `json:"error,omitempty"`
	RetryAfterMs int64  `json:"retryAfterMs,omitempty"`
}

// ResultPayload answers MsgNegotiate and MsgRenegotiate.
type ResultPayload struct {
	Status         string             `json:"status,omitempty"`
	Offer          *profile.MMProfile `json:"offer,omitempty"`
	Session        core.SessionID     `json:"session,omitempty"`
	Cost           cost.Money         `json:"cost,omitempty"`
	Reason         string             `json:"reason,omitempty"`
	ChoicePeriodMs int64              `json:"choicePeriodMs,omitempty"`
	Violations     []string           `json:"violations,omitempty"`
	RetryAfterMs   int64              `json:"retryAfterMs,omitempty"`
	// Shed marks a FAILEDTRYLATER produced by admission control rather
	// than genuine resource shortage; omitted (and absent on the wire)
	// otherwise, preserving the legacy byte layout.
	Shed bool `json:"shed,omitempty"`
}

// OKPayload answers MsgConfirm and MsgReject.
type OKPayload struct {
	Session core.SessionID `json:"session,omitempty"`
}

// SessionInfoPayload answers MsgSession and streams on MsgWatch. The
// declaration order (session and cost before state) preserves the legacy
// byte layout.
type SessionInfoPayload struct {
	Session     core.SessionID `json:"session,omitempty"`
	Cost        cost.Money     `json:"cost,omitempty"`
	State       string         `json:"state,omitempty"`
	PositionMs  int64          `json:"positionMs,omitempty"`
	Transitions int            `json:"transitions,omitempty"`
	// Final marks the last update of a MsgWatch stream.
	Final bool `json:"final,omitempty"`
}

// DocumentsPayload answers MsgListDocuments.
type DocumentsPayload struct {
	Documents []DocumentSummary `json:"documents,omitempty"`
}

// StatsInfoPayload answers MsgStats. Shards carries the per-shard breakdown
// when the daemon fronts a sharded manager fleet (qosnegd -shards); it is
// absent from single-manager daemons, which older clients parse unchanged.
type StatsInfoPayload struct {
	Stats  *core.Stats  `json:"stats,omitempty"`
	Shards []shard.Stat `json:"shards,omitempty"`
}

// SessionsPayload answers MsgListSessions.
type SessionsPayload struct {
	Sessions []SessionSummary `json:"sessions,omitempty"`
}

// InvoicePayload answers MsgInvoice.
type InvoicePayload struct {
	Session core.SessionID `json:"session,omitempty"`
	Invoice *cost.Invoice  `json:"invoice,omitempty"`
}

// ServerLoadsPayload answers MsgServerLoads.
type ServerLoadsPayload struct {
	ServerLoads []core.ServerLoad `json:"serverLoads,omitempty"`
}

// MetricsPayload answers MsgMetrics.
type MetricsPayload struct {
	Metrics *telemetry.Snapshot `json:"metrics,omitempty"`
}

// messages is the protocol's registry. A message type's index is its type
// code on the binary codec (requests below 32, responses from 32 up, 0 never
// sent); alloc makes its fresh payload and is nil for payload-less messages.
// Codes 6 and 34 are retired: a retired code stays an empty slot, never reused.
var messages = [...]struct {
	typ   MessageType
	alloc func() any
}{
	1:  {MsgHello, alloc[HelloRequest]},
	2:  {MsgNegotiate, alloc[NegotiateRequest]},
	3:  {MsgConfirm, alloc[SessionRequest]},
	4:  {MsgReject, alloc[SessionRequest]},
	5:  {MsgRenegotiate, alloc[RenegotiateRequest]},
	7:  {MsgSession, alloc[SessionRequest]},
	8:  {MsgListDocuments, alloc[ListDocumentsRequest]},
	9:  {MsgStats, nil},
	10: {MsgListSessions, nil},
	11: {MsgInvoice, alloc[SessionRequest]},
	12: {MsgServerLoads, nil},
	13: {MsgWatch, alloc[WatchRequest]},
	14: {MsgMetrics, nil},

	32: {MsgHelloAck, alloc[HelloAck]},
	33: {MsgResult, alloc[ResultPayload]},
	35: {MsgOK, alloc[OKPayload]},
	36: {MsgSessionInfo, alloc[SessionInfoPayload]},
	37: {MsgDocuments, alloc[DocumentsPayload]},
	38: {MsgStatsInfo, alloc[StatsInfoPayload]},
	39: {MsgSessions, alloc[SessionsPayload]},
	40: {MsgInvoiceInfo, alloc[InvoicePayload]},
	41: {MsgServerLoadsInfo, alloc[ServerLoadsPayload]},
	42: {MsgMetricsInfo, alloc[MetricsPayload]},
	43: {MsgError, alloc[ErrorPayload]},
	44: {MsgBusy, alloc[BusyPayload]},
}

func alloc[T any]() any { return new(T) }

// codeOf maps a message type to its index in messages; unknown types read 0.
var codeOf = func() map[MessageType]byte {
	m := make(map[MessageType]byte, len(messages))
	for code, msg := range messages {
		if msg.typ != "" {
			m[msg.typ] = byte(code)
		}
	}
	return m
}()

// payloadFor returns a fresh payload pointer for a message type, or nil for
// types that carry no payload (and for unknown types, which the dispatcher
// rejects).
func payloadFor(t MessageType) any {
	if msg := messages[codeOf[t]]; msg.alloc != nil {
		return msg.alloc()
	}
	return nil
}

// encodeEnvelope renders the flat JSON object of a hello-exchange line.
func encodeEnvelope(e Envelope) ([]byte, error) {
	head := make([]byte, 0, 256)
	head = append(head, `{"type":`...)
	tb, err := json.Marshal(e.Type)
	if err != nil {
		return nil, err
	}
	head = append(head, tb...)
	if e.Payload == nil {
		return append(head, '}'), nil
	}
	body, err := json.Marshal(e.Payload)
	if err != nil {
		return nil, err
	}
	if len(body) < 2 || body[0] != '{' || body[len(body)-1] != '}' {
		return nil, fmt.Errorf("protocol: payload for %q is not a JSON object", e.Type)
	}
	if len(body) == 2 { // "{}"
		return append(head, '}'), nil
	}
	head = append(head, ',')
	return append(head, body[1:]...), nil
}

// decodeEnvelope parses a flat JSON object into a typed envelope. Unknown
// message types decode with a nil payload, so the caller can answer a
// protocol-level error instead of dropping the connection.
func decodeEnvelope(data []byte) (Envelope, error) {
	var probe struct {
		Type MessageType `json:"type"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return Envelope{}, err
	}
	e := Envelope{Type: probe.Type}
	if p := payloadFor(probe.Type); p != nil {
		if err := json.Unmarshal(data, p); err != nil {
			return Envelope{}, err
		}
		e.Payload = p
	}
	return e, nil
}

// ErrBusy is the client-side view of a MsgBusy reply: the server shed the
// request at admission instead of queueing it. RetryAfter is the server's
// load-derived hint; callers branch with errors.As.
type ErrBusy struct {
	RetryAfter time.Duration
	Message    string
}

func (e *ErrBusy) Error() string {
	return fmt.Sprintf("protocol: server busy: %s (retry after %s)", e.Message, e.RetryAfter)
}

// envelopeError maps a MsgError or MsgBusy envelope to a Go error; nil
// otherwise.
func envelopeError(e Envelope) error {
	switch e.Type {
	case MsgBusy:
		busy := &ErrBusy{Message: "overloaded"}
		if p, ok := e.Payload.(*BusyPayload); ok {
			if p.Error != "" {
				busy.Message = p.Error
			}
			busy.RetryAfter = time.Duration(p.RetryAfterMs) * time.Millisecond
		}
		return busy
	case MsgError:
		msg := "unknown error"
		if p, ok := e.Payload.(*ErrorPayload); ok && p.Error != "" {
			msg = p.Error
		}
		// The one manager error clients branch on keeps its identity across
		// the wire: an id the daemon never issued or has since forgotten.
		if rest, ok := strings.CutPrefix(msg, core.ErrUnknownSession.Error()); ok {
			return fmt.Errorf("protocol: server error: %w%s", core.ErrUnknownSession, rest)
		}
		return fmt.Errorf("protocol: server error: %s", msg)
	}
	return nil
}

// writeEnvelopeLine writes one line of the hello exchange.
func writeEnvelopeLine(w interface{ Write([]byte) (int, error) }, e Envelope) error {
	data, err := encodeEnvelope(e)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// errHelloTooLong refuses a hello-exchange line that outgrows the reader's
// buffer (4 KiB; a hello or its ack is under 100 bytes).
var errHelloTooLong = errors.New("hello line too long")

// readHelloLine reads one line of the hello exchange in place, bounded by
// r's buffer, so a peer that never sends a newline cannot make the other end
// buffer without limit. The line is valid until the next read from r.
func readHelloLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, errHelloTooLong
	}
	return line, err
}

// readEnvelopeLine decodes one line of the hello exchange, so client and
// server share one JSON parse path.
func readEnvelopeLine(line []byte) (Envelope, error) {
	return decodeEnvelope(bytes.TrimSpace(line))
}
