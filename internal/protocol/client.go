package protocol

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/shard"
	"qosneg/internal/telemetry"
)

// ErrClientClosed is returned for RPCs on a closed client.
var ErrClientClosed = errors.New("protocol: client closed")

// errConnBroken reports that the connection died under a concurrent caller
// before this RPC's exchange started.
var errConnBroken = errors.New("protocol: connection broken")

// RetryPolicy tunes the client's self-healing: how often a broken
// connection is redialed and idempotent RPCs retried, with capped
// exponential backoff plus jitter between attempts. The zero value selects
// the defaults below.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per idempotent RPC
	// (default 4). 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 50ms);
	// each further retry doubles it up to MaxDelay (default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Jitter is the random fraction added to each backoff, in [0, Jitter)
	// of the delay (default 0.2).
	Jitter float64
}

// DefaultRetryPolicy returns the policy Dial uses: 4 attempts, 50ms base
// delay doubling to a 2s cap, 20% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Jitter: 0.2}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.Jitter <= 0 {
		p.Jitter = d.Jitter
	}
	return p
}

// backoff returns the delay before retry number n (0-based), capped
// exponential with jitter.
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.BaseDelay
	for i := 0; i < n && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d + time.Duration(p.Jitter*rand.Float64()*float64(d))
}

// ClientOption configures Dial and NewClient.
type ClientOption func(*Client)

// WithWire sets the client's codec preference and stream cap; the zero
// value offers binary-then-JSON with the default cap.
func WithWire(w WireOptions) ClientOption {
	return func(c *Client) { c.wire = w }
}

// Client is the profile-manager side of the wire protocol: it connects to a
// negotiation daemon and performs negotiate/confirm/reject rounds. It is
// safe for concurrent use.
//
// On the binary codec (the default when the daemon speaks it) concurrent
// RPCs are multiplexed over one connection on per-request stream ids, a
// Watch is a server-push stream that does not block other calls, and
// canceling a call only abandons its stream — the connection stays healthy.
// On the JSON fallback codec requests are serialized one at a time and
// cancellation is implemented by poisoning the connection's deadline: a
// canceled in-flight call returns the context's error and marks the
// connection broken.
//
// Every RPC takes a context as its first argument.
//
// Clients built by Dial self-heal: a broken connection is automatically
// redialed with capped exponential backoff, and read-only RPCs (Session,
// ListDocuments, ListSessions, Stats, Invoice, ServerLoads, Metrics) are
// retried on the fresh connection. State-changing RPCs (Negotiate,
// Renegotiate, BatchNegotiate, Confirm, Reject) are never retried — a lost
// response could mean the daemon already committed resources — but they do
// get a fresh dial when the connection is already known broken before the
// attempt. Clients built by NewClient have no address to redial and fail
// fast instead.
type Client struct {
	addr  string
	retry RetryPolicy
	wire  WireOptions

	mu      sync.Mutex
	cc      *clientConn
	pending net.Conn // from NewClient; handshake deferred to first use
	closed  bool
	dialed  bool // a connection has been established at least once
	redials int

	// Telemetry, installed by Instrument; nil when uninstrumented.
	rpcSeconds  *telemetry.HistogramFamily
	rpcErrors   *telemetry.CounterFamily
	redialCtr   *telemetry.Counter
	connCtr     *telemetry.CounterFamily
	streamGauge *telemetry.Gauge
	tracer      telemetry.Tracer
}

// Instrument wires the client into a telemetry registry (per-RPC latency
// histograms and error counters by message type, a redial counter, a
// per-codec connection counter and a live-stream gauge) and an optional
// tracer that receives a StepRedial span per successful reconnect. Both
// arguments may be nil.
func (c *Client) Instrument(reg *telemetry.Registry, tr telemetry.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if reg != nil {
		c.rpcSeconds = reg.HistogramFamily("qosneg_rpc_client_seconds",
			"Client-side RPC latency by message type, including retries.", "type", telemetry.LatencyBuckets)
		c.rpcErrors = reg.CounterFamily("qosneg_rpc_client_errors_total",
			"Client RPCs that ultimately failed, by message type.", "type")
		c.redialCtr = reg.Counter("qosneg_client_redials_total",
			"Successful reconnects to the daemon.")
		c.connCtr = reg.CounterFamily("qosneg_client_connections_total",
			"Connections established, by negotiated codec.", "codec")
		c.streamGauge = reg.Gauge("qosneg_client_streams",
			"Currently open client-side streams on multiplexed connections.")
	}
	c.tracer = tr
}

// Dial connects to a negotiation daemon with the default retry policy.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	return DialContext(context.Background(), addr, opts...)
}

// DialContext connects to a negotiation daemon with the default retry
// policy, abandoning the attempt when ctx is canceled.
func DialContext(ctx context.Context, addr string, opts ...ClientOption) (*Client, error) {
	return DialRetry(ctx, addr, DefaultRetryPolicy(), opts...)
}

// DialRetry connects to a negotiation daemon with an explicit retry
// policy. The initial dial — including the codec handshake — is a single
// attempt, so a daemon that is down now fails fast; the policy governs
// redials and idempotent-RPC retries afterward.
func DialRetry(ctx context.Context, addr string, policy RetryPolicy, opts ...ClientOption) (*Client, error) {
	c := &Client{addr: addr, retry: policy}
	for _, o := range opts {
		o(c)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.connectLocked(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established connection; the codec handshake runs on
// first use. Having no address, the client cannot redial: a broken
// connection stays broken.
func NewClient(conn net.Conn, opts ...ClientOption) *Client {
	c := &Client{pending: conn}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Close closes the connection; subsequent RPCs return ErrClientClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	cc, pending := c.cc, c.pending
	c.cc, c.pending = nil, nil
	c.mu.Unlock()
	if pending != nil {
		pending.Close()
	}
	if cc != nil {
		cc.close(ErrClientClosed)
	}
	return nil
}

// Redials reports how many times the client reconnected.
func (c *Client) Redials() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.redials
}

// Codec reports the negotiated codec of the live connection, or "" when no
// connection is up.
func (c *Client) Codec() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cc == nil {
		return ""
	}
	return c.cc.codec
}

// grab returns a healthy connection, dialing or handshaking one if needed.
// Dialing happens under c.mu so concurrent callers share one attempt.
func (c *Client) grab(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClientClosed
	}
	if c.cc != nil && !c.cc.isBroken() {
		return c.cc, nil
	}
	return c.connectLocked(ctx)
}

// connectLocked establishes a fresh connection; the caller holds c.mu.
func (c *Client) connectLocked(ctx context.Context) (*clientConn, error) {
	if c.cc != nil {
		c.cc.close(errConnBroken)
		c.cc = nil
	}
	var nc net.Conn
	switch {
	case c.pending != nil:
		nc, c.pending = c.pending, nil
	case c.addr != "":
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", c.addr)
		if err != nil {
			if !c.dialed {
				return nil, err
			}
			return nil, fmt.Errorf("protocol: redial %s: %w", c.addr, err)
		}
		nc = conn
	default:
		return nil, fmt.Errorf("protocol: connection broken and not redialable (built by NewClient)")
	}
	cc, err := c.handshake(ctx, nc)
	if err != nil {
		nc.Close()
		return nil, err
	}
	c.cc = cc
	c.connCtr.With(cc.codec).Inc()
	if c.dialed {
		c.redials++
		c.redialCtr.Inc()
		if c.tracer != nil {
			c.tracer.Trace(telemetry.Event{Step: telemetry.StepRedial, Server: c.addr})
		}
	}
	c.dialed = true
	return cc, nil
}

// handshake runs codec negotiation on a fresh connection. A client
// configured as JSON-only skips it entirely (legacy behaviour, byte for
// byte). Otherwise it sends MsgHello and adopts the server's choice; a
// legacy server answers MsgError, which selects the JSON fallback when the
// preference list allows it.
func (c *Client) handshake(ctx context.Context, nc net.Conn) (*clientConn, error) {
	cc := &clientConn{owner: c, nc: nc, r: bufio.NewReader(nc)}
	prefs := c.wire.codecs()
	if len(prefs) == 1 && prefs[0] == CodecJSON {
		cc.codec = CodecJSON
		return cc, nil
	}
	stop, done := cc.arm(ctx)
	hello := Envelope{Type: MsgHello, Payload: &HelloRequest{Codecs: prefs, MaxStreams: c.wire.maxStreams()}}
	sendErr := writeEnvelopeLine(nc, hello)
	var resp Envelope
	var recvErr error
	if sendErr == nil {
		resp, recvErr = cc.readLine()
	}
	if !stop() {
		<-done
		if sendErr == nil && recvErr == nil {
			nc.SetDeadline(time.Time{})
		}
	}
	if sendErr != nil {
		return nil, fmt.Errorf("protocol: handshake send: %w", sendErr)
	}
	if recvErr != nil {
		return nil, c.finishCtx(ctx, fmt.Errorf("protocol: handshake receive: %w", recvErr))
	}
	streams := c.wire.maxStreams()
	switch p := resp.Payload.(type) {
	case *HelloAck:
		if !c.wire.supports(p.Codec) {
			return nil, fmt.Errorf("protocol: server chose unsupported codec %q", p.Codec)
		}
		cc.codec = p.Codec
		if p.MaxStreams > 0 && p.MaxStreams < streams {
			streams = p.MaxStreams
		}
	case *ErrorPayload:
		// A server that predates the handshake: fall back to plain JSON if
		// the preference list allows it.
		if !c.wire.supports(CodecJSON) {
			return nil, fmt.Errorf("protocol: server does not speak %v: %s", prefs, p.Error)
		}
		cc.codec = CodecJSON
	default:
		return nil, fmt.Errorf("protocol: unexpected handshake response %q", resp.Type)
	}
	if cc.codec == CodecBinary {
		cc.sem = make(chan struct{}, streams)
		cc.streams = make(map[uint32]streamSink)
		cc.closedCh = make(chan struct{})
		cc.fw = newFrameWriter(nc, func(error) { nc.Close() })
		go cc.readLoop()
	}
	return cc, nil
}

func (c *Client) finishCtx(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		return fmt.Errorf("protocol: %w", ctx.Err())
	}
	return err
}

// drop retires a connection the caller found broken.
func (c *Client) drop(cc *clientConn) {
	c.mu.Lock()
	if c.cc == cc {
		c.cc = nil
	}
	c.mu.Unlock()
	cc.close(errConnBroken)
}

// roundTrip performs one RPC. Idempotent RPCs are retried across redials
// per the retry policy; non-idempotent ones get at most a fresh dial (when
// the connection was already broken) and a single exchange.
func (c *Client) roundTrip(ctx context.Context, env Envelope, idempotent bool) (Envelope, error) {
	if c.rpcSeconds != nil {
		begin := time.Now()
		defer func() { c.rpcSeconds.With(string(env.Type)).Observe(time.Since(begin)) }()
	}
	resp, err := c.roundTripRetry(ctx, env, idempotent)
	if err != nil {
		c.rpcErrors.With(string(env.Type)).Inc()
	}
	return resp, err
}

func (c *Client) roundTripRetry(ctx context.Context, env Envelope, idempotent bool) (Envelope, error) {
	policy := c.retry.withDefaults()
	attempts := 1
	if idempotent && c.addr != "" {
		attempts = policy.MaxAttempts
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return Envelope{}, fmt.Errorf("protocol: %w", err)
		}
		if attempt > 0 {
			if err := sleepCtx(ctx, policy.backoff(attempt-1)); err != nil {
				return Envelope{}, fmt.Errorf("protocol: %w", err)
			}
		}
		cc, err := c.grab(ctx)
		if err != nil {
			if errors.Is(err, ErrClientClosed) || c.addr == "" {
				return Envelope{}, err
			}
			lastErr = err
			if !idempotent {
				break
			}
			continue
		}
		resp, err := cc.exchange(ctx, env)
		if err == nil || !cc.isBroken() {
			// Success, or a server-reported error / cancellation on a
			// healthy connection: nothing to heal.
			return resp, err
		}
		c.drop(cc)
		lastErr = err
		if !idempotent {
			break
		}
	}
	return Envelope{}, lastErr
}

// sleepCtx sleeps for d or until ctx is canceled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// NegotiationResult is the client-side view of a negotiation outcome.
type NegotiationResult struct {
	Status       core.NegotiationStatus
	Offer        *profile.MMProfile
	Session      core.SessionID
	Cost         cost.Money
	ChoicePeriod time.Duration
	Violations   []string
	Reason       string
	// RetryAfter is the daemon's retry hint for FAILEDTRYLATER.
	RetryAfter time.Duration
	// Shed reports that the daemon's admission controller refused the
	// request before any reservation work — FAILEDTRYLATER by overload, not
	// by genuine resource exhaustion. RetryAfter carries the controller's
	// load-derived hint.
	Shed bool
}

func negotiationResult(p *ResultPayload) (NegotiationResult, error) {
	status, ok := ParseStatus(p.Status)
	if !ok {
		return NegotiationResult{}, fmt.Errorf("protocol: unknown status %q", p.Status)
	}
	return NegotiationResult{
		Status:       status,
		Offer:        p.Offer,
		Session:      p.Session,
		Cost:         p.Cost,
		ChoicePeriod: time.Duration(p.ChoicePeriodMs) * time.Millisecond,
		Violations:   p.Violations,
		Reason:       p.Reason,
		RetryAfter:   time.Duration(p.RetryAfterMs) * time.Millisecond,
		Shed:         p.Shed,
	}, nil
}

func resultEnvelope(resp Envelope) (NegotiationResult, error) {
	p, ok := resp.Payload.(*ResultPayload)
	if !ok {
		return NegotiationResult{}, fmt.Errorf("protocol: unexpected response %q", resp.Type)
	}
	return negotiationResult(p)
}

// Negotiate runs the negotiation procedure on the daemon.
func (c *Client) Negotiate(ctx context.Context, mach client.Machine, doc media.DocumentID, u profile.UserProfile) (NegotiationResult, error) {
	resp, err := c.roundTrip(ctx, Envelope{Type: MsgNegotiate, Payload: &NegotiateRequest{
		Machine:  &mach,
		Document: doc,
		Profile:  &u,
	}}, false)
	if err != nil {
		return NegotiationResult{}, err
	}
	return resultEnvelope(resp)
}

// Renegotiate re-runs the negotiation for a reserved session with a
// modified profile.
func (c *Client) Renegotiate(ctx context.Context, id core.SessionID, u profile.UserProfile) (NegotiationResult, error) {
	resp, err := c.roundTrip(ctx, Envelope{Type: MsgRenegotiate, Payload: &RenegotiateRequest{Profile: &u, Session: id}}, false)
	if err != nil {
		return NegotiationResult{}, err
	}
	return resultEnvelope(resp)
}

// BatchResult is one item's outcome of a BatchNegotiate: either Err or an
// embedded negotiation result.
type BatchResult struct {
	Err error
	NegotiationResult
}

// BatchNegotiate negotiates a list of (machine, document, profile) triples
// — a playlist, or the monomedia of a composite document — in a single
// round trip. The daemon fans the items out concurrently; item i of the
// returned slice answers items[i], and one failed item does not fail its
// siblings. Like Negotiate, the call is never retried across a broken
// connection.
func (c *Client) BatchNegotiate(ctx context.Context, items []BatchItem) ([]BatchResult, error) {
	req := &BatchNegotiateRequest{Items: items}
	// Propagate the caller's deadline so the server bounds each item's
	// negotiation independently instead of only the whole batch.
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.TimeoutMs = ms
		}
	}
	resp, err := c.roundTrip(ctx, Envelope{Type: MsgBatchNegotiate, Payload: req}, false)
	if err != nil {
		return nil, err
	}
	p, ok := resp.Payload.(*BatchResultPayload)
	if !ok {
		return nil, fmt.Errorf("protocol: unexpected response %q", resp.Type)
	}
	if len(p.Items) != len(items) {
		return nil, fmt.Errorf("protocol: batch answered %d of %d items", len(p.Items), len(items))
	}
	out := make([]BatchResult, len(p.Items))
	for i := range p.Items {
		if p.Items[i].Error != "" {
			out[i].Err = fmt.Errorf("protocol: server error: %s", p.Items[i].Error)
			continue
		}
		res, err := negotiationResult(&p.Items[i].ResultPayload)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].NegotiationResult = res
	}
	return out, nil
}

// Confirm accepts a reserved offer.
func (c *Client) Confirm(ctx context.Context, id core.SessionID) error {
	_, err := c.roundTrip(ctx, Envelope{Type: MsgConfirm, Payload: &SessionRequest{Session: id}}, false)
	return err
}

// Reject declines a reserved offer, releasing its resources.
func (c *Client) Reject(ctx context.Context, id core.SessionID) error {
	_, err := c.roundTrip(ctx, Envelope{Type: MsgReject, Payload: &SessionRequest{Session: id}}, false)
	return err
}

// SessionInfo is the client-side view of a session's state.
type SessionInfo struct {
	Session     core.SessionID
	State       string
	Position    time.Duration
	Transitions int
	Cost        cost.Money
}

func sessionInfo(p *SessionInfoPayload) SessionInfo {
	return SessionInfo{
		Session:     p.Session,
		State:       p.State,
		Position:    time.Duration(p.PositionMs) * time.Millisecond,
		Transitions: p.Transitions,
		Cost:        p.Cost,
	}
}

// Session queries a session's state.
func (c *Client) Session(ctx context.Context, id core.SessionID) (SessionInfo, error) {
	resp, err := c.roundTrip(ctx, Envelope{Type: MsgSession, Payload: &SessionRequest{Session: id}}, true)
	if err != nil {
		return SessionInfo{}, err
	}
	p, ok := resp.Payload.(*SessionInfoPayload)
	if !ok {
		return SessionInfo{}, fmt.Errorf("protocol: unexpected response %q", resp.Type)
	}
	return sessionInfo(p), nil
}

// Watch streams session updates until the session completes or aborts,
// calling fn for every state or transition change. On a multiplexed
// connection the watch runs on its own stream: other RPCs on this client
// proceed concurrently, and canceling ctx ends just the watch — the
// connection stays usable. On the JSON fallback the watch occupies the
// connection until the final update, and a cancellation breaks the
// connection (the next RPC redials). A non-positive interval selects the
// server default.
func (c *Client) Watch(ctx context.Context, id core.SessionID, interval time.Duration, fn func(SessionInfo)) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("protocol: %w", err)
	}
	cc, err := c.grab(ctx)
	if err != nil {
		return err
	}
	req := Envelope{Type: MsgWatch, Payload: &WatchRequest{Session: id, IntervalMs: interval.Milliseconds()}}
	if cc.codec == CodecBinary {
		return cc.watchBinary(ctx, req, fn)
	}
	return cc.watchJSON(ctx, req, fn)
}

// ListDocuments lists the daemon's catalog, optionally filtered by a title
// substring.
func (c *Client) ListDocuments(ctx context.Context, query string) ([]DocumentSummary, error) {
	resp, err := c.roundTrip(ctx, Envelope{Type: MsgListDocuments, Payload: &ListDocumentsRequest{Query: query}}, true)
	if err != nil {
		return nil, err
	}
	p, ok := resp.Payload.(*DocumentsPayload)
	if !ok {
		return nil, fmt.Errorf("protocol: unexpected response %q", resp.Type)
	}
	return p.Documents, nil
}

// ListSessions lists the daemon's sessions, ordered by id.
func (c *Client) ListSessions(ctx context.Context) ([]SessionSummary, error) {
	resp, err := c.roundTrip(ctx, Envelope{Type: MsgListSessions}, true)
	if err != nil {
		return nil, err
	}
	p, ok := resp.Payload.(*SessionsPayload)
	if !ok {
		return nil, fmt.Errorf("protocol: unexpected response %q", resp.Type)
	}
	return p.Sessions, nil
}

// Invoice fetches a session's itemized bill.
func (c *Client) Invoice(ctx context.Context, id core.SessionID) (cost.Invoice, error) {
	resp, err := c.roundTrip(ctx, Envelope{Type: MsgInvoice, Payload: &SessionRequest{Session: id}}, true)
	if err != nil {
		return cost.Invoice{}, err
	}
	p, ok := resp.Payload.(*InvoicePayload)
	if !ok || p.Invoice == nil {
		return cost.Invoice{}, fmt.Errorf("protocol: empty invoice response")
	}
	return *p.Invoice, nil
}

// ServerLoads fetches the media servers' current load.
func (c *Client) ServerLoads(ctx context.Context) ([]core.ServerLoad, error) {
	resp, err := c.roundTrip(ctx, Envelope{Type: MsgServerLoads}, true)
	if err != nil {
		return nil, err
	}
	p, ok := resp.Payload.(*ServerLoadsPayload)
	if !ok {
		return nil, fmt.Errorf("protocol: unexpected response %q", resp.Type)
	}
	return p.ServerLoads, nil
}

// Stats fetches the daemon's outcome counters.
func (c *Client) Stats(ctx context.Context) (core.Stats, error) {
	resp, err := c.roundTrip(ctx, Envelope{Type: MsgStats}, true)
	if err != nil {
		return core.Stats{}, err
	}
	p, ok := resp.Payload.(*StatsInfoPayload)
	if !ok || p.Stats == nil {
		return core.Stats{}, fmt.Errorf("protocol: empty stats response")
	}
	return *p.Stats, nil
}

// ShardStats fetches the per-shard breakdown of a daemon fronting a sharded
// manager fleet: session counts, outcome counters, breaker states and update
// bus lag per shard. A single-manager daemon answers with no rows.
func (c *Client) ShardStats(ctx context.Context) ([]shard.Stat, error) {
	resp, err := c.roundTrip(ctx, Envelope{Type: MsgStats}, true)
	if err != nil {
		return nil, err
	}
	p, ok := resp.Payload.(*StatsInfoPayload)
	if !ok {
		return nil, fmt.Errorf("protocol: empty stats response")
	}
	return p.Shards, nil
}

// Metrics fetches the daemon's telemetry snapshot: every counter, gauge and
// latency histogram the daemon records. A daemon running without telemetry
// answers with an empty snapshot.
func (c *Client) Metrics(ctx context.Context) (telemetry.Snapshot, error) {
	resp, err := c.roundTrip(ctx, Envelope{Type: MsgMetrics}, true)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	p, ok := resp.Payload.(*MetricsPayload)
	if !ok || p.Metrics == nil {
		return telemetry.Snapshot{}, fmt.Errorf("protocol: empty metrics response")
	}
	return *p.Metrics, nil
}

// streamSink is where the read loop delivers one stream's envelopes and the
// connection's terminal error. Neither method may block: the loop serves
// every stream of the connection.
type streamSink interface {
	push(Envelope)
	fail(error)
}

// reply is a unary RPC's response, or the error that ended the wait for it.
type reply struct {
	env Envelope
	err error
}

// replySlot is a unary RPC's sink: one slot for the one response. Anything
// after the first delivery (a second frame, the teardown error) is dropped.
type replySlot chan reply

func (s replySlot) push(e Envelope) { s.put(reply{env: e}) }
func (s replySlot) fail(err error)  { s.put(reply{err: err}) }

func (s replySlot) put(r reply) {
	select {
	case s <- r:
	default:
	}
}

// clientStream is a watch's sink: an unbounded queue, so the connection's
// read loop never blocks on a slow or abandoned consumer.
type clientStream struct {
	mu  sync.Mutex
	q   []Envelope
	err error
	sig chan struct{}
}

func newClientStream() *clientStream {
	return &clientStream{sig: make(chan struct{}, 1)}
}

func (s *clientStream) signal() {
	select {
	case s.sig <- struct{}{}:
	default:
	}
}

func (s *clientStream) push(e Envelope) {
	s.mu.Lock()
	s.q = append(s.q, e)
	s.mu.Unlock()
	s.signal()
}

func (s *clientStream) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.signal()
}

// next returns the stream's next envelope, the stream's terminal error, or
// ctx's error — whichever comes first.
func (s *clientStream) next(ctx context.Context) (Envelope, error) {
	for {
		s.mu.Lock()
		if len(s.q) > 0 {
			e := s.q[0]
			s.q = s.q[1:]
			s.mu.Unlock()
			return e, nil
		}
		err := s.err
		s.mu.Unlock()
		if err != nil {
			return Envelope{}, err
		}
		select {
		case <-s.sig:
		case <-ctx.Done():
			return Envelope{}, ctx.Err()
		}
	}
}

// clientConn is one negotiated connection: either the serialized JSON
// fallback or the multiplexed binary codec.
type clientConn struct {
	owner *Client
	nc    net.Conn
	codec string
	r     *bufio.Reader

	broken atomic.Bool

	// JSON mode: one exchange at a time.
	jmu sync.Mutex

	// Binary mode.
	fw       *frameWriter
	sem      chan struct{}
	smu      sync.Mutex
	streams  map[uint32]streamSink
	nextID   uint32
	connErr  error
	closedCh chan struct{}
	tonce    sync.Once
}

func (cc *clientConn) isBroken() bool { return cc.broken.Load() }

// close tears the connection down; every pending stream fails with err.
func (cc *clientConn) close(err error) {
	if cc.codec == CodecBinary {
		cc.teardown(err)
		return
	}
	cc.broken.Store(true)
	cc.nc.Close()
}

// teardown ends a binary connection once: pending streams fail, the writer
// stops, the socket closes.
func (cc *clientConn) teardown(err error) {
	cc.tonce.Do(func() {
		cc.broken.Store(true)
		cc.smu.Lock()
		cc.connErr = err
		streams := cc.streams
		cc.streams = nil
		close(cc.closedCh)
		cc.smu.Unlock()
		for _, st := range streams {
			st.fail(err)
		}
		cc.nc.Close()
		go cc.fw.stop()
	})
}

// readLoop demultiplexes binary frames to their streams until the
// connection dies.
func (cc *clientConn) readLoop() {
	frames := frameReader{r: cc.r}
	for {
		f, err := frames.next()
		if err != nil {
			cc.teardown(fmt.Errorf("protocol: receive: %w", err))
			return
		}
		if f.Flags&flagCancel != 0 {
			continue
		}
		env, err := decodeBody(f.Payload)
		if err != nil {
			cc.teardown(fmt.Errorf("protocol: receive: %w", err))
			return
		}
		cc.smu.Lock()
		st := cc.streams[f.Stream]
		cc.smu.Unlock()
		if st != nil {
			// Responses to abandoned streams are dropped here instead:
			// the caller deregistered before leaving.
			st.push(env)
		}
	}
}

// startStream takes a stream slot (bounded by the negotiated cap), registers
// sink under a fresh stream id and puts the request on the wire; a
// connection that cannot take it is torn down. On success the caller must
// endStream.
func (cc *clientConn) startStream(ctx context.Context, sink streamSink, env Envelope) (uint32, error) {
	select {
	case cc.sem <- struct{}{}:
	case <-cc.closedCh:
		cc.smu.Lock()
		defer cc.smu.Unlock()
		return 0, cc.errLocked()
	case <-ctx.Done():
		return 0, fmt.Errorf("protocol: %w", ctx.Err())
	}
	cc.smu.Lock()
	if cc.streams == nil {
		err := cc.errLocked()
		cc.smu.Unlock()
		<-cc.sem
		return 0, err
	}
	for {
		cc.nextID++
		if cc.nextID == 0 {
			cc.nextID = 1
		}
		if _, taken := cc.streams[cc.nextID]; !taken {
			break
		}
	}
	id := cc.nextID
	cc.streams[id] = sink
	cc.smu.Unlock()
	cc.owner.streamGauge.Add(1)
	if err := cc.fw.sendEnvelope(id, 0, env); err != nil {
		cc.endStream(id)
		err = fmt.Errorf("protocol: send: %w", err)
		cc.teardown(err)
		return 0, err
	}
	return id, nil
}

// endStream deregisters a stream and gives its slot back.
func (cc *clientConn) endStream(id uint32) {
	cc.smu.Lock()
	if cc.streams != nil {
		delete(cc.streams, id)
	}
	cc.smu.Unlock()
	cc.owner.streamGauge.Add(-1)
	<-cc.sem
}

func (cc *clientConn) errLocked() error {
	if cc.connErr != nil {
		return cc.connErr
	}
	return errConnBroken
}

// abandon gives up on a stream whose context ended: a best-effort cancel
// frame tells the server to stop; the connection stays healthy.
func (cc *clientConn) abandon(ctx context.Context, id uint32) error {
	if !cc.isBroken() {
		cc.fw.send(newFrame(id, flagCancel))
	}
	return fmt.Errorf("protocol: %w", ctx.Err())
}

// exchange performs one request/response on this connection, whichever
// codec it speaks.
func (cc *clientConn) exchange(ctx context.Context, env Envelope) (Envelope, error) {
	if cc.codec == CodecBinary {
		return cc.exchangeBinary(ctx, env)
	}
	return cc.exchangeJSON(ctx, env)
}

// exchangeBinary runs the RPC on its own stream.
func (cc *clientConn) exchangeBinary(ctx context.Context, env Envelope) (Envelope, error) {
	slot := make(replySlot, 1)
	id, err := cc.startStream(ctx, slot, env)
	if err != nil {
		return Envelope{}, err
	}
	defer cc.endStream(id)
	var rep reply
	select {
	case rep = <-slot:
	case <-ctx.Done():
		select {
		case rep = <-slot: // the response beat the cancellation
		default:
			return Envelope{}, cc.abandon(ctx, id)
		}
	}
	if rep.err != nil {
		return Envelope{}, rep.err
	}
	return rep.env, envelopeError(rep.env)
}

// exchangeJSON performs one serialized request/response; concurrent callers
// queue on the connection. Transport failures and cancellations mark the
// connection broken, exactly as the legacy protocol behaved.
func (cc *clientConn) exchangeJSON(ctx context.Context, env Envelope) (Envelope, error) {
	cc.jmu.Lock()
	defer cc.jmu.Unlock()
	if cc.isBroken() {
		return Envelope{}, errConnBroken
	}
	stop, done := cc.arm(ctx)
	sendErr := writeEnvelopeLine(cc.nc, env)
	var resp Envelope
	var recvErr error
	if sendErr == nil {
		resp, recvErr = cc.readLine()
	}
	if !stop() {
		// The AfterFunc fired. Wait for it, then clear the poisoned
		// deadline if the exchange actually completed first — otherwise
		// the stale past deadline would fail every later call on this
		// connection.
		<-done
		if sendErr == nil && recvErr == nil {
			cc.nc.SetDeadline(time.Time{})
		}
	}
	if sendErr != nil {
		cc.broken.Store(true)
		return Envelope{}, cc.owner.finishCtx(ctx, fmt.Errorf("protocol: send: %w", sendErr))
	}
	if recvErr != nil {
		cc.broken.Store(true)
		return Envelope{}, cc.owner.finishCtx(ctx, fmt.Errorf("protocol: receive: %w", recvErr))
	}
	if err := envelopeError(resp); err != nil {
		return resp, err
	}
	return resp, nil
}

// arm makes a ctx cancellation interrupt reads and writes on the
// connection by forcing its deadline into the past. The returned stop must
// be called when the call completes; when it reports false the caller must
// wait on done before touching the deadline again — the poisoning callback
// may still be mid-flight.
func (cc *clientConn) arm(ctx context.Context) (stop func() bool, done chan struct{}) {
	done = make(chan struct{})
	if ctx.Done() == nil {
		close(done)
		return func() bool { return true }, done
	}
	conn := cc.nc
	stop = context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Now())
		close(done)
	})
	return stop, done
}

func (cc *clientConn) readLine() (Envelope, error) {
	line, err := cc.r.ReadBytes('\n')
	if err != nil {
		return Envelope{}, err
	}
	return readEnvelopeLine(line)
}

// watchBinary consumes a server-push watch stream on its own stream id.
func (cc *clientConn) watchBinary(ctx context.Context, req Envelope, fn func(SessionInfo)) error {
	st := newClientStream()
	id, err := cc.startStream(ctx, st, req)
	if err != nil {
		return err
	}
	defer cc.endStream(id)
	for {
		resp, err := st.next(ctx)
		if err != nil {
			if ctx.Err() != nil && !cc.isBroken() {
				return cc.abandon(ctx, id)
			}
			return err
		}
		if err := envelopeError(resp); err != nil {
			return err
		}
		p, ok := resp.Payload.(*SessionInfoPayload)
		if !ok {
			return fmt.Errorf("protocol: unexpected watch update %q", resp.Type)
		}
		fn(sessionInfo(p))
		if p.Final {
			return nil
		}
	}
}

// watchJSON consumes a watch stream on the serialized JSON codec; the
// connection is busy until the final update.
func (cc *clientConn) watchJSON(ctx context.Context, req Envelope, fn func(SessionInfo)) error {
	cc.jmu.Lock()
	defer cc.jmu.Unlock()
	if cc.isBroken() {
		return errConnBroken
	}
	stop, done := cc.arm(ctx)
	defer func() {
		if !stop() {
			<-done
			if !cc.isBroken() {
				cc.nc.SetDeadline(time.Time{})
			}
		}
	}()
	if err := writeEnvelopeLine(cc.nc, req); err != nil {
		cc.broken.Store(true)
		return cc.owner.finishCtx(ctx, fmt.Errorf("protocol: send: %w", err))
	}
	for {
		resp, err := cc.readLine()
		if err != nil {
			cc.broken.Store(true)
			return cc.owner.finishCtx(ctx, fmt.Errorf("protocol: receive: %w", err))
		}
		if err := envelopeError(resp); err != nil {
			return err
		}
		p, ok := resp.Payload.(*SessionInfoPayload)
		if !ok {
			return fmt.Errorf("protocol: unexpected watch update %q", resp.Type)
		}
		fn(sessionInfo(p))
		if p.Final {
			return nil
		}
	}
}
