package protocol

import (
	"bufio"
	"bytes"
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
	"qosneg/internal/telemetry"
)

// ErrClientClosed is returned for RPCs on a closed client.
var ErrClientClosed = errors.New("protocol: client closed")

// ErrHandshakeRefused reports a daemon that answered the hello with
// anything but an ack naming CodecBinary: one that predates the handshake
// or speaks another codec. The client never downgrades.
var ErrHandshakeRefused = errors.New("protocol: handshake refused")

// errConnBroken reports that the connection died under a concurrent caller
// before this RPC's exchange started.
var errConnBroken = errors.New("protocol: connection broken")

// Self-healing: a broken connection is redialed and an idempotent RPC tried
// retryAttempts times in all, backing off retryBase doubling up to retryMax,
// plus a random fraction in [0, retryJitter) of each delay.
const (
	retryAttempts = 4
	retryBase     = 50 * time.Millisecond
	retryMax      = 2 * time.Second
	retryJitter   = 0.2
)

// backoff returns the delay before retry number n (0-based), capped
// exponential with jitter.
func backoff(n int) time.Duration {
	d := retryBase
	for i := 0; i < n && d < retryMax; i++ {
		d *= 2
	}
	d = min(d, retryMax)
	return d + time.Duration(retryJitter*rand.Float64()*float64(d))
}

// ClientOption configures Dial and NewClient.
type ClientOption func(*Client)

// WithWire sets the client's stream cap; the zero value asks for the
// default cap.
func WithWire(w WireOptions) ClientOption {
	return func(c *Client) { c.wire = w }
}

// Client is the profile-manager side of the wire protocol: it connects to a
// negotiation daemon and performs negotiate/confirm/reject rounds. It is
// safe for concurrent use.
//
// Each connection opens with a hello offering CodecBinary; a daemon that
// refuses it, or acks another codec, fails the dial with a typed error.
// Concurrent RPCs are multiplexed over the connection on per-request stream
// ids, a Watch is a server-push stream that does not block other calls, and
// canceling a call only abandons its stream — the connection stays healthy.
//
// Every RPC takes a context as its first argument.
//
// Clients built by Dial self-heal: a broken connection is automatically
// redialed with capped exponential backoff, and read-only RPCs (Session,
// ListDocuments, ListSessions, Invoice, Metrics) are
// retried on the fresh connection. State-changing RPCs (Negotiate,
// Renegotiate, Confirm, Reject) are never retried — a lost
// response could mean the daemon already committed resources — but they do
// get a fresh dial when the connection is already known broken before the
// attempt. Clients built by NewClient have no address to redial and fail
// fast instead.
type Client struct {
	addr string
	wire WireOptions

	mu      sync.Mutex
	cc      *clientConn
	pending net.Conn // from NewClient; handshake deferred to first use
	closed  bool
	dialed  bool // a connection has been established at least once
	redials int

	// Telemetry, installed by Instrument; nil when uninstrumented.
	rpcSeconds *telemetry.HistogramFamily
	rpcErrors  *telemetry.CounterFamily
	tracer     telemetry.Tracer
}

// Instrument wires the client into a telemetry registry (per-RPC latency
// histograms and error counters by message type, and the redial,
// connection and live-stream series read from the client itself) and an
// optional tracer that receives a StepRedial span per successful reconnect.
// Both arguments may be nil.
func (c *Client) Instrument(reg *telemetry.Registry, tr telemetry.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = tr
	if reg == nil {
		return
	}
	c.rpcSeconds = reg.HistogramFamily("qosneg_rpc_client_seconds",
		"Client-side RPC latency by message type, including retries.", "type", telemetry.LatencyBuckets)
	c.rpcErrors = reg.CounterFamily("qosneg_rpc_client_errors_total",
		"Client RPCs that ultimately failed, by message type.", "type")
	collectLocked(reg, &c.mu, c, "qosneg_client_redials_total", "Successful reconnects to the daemon.", false,
		func() int { return c.redials })
	collectLocked(reg, &c.mu, c, "qosneg_client_connections_total", "Connections established.", false, func() int {
		if !c.dialed {
			return 0
		}
		return 1 + c.redials
	})
	collectLocked(reg, &c.mu, c, "qosneg_client_streams", "Currently open client-side streams on multiplexed connections.", true,
		func() int {
			if c.cc == nil {
				return 0
			}
			return len(c.cc.sem)
		})
}

// Dial connects to a negotiation daemon, abandoning the attempt when ctx is
// canceled. The initial dial — including the codec handshake — is a single
// attempt, so a daemon that is down now fails fast; later, a broken
// connection is redialed and idempotent RPCs are retried (see Client).
func Dial(ctx context.Context, addr string, opts ...ClientOption) (*Client, error) {
	c := &Client{addr: addr}
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
	if c.dialed {
		c.redials++
		if c.tracer != nil {
			c.tracer.Trace(telemetry.Event{Step: telemetry.StepRedial, Server: c.addr})
		}
	}
	c.dialed = true
	return cc, nil
}

// handshake opens a fresh connection: it sends the hello and checks the ack.
// It cancels by closing the socket it owns, so a canceled handshake leaves
// no connection behind.
func (c *Client) handshake(ctx context.Context, nc net.Conn) (*clientConn, error) {
	stop := context.AfterFunc(ctx, func() { nc.Close() })
	defer stop()
	streams := c.wire.maxStreams()
	hello := Envelope{Type: MsgHello, Payload: &HelloRequest{Codecs: []string{CodecBinary}, MaxStreams: streams}}
	if err := writeEnvelopeLine(nc, hello); err != nil {
		return nil, c.finishCtx(ctx, fmt.Errorf("protocol: handshake send: %w", err))
	}
	r := bufio.NewReader(nc)
	line, err := readHelloLine(r)
	if err != nil {
		return nil, c.finishCtx(ctx, fmt.Errorf("protocol: handshake receive: %w", err))
	}
	resp, err := readEnvelopeLine(line)
	if err != nil {
		return nil, fmt.Errorf("protocol: handshake receive: %w", err)
	}
	ack, _ := resp.Payload.(*HelloAck)
	if ack == nil || ack.Codec != CodecBinary {
		return nil, fmt.Errorf("%w: the daemon answered %s", ErrHandshakeRefused, bytes.TrimSpace(line))
	}
	if ack.MaxStreams > 0 && ack.MaxStreams < streams {
		streams = ack.MaxStreams
	}
	if !stop() {
		return nil, fmt.Errorf("protocol: %w", ctx.Err())
	}
	cc := &clientConn{
		owner:    c,
		nc:       nc,
		sem:      make(chan struct{}, streams),
		streams:  make(map[uint32]streamSink),
		closedCh: make(chan struct{}),
		fw:       newFrameWriter(nc, func(error) { nc.Close() }),
	}
	go cc.readLoop(r)
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
// with backoff; non-idempotent ones get at most a fresh dial (when
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
	attempts := 1
	if idempotent && c.addr != "" {
		attempts = retryAttempts
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return Envelope{}, fmt.Errorf("protocol: %w", err)
		}
		if attempt > 0 {
			if err := sleepCtx(ctx, backoff(attempt-1)); err != nil {
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
// calling fn for every state or transition change. The watch runs on its
// own stream: other RPCs on this client proceed concurrently, and canceling
// ctx ends just the watch — the connection stays usable. A non-positive
// interval selects the server default.
func (c *Client) Watch(ctx context.Context, id core.SessionID, interval time.Duration, fn func(SessionInfo)) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("protocol: %w", err)
	}
	cc, err := c.grab(ctx)
	if err != nil {
		return err
	}
	st := newClientStream()
	sid, err := cc.startStream(ctx, st, Envelope{Type: MsgWatch, Payload: &WatchRequest{Session: id, IntervalMs: interval.Milliseconds()}})
	if err != nil {
		return err
	}
	defer cc.endStream(sid)
	for {
		resp, err := st.next(ctx)
		if err != nil {
			if ctx.Err() != nil && !cc.isBroken() {
				return cc.abandon(ctx, sid)
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

// clientConn is one multiplexed connection.
type clientConn struct {
	owner *Client
	nc    net.Conn

	broken atomic.Bool

	fw       *frameWriter
	sem      chan struct{}
	smu      sync.Mutex
	streams  map[uint32]streamSink
	nextID   uint32
	connErr  error
	closedCh chan struct{}
	once     sync.Once
}

func (cc *clientConn) isBroken() bool { return cc.broken.Load() }

// close tears the connection down once: pending streams fail with err, the
// writer stops, the socket closes.
func (cc *clientConn) close(err error) {
	cc.once.Do(func() {
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

// readLoop demultiplexes frames to their streams until the connection dies.
func (cc *clientConn) readLoop(r *bufio.Reader) {
	frames := frameReader{r: r}
	for {
		f, err := frames.next()
		if err != nil {
			cc.close(fmt.Errorf("protocol: receive: %w", err))
			return
		}
		if f.Flags&flagCancel != 0 {
			continue
		}
		env, err := decodeBody(f.Payload)
		if err != nil {
			cc.close(fmt.Errorf("protocol: receive: %w", err))
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
	if err := cc.fw.sendEnvelope(id, 0, env); err != nil {
		cc.endStream(id)
		err = fmt.Errorf("protocol: send: %w", err)
		cc.close(err)
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

// exchange runs one request/response on its own stream.
func (cc *clientConn) exchange(ctx context.Context, env Envelope) (Envelope, error) {
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
