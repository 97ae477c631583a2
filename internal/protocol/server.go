package protocol

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"qosneg/internal/admission"
	"qosneg/internal/core"
	"qosneg/internal/media"
	"qosneg/internal/registry"
	"qosneg/internal/shard"
	"qosneg/internal/telemetry"
)

// Server exposes a QoS manager over TCP, speaking both wire codecs: every
// connection opens in the JSON line protocol, and a MsgHello handshake may
// upgrade it to the multiplexed binary codec. Legacy clients never send a
// hello and are served exactly as before; clients offering only an older
// binary version are answered JSON.
//
// The server enforces each reserved session's choice period with a
// server-side timer: the paper's step 6 ("The user must confirm the user
// offer within a limited amount of time since the resources are reserved
// ... If a time-out is reached the session is simply aborted").
type Server struct {
	man  core.SessionManager
	reg  *registry.Registry
	wire WireOptions
	// adm, when non-nil, sheds negotiation-class requests with a typed
	// MsgBusy reply before any reservation work when the controller
	// reports saturation (WithServerAdmission).
	adm *admission.Controller

	// baseCtx bounds every negotiation the server runs; Close cancels it
	// so in-flight pipelines abort and roll back.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu          sync.Mutex
	confirmHook func(core.SessionID)
	timers      map[core.SessionID]*time.Timer
	conns       map[net.Conn]bool
	wg          sync.WaitGroup
	closed      bool
	// Expired counts sessions aborted by choice-period time-out.
	expired int

	// Telemetry, installed by Instrument before Serve; all nil when the
	// server runs uninstrumented (every recording call is nil-safe).
	metrics     *telemetry.Registry
	rpcSeconds  *telemetry.HistogramFamily
	rpcErrors   *telemetry.CounterFamily
	connGauge   *telemetry.Gauge
	connCtr     *telemetry.CounterFamily
	streamGauge *telemetry.Gauge
	expiredCtr  *telemetry.Counter
	shedCtr     *telemetry.CounterFamily
}

// defaultShedRetryAfter is the hint a busy reply carries when the stream
// semaphore is saturated and no admission controller supplies a
// load-derived one.
const defaultShedRetryAfter = time.Second

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithServerWire sets the codecs the server may pick in the MsgHello
// handshake and its per-connection stream cap. Regardless of the codec
// list, clients that never send a hello are served the legacy JSON
// protocol — the fallback is unconditional.
func WithServerWire(w WireOptions) ServerOption {
	return func(s *Server) { s.wire = w }
}

// WithServerAdmission installs an admission controller on the server: new
// negotiation-class requests (negotiate, batch-negotiate, renegotiate) are
// refused with a typed MsgBusy reply carrying the controller's RetryAfter
// when the controller reports saturation — cheap refusal before any
// reservation work, on both codecs. Queries and the step 6
// confirm/reject of already-admitted sessions are never shed, so running
// sessions stay manageable under overload. A nil controller disables the
// check.
func WithServerAdmission(c *admission.Controller) ServerOption {
	return func(s *Server) { s.adm = c }
}

// Instrument wires the server into a telemetry registry: per-RPC latency
// histograms and error counters by message type, a live-connection gauge,
// a per-codec connection counter, a live-stream gauge for multiplexed
// connections, a choice-period-expiry counter — and makes MsgMetrics
// answer with the registry's snapshot. Call before Serve; a nil registry
// is a no-op.
func (s *Server) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.metrics = reg
	s.rpcSeconds = reg.HistogramFamily("qosneg_rpc_server_seconds",
		"Server-side RPC handling latency by message type.", "type", telemetry.LatencyBuckets)
	s.rpcErrors = reg.CounterFamily("qosneg_rpc_server_errors_total",
		"RPCs answered with an error, by message type.", "type")
	s.connGauge = reg.Gauge("qosneg_server_connections",
		"Currently open protocol connections.")
	s.connCtr = reg.CounterFamily("qosneg_server_connections_total",
		"Connections served, by negotiated codec.", "codec")
	s.streamGauge = reg.Gauge("qosneg_server_streams",
		"Currently executing streams on multiplexed connections.")
	s.expiredCtr = reg.Counter("qosneg_sessions_expired_total",
		"Sessions aborted by choice-period time-out.")
	s.shedCtr = reg.CounterFamily("qosneg_rpc_shed_total",
		"Requests shed with a typed busy reply before dispatch, by codec.", "codec")
}

// NewServer builds a protocol server over the QoS manager and registry.
func NewServer(man core.SessionManager, reg *registry.Registry, opts ...ServerOption) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		man:     man,
		reg:     reg,
		baseCtx: ctx,
		cancel:  cancel,
		timers:  make(map[core.SessionID]*time.Timer),
		conns:   make(map[net.Conn]bool),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Serve accepts connections on l until l is closed. Each connection is
// handled on its own goroutine; Serve returns after the accept loop exits.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		s.connGauge.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			s.connGauge.Add(-1)
		}()
	}
}

// Close stops accepting work, cancels in-flight negotiations, closes live
// connections and waits for the handlers to finish. Pending choice-period
// timers keep running so that reservations are still reclaimed.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// Expired returns how many sessions were aborted by choice-period time-out.
func (s *Server) Expired() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.expired
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// handle serves one connection. It opens in the JSON line protocol — a
// truncated value (a client dying mid-write, or garbage like a lone "{")
// is answered and the connection closed instead of the handler blocking
// forever waiting for the value to complete. A MsgHello as the first
// message may upgrade the connection to the binary codec; anything else
// pins it to JSON for its lifetime.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	first := true
	for {
		line, err := r.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) == 0 {
			if err != nil {
				return
			}
			continue
		}
		if err != nil && err != io.EOF {
			return
		}
		env, derr := readEnvelopeLine(line)
		if derr != nil {
			writeEnvelopeLine(conn, Envelope{Type: MsgError, Payload: &ErrorPayload{Error: fmt.Sprintf("bad request: %v", derr)}})
			return
		}
		if first {
			first = false
			if env.Type == MsgHello {
				chosen, streams := s.pickCodec(env.Payload.(*HelloRequest))
				writeEnvelopeLine(conn, Envelope{Type: MsgHelloAck, Payload: &HelloAck{Codec: chosen, MaxStreams: streams}})
				s.connCtr.With(chosen).Inc()
				if chosen == CodecBinary {
					s.serveBinary(conn, r, streams)
					return
				}
				continue
			}
			s.connCtr.With(CodecJSON).Inc()
		} else if env.Type == MsgHello {
			if werr := writeEnvelopeLine(conn, Envelope{Type: MsgError, Payload: &ErrorPayload{Error: "hello must be the first message on a connection"}}); werr != nil {
				return
			}
			continue
		}
		if env.Type == MsgWatch {
			req, _ := env.Payload.(*WatchRequest)
			if err := s.watchJSON(conn, req); err != nil {
				return
			}
			continue
		}
		// Admission control mirrors the binary codec: negotiation-class
		// requests are refused with a typed busy reply under saturation.
		if s.adm != nil && negotiationType(env.Type) {
			if retry, saturated := s.adm.Saturated(); saturated {
				s.shedCtr.With(CodecJSON).Inc()
				if err := writeEnvelopeLine(conn, Envelope{Type: MsgBusy, Payload: &BusyPayload{Error: "admission control: manager overloaded", RetryAfterMs: retry.Milliseconds()}}); err != nil {
					return
				}
				continue
			}
		}
		resp := s.serve(s.baseCtx, env)
		if err := writeEnvelopeLine(conn, resp); err != nil {
			return
		}
	}
}

// pickCodec answers a hello: the first client-preferred codec the server
// accepts, falling back to JSON (which the server always speaks).
func (s *Server) pickCodec(req *HelloRequest) (codec string, streams int) {
	codec = CodecJSON
	for _, c := range req.Codecs {
		if s.wire.supports(c) && (c == CodecBinary || c == CodecJSON) {
			codec = c
			break
		}
	}
	streams = s.wire.maxStreams()
	if req.MaxStreams > 0 && req.MaxStreams < streams {
		streams = req.MaxStreams
	}
	return codec, streams
}

// serve times and dispatches one unary RPC.
func (s *Server) serve(ctx context.Context, env Envelope) Envelope {
	var begin time.Time
	if s.rpcSeconds != nil {
		begin = time.Now()
	}
	resp := s.dispatch(ctx, env)
	if s.rpcSeconds != nil {
		s.rpcSeconds.With(string(env.Type)).Observe(time.Since(begin))
	}
	if resp.Type == MsgError {
		s.rpcErrors.With(string(env.Type)).Inc()
	}
	return resp
}

func errEnvelope(format string, args ...any) Envelope {
	return Envelope{Type: MsgError, Payload: &ErrorPayload{Error: fmt.Sprintf(format, args...)}}
}

func busyEnvelope(msg string, retry time.Duration) Envelope {
	return Envelope{Type: MsgBusy, Payload: &BusyPayload{Error: msg, RetryAfterMs: retry.Milliseconds()}}
}

// negotiationType reports whether t starts new negotiation work on the
// manager — the only request class admission may shed. Queries and the
// confirm/reject of already-reserved sessions always go through, so
// overload never strands admitted work.
func negotiationType(t MessageType) bool {
	switch t {
	case MsgNegotiate, MsgBatchNegotiate, MsgRenegotiate:
		return true
	}
	return false
}

// busyRetry resolves the hint for a shed the controller did not decide
// (stream-semaphore saturation): the controller's live hint when one is
// installed, a fixed default otherwise — never zero, so every busy reply
// tells the client when to come back.
func (s *Server) busyRetry() time.Duration {
	if d := s.adm.RetryHint(); d > 0 {
		return d
	}
	return defaultShedRetryAfter
}

func (s *Server) dispatch(ctx context.Context, env Envelope) Envelope {
	switch env.Type {
	case MsgNegotiate:
		return s.negotiate(ctx, env.Payload.(*NegotiateRequest))
	case MsgBatchNegotiate:
		return s.batchNegotiate(ctx, env.Payload.(*BatchNegotiateRequest))
	case MsgConfirm:
		return s.confirm(env.Payload.(*SessionRequest).Session)
	case MsgReject:
		return s.reject(env.Payload.(*SessionRequest).Session)
	case MsgRenegotiate:
		return s.renegotiate(ctx, env.Payload.(*RenegotiateRequest))
	case MsgSession:
		return s.session(env.Payload.(*SessionRequest).Session)
	case MsgListDocuments:
		return s.listDocuments(env.Payload.(*ListDocumentsRequest).Query)
	case MsgStats:
		st := s.man.Stats()
		p := &StatsInfoPayload{Stats: &st}
		// The fleet reveals its per-shard breakdown through this optional
		// interface; a bare core.Manager answers without it.
		if f, ok := s.man.(interface{ ShardStats() []shard.Stat }); ok {
			p.Shards = f.ShardStats()
		}
		return Envelope{Type: MsgStatsInfo, Payload: p}
	case MsgListSessions:
		return s.listSessions()
	case MsgServerLoads:
		return Envelope{Type: MsgServerLoadsInfo, Payload: &ServerLoadsPayload{ServerLoads: s.man.ServerLoads()}}
	case MsgMetrics:
		// Snapshot is nil-safe: an uninstrumented daemon answers with an
		// empty (but well-formed) snapshot rather than an error.
		snap := s.metrics.Snapshot()
		return Envelope{Type: MsgMetricsInfo, Payload: &MetricsPayload{Metrics: &snap}}
	case MsgInvoice:
		id := env.Payload.(*SessionRequest).Session
		inv, err := s.man.Invoice(id)
		if err != nil {
			return errEnvelope("%s", err)
		}
		return Envelope{Type: MsgInvoiceInfo, Payload: &InvoicePayload{Session: id, Invoice: &inv}}
	case MsgHello:
		return errEnvelope("hello must be the first message on a connection")
	default:
		return errEnvelope("unknown request type %q", env.Type)
	}
}

// resultPayload renders a negotiation outcome and, for a reserved session,
// arms its step 6 choice-period timer.
func (s *Server) resultPayload(res core.Result) *ResultPayload {
	p := &ResultPayload{
		Status:       res.Status.String(),
		Offer:        res.Offer,
		Reason:       res.Reason,
		RetryAfterMs: res.RetryAfter.Milliseconds(),
		Shed:         res.Shed,
	}
	for _, v := range res.Violations {
		p.Violations = append(p.Violations, v.String())
	}
	if res.Session != nil {
		p.Session = res.Session.ID
		p.Cost = res.Session.Cost()
		p.ChoicePeriodMs = res.Session.ChoicePeriod.Milliseconds()
		s.armChoiceTimer(res.Session.ID, res.Session.ChoicePeriod)
	}
	return p
}

func (s *Server) negotiate(ctx context.Context, req *NegotiateRequest) Envelope {
	if req.Machine == nil || req.Profile == nil || req.Document == "" {
		return errEnvelope("negotiate needs machine, document and profile")
	}
	if err := req.Machine.Validate(); err != nil {
		return errEnvelope("%s", err)
	}
	if err := req.Profile.Validate(); err != nil {
		return errEnvelope("%s", err)
	}
	res, err := s.man.NegotiateContext(ctx, *req.Machine, req.Document, *req.Profile)
	if err != nil {
		return errEnvelope("%s", err)
	}
	return Envelope{Type: MsgResult, Payload: s.resultPayload(res)}
}

// batchNegotiate fans a playlist's items out concurrently; item i of the
// answer corresponds to item i of the request, and one failed item does not
// fail its siblings. Each reserved item gets its own choice timer.
func (s *Server) batchNegotiate(ctx context.Context, req *BatchNegotiateRequest) Envelope {
	if len(req.Items) == 0 {
		return errEnvelope("batch-negotiate needs at least one item")
	}
	results := make([]BatchItemResult, len(req.Items))
	// The client propagates its context deadline as TimeoutMs; each item's
	// negotiation is bounded by it independently, so one slow item times out
	// on schedule instead of inheriting only the server's base context.
	timeout := time.Duration(req.TimeoutMs) * time.Millisecond
	var wg sync.WaitGroup
	for i := range req.Items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ictx := ctx
			if timeout > 0 {
				var cancel context.CancelFunc
				ictx, cancel = context.WithTimeout(ctx, timeout)
				defer cancel()
			}
			resp := s.negotiate(ictx, &NegotiateRequest{
				Machine:  req.Items[i].Machine,
				Document: req.Items[i].Document,
				Profile:  req.Items[i].Profile,
			})
			switch p := resp.Payload.(type) {
			case *ResultPayload:
				results[i].ResultPayload = *p
			case *ErrorPayload:
				results[i].Error = p.Error
			}
		}(i)
	}
	wg.Wait()
	return Envelope{Type: MsgBatchResult, Payload: &BatchResultPayload{Items: results}}
}

// armChoiceTimer starts the step 6 time-out for a reserved session.
func (s *Server) armChoiceTimer(id core.SessionID, period time.Duration) {
	t := time.AfterFunc(period, func() {
		s.mu.Lock()
		delete(s.timers, id)
		s.mu.Unlock()
		// Expire only succeeds while the session is still Reserved, so a
		// raced Confirm wins harmlessly; an expired session answers later
		// Confirm/Reject calls with ErrChoicePeriodExpired.
		if err := s.man.Expire(id); err == nil {
			s.expiredCtr.Inc()
			s.mu.Lock()
			s.expired++
			s.mu.Unlock()
		}
	})
	s.mu.Lock()
	s.timers[id] = t
	s.mu.Unlock()
}

// disarmChoiceTimer cancels the time-out; it reports whether the timer was
// still pending.
func (s *Server) disarmChoiceTimer(id core.SessionID) bool {
	s.mu.Lock()
	t, ok := s.timers[id]
	delete(s.timers, id)
	s.mu.Unlock()
	if !ok {
		return false
	}
	return t.Stop()
}

// renegotiate re-runs the procedure for a reserved session. The old choice
// timer is disarmed; a successful renegotiation arms a fresh one.
func (s *Server) renegotiate(ctx context.Context, req *RenegotiateRequest) Envelope {
	if req.Profile == nil {
		return errEnvelope("renegotiate needs a profile")
	}
	if err := req.Profile.Validate(); err != nil {
		return errEnvelope("%s", err)
	}
	s.disarmChoiceTimer(req.Session)
	res, err := s.man.RenegotiateContext(ctx, req.Session, *req.Profile)
	if err != nil {
		return errEnvelope("%s", err)
	}
	return Envelope{Type: MsgResult, Payload: s.resultPayload(res)}
}

func (s *Server) confirm(id core.SessionID) Envelope {
	s.disarmChoiceTimer(id)
	if err := s.man.Confirm(id); err != nil {
		return errEnvelope("%s", err)
	}
	s.mu.Lock()
	hook := s.confirmHook
	s.mu.Unlock()
	if hook != nil {
		hook(id)
	}
	return Envelope{Type: MsgOK, Payload: &OKPayload{Session: id}}
}

// setConfirmHook installs a callback fired after every successful Confirm;
// the playout driver uses it.
func (s *Server) setConfirmHook(hook func(core.SessionID)) {
	s.mu.Lock()
	s.confirmHook = hook
	s.mu.Unlock()
}

// registryDocument exposes the catalog to the playout driver.
func (s *Server) registryDocument(id media.DocumentID) (media.Document, error) {
	return s.reg.Document(id)
}

func (s *Server) reject(id core.SessionID) Envelope {
	s.disarmChoiceTimer(id)
	if err := s.man.Reject(id); err != nil {
		return errEnvelope("%s", err)
	}
	return Envelope{Type: MsgOK, Payload: &OKPayload{Session: id}}
}

func sessionInfoPayload(sess *core.Session) *SessionInfoPayload {
	return &SessionInfoPayload{
		Session:     sess.ID,
		State:       sess.State().String(),
		PositionMs:  sess.Position().Milliseconds(),
		Transitions: sess.Transitions(),
		Cost:        sess.Cost(),
	}
}

func (s *Server) session(id core.SessionID) Envelope {
	sess, err := s.man.Session(id)
	if err != nil {
		return errEnvelope("%s", err)
	}
	return Envelope{Type: MsgSessionInfo, Payload: sessionInfoPayload(sess)}
}

// watchLoop samples one session until it reaches a terminal state, the
// context is canceled, the server closes, or send fails. Updates are
// emitted on state or transition changes; the last one carries Final=true.
func (s *Server) watchLoop(ctx context.Context, req *WatchRequest, send func(Envelope) error) error {
	interval := time.Duration(req.IntervalMs) * time.Millisecond
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	sess, err := s.man.Session(req.Session)
	if err != nil {
		return send(errEnvelope("%s", err))
	}
	var lastState string
	var lastTransitions int
	for {
		state := sess.State()
		info := sessionInfoPayload(sess)
		terminal := state == core.Completed || state == core.Aborted
		changed := info.State != lastState || info.Transitions != lastTransitions
		if terminal {
			info.Final = true
		}
		if changed || terminal {
			if err := send(Envelope{Type: MsgSessionInfo, Payload: info}); err != nil {
				return err
			}
			lastState = info.State
			lastTransitions = info.Transitions
		}
		if terminal {
			return nil
		}
		if s.isClosed() {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(interval):
		}
	}
}

// watchJSON streams updates on the JSON codec; the connection is busy until
// the final update.
func (s *Server) watchJSON(conn net.Conn, req *WatchRequest) error {
	return s.watchLoop(s.baseCtx, req, func(e Envelope) error {
		return writeEnvelopeLine(conn, e)
	})
}

func (s *Server) listSessions() Envelope {
	p := &SessionsPayload{}
	for _, state := range []core.SessionState{core.Reserved, core.Playing, core.Completed, core.Aborted} {
		for _, sess := range s.man.Sessions(state) {
			p.Sessions = append(p.Sessions, SessionSummary{
				Session:     sess.ID,
				Document:    sess.Document,
				State:       state.String(),
				PositionMs:  sess.Position().Milliseconds(),
				Transitions: sess.Transitions(),
				Cost:        sess.Cost(),
			})
		}
	}
	sort.Slice(p.Sessions, func(i, j int) bool { return p.Sessions[i].Session < p.Sessions[j].Session })
	return Envelope{Type: MsgSessions, Payload: p}
}

func (s *Server) listDocuments(query string) Envelope {
	ids := s.reg.List()
	if query != "" {
		ids = s.reg.SearchTitle(query)
	}
	p := &DocumentsPayload{}
	for _, id := range ids {
		d, err := s.reg.Document(id)
		if err != nil {
			continue
		}
		p.Documents = append(p.Documents, DocumentSummary{
			ID: d.ID, Title: d.Title, Components: len(d.Monomedia),
		})
	}
	return Envelope{Type: MsgDocuments, Payload: p}
}

// serveBinary runs the multiplexed frame loop after a successful binary
// handshake. Each request frame starts a handler goroutine on its stream
// id; responses are written through a shared frame writer; a cancel frame
// aborts the stream's context. Framing violations (bad magic or version,
// oversized frames, reserved or duplicate stream ids) answer a typed
// MsgError on stream 0 and close the connection.
func (s *Server) serveBinary(conn net.Conn, r *bufio.Reader, maxStreams int) {
	fw := newFrameWriter(conn, func(error) { conn.Close() })
	frames := frameReader{r: r}
	var (
		smu                 sync.Mutex
		active              = make(map[uint32]context.CancelFunc)
		wg                  sync.WaitGroup
		sem                 = make(chan struct{}, maxStreams)
		connCtx, connCancel = context.WithCancel(s.baseCtx)
	)
	defer func() {
		connCancel()
		wg.Wait()
		fw.stop()
	}()
	fatal := func(err error) {
		fw.sendEnvelope(0, flagFIN, errEnvelope("%s", err))
		fw.stop() // flush the error before the deferred teardown closes conn
	}
	for {
		f, err := frames.next()
		if err != nil {
			if errors.Is(err, ErrBadFrameMagic) || errors.Is(err, ErrBadFrameVersion) || errors.Is(err, ErrFrameTooLarge) {
				fatal(err)
			}
			return
		}
		if f.Flags&flagCancel != 0 {
			smu.Lock()
			cancel := active[f.Stream]
			smu.Unlock()
			if cancel != nil {
				// Unknown ids are ignored: the stream may have finished
				// while the cancel was in flight.
				cancel()
			}
			continue
		}
		if f.Stream == 0 {
			fatal(fmt.Errorf("%w: 0 is reserved", ErrBadStreamID))
			return
		}
		smu.Lock()
		_, dup := active[f.Stream]
		smu.Unlock()
		if dup {
			fatal(fmt.Errorf("%w: %d is already open", ErrBadStreamID, f.Stream))
			return
		}
		// Both refusals below answer before the body is parsed: a shed
		// arrival costs a busy reply, not the decoding of its profile (so a
		// saturated server does not notice a malformed negotiate body).
		//
		// The semaphore bounds handler concurrency at the negotiated stream
		// cap. At the cap the stream is shed with a typed busy reply instead
		// of the read loop blocking, which would silently stall every other
		// stream on the connection (including cancels) until a handler
		// finished.
		select {
		case sem <- struct{}{}:
		default:
			s.shedCtr.With(CodecBinary).Inc()
			fw.sendEnvelope(f.Stream, flagFIN, busyEnvelope("stream limit reached", s.busyRetry()))
			continue
		}
		// Admission control: the type code alone says whether the frame is
		// new negotiation work, refused with the controller's hint.
		if s.adm != nil && negotiationType(bodyType(f.Payload)) {
			if retry, saturated := s.adm.Saturated(); saturated {
				<-sem
				s.shedCtr.With(CodecBinary).Inc()
				fw.sendEnvelope(f.Stream, flagFIN, busyEnvelope("admission control: manager overloaded", retry))
				continue
			}
		}
		env, derr := decodeBody(f.Payload)
		if derr != nil {
			fw.sendEnvelope(f.Stream, flagFIN, errEnvelope("bad request: %v", derr))
			fw.stop()
			return
		}
		streamCtx, cancel := context.WithCancel(connCtx)
		smu.Lock()
		active[f.Stream] = cancel
		smu.Unlock()
		wg.Add(1)
		s.streamGauge.Add(1)
		go func(stream uint32, env Envelope, ctx context.Context, cancel context.CancelFunc) {
			// closeStream frees the stream's slot and its active entry. It
			// runs before the FIN is queued: a client that has read the FIN
			// may reuse the slot at once, and must not be shed for a stream
			// the server already answered. (A cancel frame still in flight
			// then finds no entry and is ignored.) Only this goroutine
			// calls it.
			closed := false
			closeStream := func() {
				if closed {
					return
				}
				closed = true
				smu.Lock()
				delete(active, stream)
				smu.Unlock()
				<-sem
				s.streamGauge.Add(-1)
			}
			defer func() {
				closeStream()
				cancel()
				wg.Done()
			}()
			if env.Type == MsgWatch {
				req, _ := env.Payload.(*WatchRequest)
				s.watchBinary(ctx, stream, req, fw, closeStream)
				return
			}
			resp := s.serve(ctx, env)
			if ctx.Err() != nil {
				s.abandon(env.Type, resp)
				return
			}
			closeStream()
			fw.sendEnvelope(stream, flagFIN, resp)
		}(f.Stream, env, streamCtx, cancel)
	}
}

// abandon takes back what a dropped reply reserved. A stream canceled after
// the manager's last look at its context still reserves, but nobody learns
// the session id: reject it now, not at the end of its choice period. (A
// renegotiated session is left alone; its caller has known the id all along.)
func (s *Server) abandon(req MessageType, resp Envelope) {
	switch p := resp.Payload.(type) {
	case *ResultPayload:
		if req == MsgNegotiate && p.Session != 0 {
			s.reject(p.Session)
		}
	case *BatchResultPayload:
		for i := range p.Items {
			if id := p.Items[i].Session; id != 0 {
				s.reject(id)
			}
		}
	}
}

// watchBinary pushes a watch stream's updates as frames on its stream id;
// the final update carries the FIN flag, queued after closeStream has freed
// the stream's slot.
func (s *Server) watchBinary(ctx context.Context, stream uint32, req *WatchRequest, fw *frameWriter, closeStream func()) {
	s.watchLoop(ctx, req, func(e Envelope) error {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		flags := byte(0)
		if p, ok := e.Payload.(*SessionInfoPayload); (ok && p.Final) || e.Type == MsgError {
			flags = flagFIN
			closeStream()
		}
		return fw.sendEnvelope(stream, flags, e)
	})
}
