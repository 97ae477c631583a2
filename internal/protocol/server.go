package protocol

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qosneg/internal/admission"
	"qosneg/internal/clock"
	"qosneg/internal/core"
	"qosneg/internal/registry"
	"qosneg/internal/telemetry"
)

// Server exposes a QoS manager over TCP. Every connection opens with a JSON
// MsgHello line offering CodecBinary, answered by a MsgHelloAck line; from
// then on it carries multiplexed binary frames. Any other opening is
// answered with one MsgError line and the connection is closed.
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
	// clk times RPCs, choice periods and watch polls; tests set a Sim one.
	clk clock.Clock

	mu          sync.Mutex
	confirmHook func(core.SessionID)
	timers      map[core.SessionID]clock.Timer
	// conns holds each open connection and, once its handshake is done, its
	// stream semaphore, whose held slots are the connection's open streams.
	conns  map[net.Conn]chan struct{}
	wg     sync.WaitGroup
	closed bool
	// expired counts sessions aborted by choice-period time-out; Expired and
	// the qosneg_sessions_expired_total series both read it.
	expired atomic.Int64

	// Telemetry, installed by Instrument before Serve; all nil when the
	// server runs uninstrumented (every recording call is nil-safe).
	metrics    *telemetry.Registry
	rpcSeconds *telemetry.HistogramFamily
	rpcErrors  *telemetry.CounterFamily
	connCtr    *telemetry.Counter
	shedCtr    *telemetry.Counter
}

// defaultShedRetryAfter is the hint a busy reply carries when the stream
// semaphore is saturated and no admission controller supplies a
// load-derived one.
const defaultShedRetryAfter = time.Second

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithServerWire sets the server's per-connection stream cap; a hello asking
// for fewer streams lowers it for that connection.
func WithServerWire(w WireOptions) ServerOption {
	return func(s *Server) { s.wire = w }
}

// WithServerAdmission installs an admission controller on the server: new
// negotiation-class requests (negotiate, renegotiate) are
// refused with a typed MsgBusy reply carrying the controller's RetryAfter
// when the controller reports saturation — cheap refusal before any
// reservation work. Queries and the step 6 confirm/reject of
// already-admitted sessions are never shed, so running sessions stay
// manageable under overload. A nil controller disables the check.
func WithServerAdmission(c *admission.Controller) ServerOption {
	return func(s *Server) { s.adm = c }
}

// Instrument wires the server into a telemetry registry: per-RPC latency
// histograms and error counters by message type, a connection counter, a
// shed counter, and the live-connection, live-stream and choice-period-expiry
// series read from the server's own connection set, stream semaphores and
// expiry count — and makes MsgMetrics answer with the registry's snapshot.
// Call before Serve; a nil registry is a no-op.
func (s *Server) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.metrics = reg
	s.rpcSeconds = reg.HistogramFamily("qosneg_rpc_server_seconds",
		"Server-side RPC handling latency by message type.", "type", telemetry.LatencyBuckets)
	s.rpcErrors = reg.CounterFamily("qosneg_rpc_server_errors_total",
		"RPCs answered with an error, by message type.", "type")
	collectLocked(reg, &s.mu, s, "qosneg_server_connections", "Currently open protocol connections.", true,
		func() int { return len(s.conns) })
	s.connCtr = reg.Counter("qosneg_server_connections_total",
		"Connections served.")
	collectLocked(reg, &s.mu, s, "qosneg_server_streams", "Currently executing streams on multiplexed connections.", true,
		func() int {
			n := 0
			for _, sem := range s.conns {
				n += len(sem)
			}
			return n
		})
	reg.Collect(telemetry.Collector{Name: "qosneg_sessions_expired_total",
		Help: "Sessions aborted by choice-period time-out.", Owner: s,
		Read: func(emit func(string, int64)) { emit("", s.expired.Load()) }})
	s.shedCtr = reg.Counter("qosneg_rpc_shed_total",
		"Requests shed with a typed busy reply before dispatch.")
}

// collectLocked registers an unlabeled series whose value v reads from
// owner's state under mu at Snapshot time.
func collectLocked(reg *telemetry.Registry, mu *sync.Mutex, owner any, name, help string, gauge bool, v func() int) {
	reg.Collect(telemetry.Collector{Name: name, Help: help, Gauge: gauge, Owner: owner,
		Read: func(emit func(string, int64)) {
			mu.Lock()
			defer mu.Unlock()
			emit("", int64(v()))
		}})
}

// NewServer builds a protocol server over the QoS manager and registry.
func NewServer(man core.SessionManager, reg *registry.Registry, opts ...ServerOption) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		man:     man,
		reg:     reg,
		baseCtx: ctx,
		cancel:  cancel,
		clk:     clock.Wall{},
		timers:  make(map[core.SessionID]clock.Timer),
		conns:   make(map[net.Conn]chan struct{}),
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
		s.conns[conn] = nil
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
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
func (s *Server) Expired() int { return int(s.expired.Load()) }

// handle serves one connection. Its first line must be a hello offering
// CodecBinary. Anything else — a request line, a hello without binary/2, a
// truncated value such as a lone "{", a line longer than the reader's buffer
// — gets one MsgError line, and the connection is closed instead of the
// handler waiting for more.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	line, err := readHelloLine(r)
	if errors.Is(err, errHelloTooLong) {
		// The rest of the line is still arriving, and closing with unread
		// input resets the connection; half-close first so the refusal and
		// the end of the stream reach the peer ahead of the reset.
		writeEnvelopeLine(conn, errEnvelope("%v", err))
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		return
	}
	if err != nil && (err != io.EOF || len(line) == 0) {
		return
	}
	env, err := readEnvelopeLine(line)
	hello, _ := env.Payload.(*HelloRequest)
	switch {
	case err != nil:
		writeEnvelopeLine(conn, errEnvelope("bad request: %v", err))
	case hello == nil:
		writeEnvelopeLine(conn, errEnvelope("the first message on a connection must be a hello offering %s", CodecBinary))
	case !slices.Contains(hello.Codecs, CodecBinary):
		writeEnvelopeLine(conn, errEnvelope("no common codec: the server speaks %s, the client offered %q", CodecBinary, hello.Codecs))
	default:
		streams := s.wire.maxStreams()
		if hello.MaxStreams > 0 && hello.MaxStreams < streams {
			streams = hello.MaxStreams
		}
		if writeEnvelopeLine(conn, Envelope{Type: MsgHelloAck, Payload: &HelloAck{Codec: CodecBinary, MaxStreams: streams}}) != nil {
			return
		}
		s.connCtr.Inc()
		s.serveBinary(conn, r, streams)
	}
}

// serve times and dispatches one unary RPC.
func (s *Server) serve(ctx context.Context, env Envelope) Envelope {
	var begin time.Time
	if s.rpcSeconds != nil {
		begin = s.clk.Now()
	}
	resp := s.dispatch(ctx, env)
	if s.rpcSeconds != nil {
		s.rpcSeconds.With(string(env.Type)).Observe(s.clk.Now().Sub(begin))
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
	case MsgNegotiate, MsgRenegotiate:
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
	case MsgListSessions:
		return s.listSessions()
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

// armChoiceTimer starts the step 6 time-out for a reserved session. The
// timer is stored under s.mu, which the callback takes first, so even a
// period short enough to lapse at once never outlives its table entry.
func (s *Server) armChoiceTimer(id core.SessionID, period time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.timers[id] = s.clk.AfterFunc(period, func() {
		s.mu.Lock()
		delete(s.timers, id)
		s.mu.Unlock()
		// Expire only succeeds while the session is still Reserved, so a
		// raced Confirm wins harmlessly; an expired session answers later
		// Confirm/Reject calls with ErrChoicePeriodExpired.
		if err := s.man.Expire(id); err == nil {
			s.expired.Add(1)
		}
	})
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
// context is canceled (Close cancels every stream's), or send fails.
// Updates are emitted on state or transition changes; the last one carries
// Final=true.
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
	wake := make(chan struct{}, 1)
	poll := func() { wake <- struct{}{} }
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
		t := s.clk.AfterFunc(interval, poll)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil
		case <-wake:
		}
	}
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

// streamWork is a stream handed to one of a connection's workers.
type streamWork struct {
	id     uint32
	env    Envelope
	ctx    context.Context
	cancel context.CancelFunc
}

// serveBinary runs the multiplexed frame loop after a successful
// handshake. A request that never waits on the substrate, a fault or a
// clock (step 6's confirm and reject, and every query) is answered by the
// loop itself between two frames, with no goroutine and no stream context.
// Negotiations, renegotiations and watches run on the connection's
// workers, whose stacks stay grown from stream to stream: the loop hands
// each such stream to an idle worker over an unbuffered channel and starts
// a new one only when none is idle. Every worker but an idle one holds a
// stream slot, so the stream cap bounds the set; the workers exit with the
// connection. Responses are written through a shared frame writer; a
// cancel frame aborts a worker stream's context. Framing violations (bad
// magic or version, oversized frames, reserved or duplicate stream ids)
// answer a typed MsgError on stream 0 and close the connection.
func (s *Server) serveBinary(conn net.Conn, r *bufio.Reader, maxStreams int) {
	fw := newFrameWriter(conn, func(error) { conn.Close() })
	frames := frameReader{r: r}
	var (
		smu                 sync.Mutex
		active              = make(map[uint32]context.CancelFunc)
		idle                int // workers whose stream has closed; under smu
		wg                  sync.WaitGroup
		sem                 = make(chan struct{}, maxStreams)
		work                = make(chan streamWork)
		connCtx, connCancel = context.WithCancel(s.baseCtx)
	)
	s.mu.Lock()
	s.conns[conn] = sem
	s.mu.Unlock()
	defer func() {
		connCancel()
		close(work)
		wg.Wait()
		fw.stop()
	}()
	worker := func(st streamWork) {
		defer wg.Done()
		// closeStream ends the stream: it frees the stream's slot and active
		// entry, cancels its context and counts the worker idle. It runs
		// before the FIN is queued: a client that has read the FIN may reuse
		// the slot at once, and must neither be shed for a stream the server
		// already answered nor wait for a new worker. (A cancel frame still
		// in flight then finds no entry and is ignored.)
		var closed bool
		closeStream := func() {
			if closed {
				return
			}
			closed = true
			smu.Lock()
			delete(active, st.id)
			idle++
			smu.Unlock()
			st.cancel()
			<-sem
		}
		for ok := true; ok; st, ok = <-work {
			closed = false
			if st.env.Type == MsgWatch {
				req, _ := st.env.Payload.(*WatchRequest)
				s.watchBinary(st.ctx, st.id, req, fw, closeStream)
			} else if resp := s.serve(st.ctx, st.env); st.ctx.Err() != nil {
				s.abandon(st.env.Type, resp)
			} else {
				closeStream()
				fw.sendEnvelope(st.id, flagFIN, resp)
			}
			closeStream()
		}
	}
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
		// The semaphore bounds open streams at the negotiated stream cap.
		// At the cap the stream is shed with a typed busy reply instead of
		// the read loop blocking, which would silently stall every other
		// stream on the connection (including cancels) until a worker
		// finished.
		select {
		case sem <- struct{}{}:
		default:
			s.shedCtr.Inc()
			fw.sendEnvelope(f.Stream, flagFIN, busyEnvelope("stream limit reached", s.busyRetry()))
			continue
		}
		// Admission control: the type code alone says whether the frame is
		// new negotiation work, refused with the controller's hint.
		if s.adm != nil && negotiationType(bodyType(f.Payload)) {
			if retry, saturated := s.adm.Saturated(); saturated {
				<-sem
				s.shedCtr.Inc()
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
		if !negotiationType(env.Type) && env.Type != MsgWatch {
			resp := s.serve(connCtx, env)
			<-sem
			fw.sendEnvelope(f.Stream, flagFIN, resp)
			continue
		}
		ctx, cancel := context.WithCancel(connCtx)
		smu.Lock()
		active[f.Stream] = cancel
		reuse := idle > 0
		if reuse {
			idle--
		}
		smu.Unlock()
		st := streamWork{f.Stream, env, ctx, cancel}
		if reuse {
			work <- st
		} else {
			wg.Add(1)
			go worker(st)
		}
	}
}

// abandon takes back what a dropped reply reserved. A stream canceled after
// the manager's last look at its context still reserves, but nobody learns
// the session id: reject it now, not at the end of its choice period. (A
// renegotiated session is left alone; its caller has known the id all along.)
func (s *Server) abandon(req MessageType, resp Envelope) {
	if p, ok := resp.Payload.(*ResultPayload); ok && req == MsgNegotiate && p.Session != 0 {
		s.reject(p.Session)
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
