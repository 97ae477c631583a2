package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/ledger"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/profile"
	"qosneg/internal/protocol"
	"qosneg/internal/qos"
	"qosneg/internal/registry"
	"qosneg/internal/telemetry"
	"qosneg/internal/transport"
)

// The traced run replays sampled requests of the workload down an
// outside-in ladder: the same request is sent through the workload's full
// stack and then through successively thinner ones, down to a bare
// core.Manager, and finally straight into the layers below the manager.
// Every call is a span; nothing inside the program is instrumented. A
// layer's self time is its rung minus the rung below, request by request.
//
// The ladder runs on its own systems, built like the workload's but fresh:
// its caches see only the sampled requests, so on cold-catalog the rungs
// show the miss path and on the one-document workloads the hit path.

const (
	// ladderStride replays every 64th generated request; short streams
	// lower the stride so at least ladderMinSamples requests are replayed.
	ladderStride     = 64
	ladderMinSamples = 256
	// Small calls are timed in batches of this many.
	leafBatch = 16
	// ladderWarmCalls is how many untimed round trips warm a rung before
	// its timed call.
	ladderWarmCalls = 2
)

// span is one timed call of the traced run.
type span struct {
	Name    string `json:"name"`
	Request int    `json:"request"`
	// Parent indexes the enclosing span in the file's span list, -1 for a
	// call made by the ladder itself.
	Parent int   `json:"parent"`
	Start  int64 `json:"startNs"`
	End    int64 `json:"endNs"`
}

// recorder keeps the spans in memory until the run ends. It is the
// bench-owned telemetry.Tracer of the traced manager and the sink of the
// timing decorators, which may be called from the manager's goroutines.
type recorder struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	request int
	// open is the innermost span still running, -1 outside any.
	open int
	// byName collects durations per span name for the medians.
	byName map[string][]time.Duration
	// steps sums the step events of the latest traced manager call.
	steps time.Duration
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), open: -1, byName: make(map[string][]time.Duration)}
}

// add records a finished span under the currently open one.
func (r *recorder) add(name string, begin, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Request: r.request, Parent: r.open,
		Start: begin.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds()})
	r.byName[name] = append(r.byName[name], end.Sub(begin))
}

// call times f as a span that encloses whatever f records.
func (r *recorder) call(name string, f func()) time.Duration {
	r.mu.Lock()
	idx, parent := len(r.spans), r.open
	r.spans = append(r.spans, span{Name: name, Request: r.request, Parent: parent})
	r.open = idx
	r.mu.Unlock()
	begin := time.Now()
	f()
	end := time.Now()
	r.mu.Lock()
	r.spans[idx].Start, r.spans[idx].End = begin.Sub(r.origin).Nanoseconds(), end.Sub(r.origin).Nanoseconds()
	r.open = parent
	r.byName[name] = append(r.byName[name], end.Sub(begin))
	r.mu.Unlock()
	return end.Sub(begin)
}

// batch times n calls of f and records their mean as one span.
func (r *recorder) batch(name string, n int, f func()) {
	begin := time.Now()
	d := perCall(n, f)
	r.add(name, begin, begin.Add(d))
}

// Trace receives the traced manager's step events; the two timed steps of
// the fused pipeline become spans inside the running manager call.
func (r *recorder) Trace(e telemetry.Event) {
	if e.Elapsed <= 0 {
		return
	}
	name := ""
	switch e.Step {
	case telemetry.StepClassification:
		name = "core.step_classification"
	case telemetry.StepCommitment:
		name = "core.step_commitment"
	default:
		return
	}
	now := time.Now()
	r.add(name, now.Add(-e.Elapsed), now)
	if e.Step == telemetry.StepClassification {
		// The first timed step of a call: a new sum starts.
		r.steps = 0
	}
	r.steps += e.Elapsed
}

func (r *recorder) median(name string) time.Duration { return median(r.byName[name]) }

// report fills every per-layer timing metric that is named after a span:
// spans "cmfs.reserve" feed cmfs.reserve_ns, spans "core.confirm" feed
// core.confirm_us, each as the median in the metric's unit.
func (r *recorder) report(m metrics) {
	for _, spec := range perLayerSpecs {
		span, ok := strings.CutSuffix(spec.name, "_"+spec.unit)
		if d, seen := r.byName[span]; ok && seen {
			m[spec.name] = ns(median(d))
			if spec.unit == "us" {
				m[spec.name] = us(median(d))
			}
		}
	}
}

// timedServer and timedTransport are the timing decorators installed on the
// traced manager through AddServer and NewManager.
type timedServer struct {
	core.MediaServer
	rec     *recorder
	rejects *int
}

func (s timedServer) Reserve(q qos.NetworkQoS) (cmfs.Reservation, error) {
	begin := time.Now()
	res, err := s.MediaServer.Reserve(q)
	s.rec.add("cmfs.reserve", begin, time.Now())
	if err != nil {
		*s.rejects++
	}
	return res, err
}

func (s timedServer) Release(id cmfs.ReservationID) error {
	begin := time.Now()
	err := s.MediaServer.Release(id)
	s.rec.add("cmfs.release", begin, time.Now())
	return err
}

type timedTransport struct {
	core.Transport
	rec *recorder
}

func (t timedTransport) Connect(src, dst network.NodeID, q qos.NetworkQoS) (transport.Connection, error) {
	begin := time.Now()
	c, err := t.Transport.Connect(src, dst, q)
	t.rec.add("transport.connect", begin, time.Now())
	return c, err
}

func (t timedTransport) Close(c transport.Connection) error {
	begin := time.Now()
	err := t.Transport.Close(c)
	t.rec.add("transport.close", begin, time.Now())
	return err
}

// tracedManager is the ladder's innermost rung with its children visible: a
// bare core.Manager assembled by hand, as testbed does, so the decorators
// and the recorder can be installed through the public constructors.
type tracedManager struct {
	*core.Manager
	network *network.Network
	rejects int
}

func assembleTraced(in *inputs, storm bool, docs []media.Document, rec *recorder) (*tracedManager, error) {
	spec := network.StarSpec{}
	for i := 1; i <= in.clients; i++ {
		spec.Clients = append(spec.Clients, network.NodeID(fmt.Sprintf("client-%d", i)))
	}
	for _, id := range serverIDs(in.servers) {
		spec.Servers = append(spec.Servers, network.NodeID(id))
	}
	cfg := cmfs.DefaultConfig()
	if storm {
		spec.AccessCapacity, cfg = stormAccess, stormServerConfig()
	}
	net, err := network.BuildStar(spec)
	if err != nil {
		return nil, err
	}
	led := ledger.New()
	net.SetLedger(led)
	opts := core.DefaultOptions()
	opts.Tracer = rec
	ts := transport.New(net, opts.PathAlternates)
	ts.SetLedger(led)
	reg := registry.New()
	tm := &tracedManager{network: net}
	tm.Manager = core.NewManager(reg, timedTransport{ts, rec}, cost.DefaultPricing(), opts)
	for _, node := range spec.Servers {
		srv, err := cmfs.NewServer(media.ServerID(node), cfg)
		if err != nil {
			return nil, err
		}
		srv.SetLedger(led)
		tm.AddServer(timedServer{srv, rec, &tm.rejects}, node)
	}
	for _, d := range docs {
		if err := reg.Add(d); err != nil {
			return nil, err
		}
	}
	return tm, nil
}

// rung is one step of the ladder, outermost first.
type rung struct {
	// Layer is the layer this rung adds over the one below it.
	Layer string `json:"layer"`
	// MedianUs is the rung's negotiate call; SelfUs the median, over the
	// replayed requests, of this rung minus the next.
	MedianUs float64 `json:"medianUs"`
	SelfUs   float64 `json:"selfUs"`
	// SpreadUs is the interquartile range of those differences: the rung
	// to suspect when the ladder does not add up.
	SpreadUs float64 `json:"spreadUs"`

	sys     *system
	daemon  *daemon
	samples []time.Duration
	// allocs holds the process's mallocs across a negotiate+reject, for the
	// replayed requests that count instead of timing.
	allocs []uint64
}

// ladderFor peels the workload's stack one layer at a time.
func ladderFor(st stack, wire bool) []*rung {
	st.faults = false
	var out []*rung
	if wire {
		out = append(out, &rung{Layer: "protocol"})
	}
	if st.admission {
		out = append(out, &rung{Layer: "admission"})
	}
	if st.telemetry {
		out = append(out, &rung{Layer: "telemetry"})
	}
	if st.shards > 0 {
		out = append(out, &rung{Layer: "shard"})
	}
	return append(out, &rung{Layer: "core"})
}

// stackBelow is the stack a rung's call runs on: everything from its own
// layer inward.
func stackBelow(st stack, layer string) stack {
	st.faults = false
	switch layer {
	case "telemetry":
		st.admission = false
	case "shard":
		st.admission, st.telemetry = false, false
	case "core":
		st.admission, st.telemetry, st.shards = false, false, 0
	}
	return st
}

func ladderLines(rungs []rung) []string {
	var out []string
	for _, r := range rungs {
		out = append(out, fmt.Sprintf("ladder %-10s rung %9.2f us   self %9.2f us   spread %8.2f us", r.Layer, r.MedianUs, r.SelfUs, r.SpreadUs))
	}
	return out
}

// negotiator is the part of a rung the ladder calls.
type negotiator interface {
	NegotiateContext(ctx context.Context, mach client.Machine, doc media.DocumentID, u profile.UserProfile) (core.Result, error)
	Reject(id core.SessionID) error
}

// roundTrip negotiates and winds down one request on a rung, as two spans,
// and returns the negotiate span.
func roundTrip(rec *recorder, name string, n negotiator, q replayed) (time.Duration, error) {
	var res core.Result
	var err error
	d := rec.call(name+".negotiate", func() { res, err = n.NegotiateContext(context.Background(), q.mach, q.doc, q.u) })
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	if res.Session != nil {
		rec.call(name+".reject", func() { err = n.Reject(res.Session.ID) })
	}
	return d, err
}

// replayed is one request of the ladder's sample.
type replayed struct {
	mach client.Machine
	doc  media.DocumentID
	u    profile.UserProfile
}

// hotCall makes one round trip of request q on a rung and either times it
// or counts the process's mallocs across it — never both, because reading
// the exact counter stops the world and flushes every allocation cache,
// which costs a 15µs call a third of its time. Two untimed round trips of
// the previous replayed request come first: a closed loop keeps its path
// hot, and a rung called once between other systems' work would mostly
// measure goroutine wake-ups and cold caches. Warming with the previous
// request rather than with q itself leaves q's cache entry as the replay
// found it, so a miss stays a miss.
func hotCall(rec *recorder, name string, n negotiator, prev, q replayed, count bool) (d time.Duration, allocs uint64, err error) {
	for i := 0; i < ladderWarmCalls; i++ {
		if _, err := roundTrip(rec, name+".warm", n, prev); err != nil {
			return 0, 0, err
		}
	}
	if !count {
		d, err = roundTrip(rec, name, n, q)
		return d, 0, err
	}
	before := mallocs()
	_, err = roundTrip(rec, name+".counted", n, q)
	return 0, mallocs() - before, err
}

func runLadder(cfg runConfig, w *workloadDef, in *inputs, m metrics, rep *report) error {
	st, wire := w.stack, w.conns > 0
	rec := newRecorder()
	rungs := ladderFor(st, wire)
	var err error
	for _, r := range rungs {
		if r.Layer == "protocol" {
			continue
		}
		if r.sys, err = assemble(in, stackBelow(st, r.Layer)); err != nil {
			return err
		}
	}
	if top := rungs[0]; top.Layer == "protocol" {
		// The wire rung calls the same system as the outermost in-process
		// rung: the difference between the two is the protocol alone.
		top.sys = rungs[1].sys
		if top.daemon, err = serve(top.sys, 1); err != nil {
			return err
		}
		defer top.daemon.close()
	}
	plain := rungs[len(rungs)-1].sys
	docs := make([]media.Document, len(in.ids))
	for i, id := range in.ids {
		d, _, err := plain.Registry.Snapshot(id)
		if err != nil {
			return err
		}
		docs[i] = d
	}
	traced, err := assembleTraced(in, st.storm, docs, rec)
	if err != nil {
		return err
	}
	lf := newLeaves(st, plain, traced, rec)
	if st.shards > 0 {
		// Catalog writes invalidate every shard's cache entry for the
		// document, so shard.sync_us gets a fleet no rung calls.
		if lf.fleet, err = assemble(in, stackBelow(st, "shard")); err != nil {
			return err
		}
	}
	var idle *daemon
	if wire {
		// protocol.noop_rpc_us wants a daemon holding no sessions at all.
		empty, err := assemble(&inputs{clients: 1, servers: 1}, stack{})
		if err != nil {
			return err
		}
		if idle, err = serve(empty, 1); err != nil {
			return err
		}
		defer idle.close()
	}

	// The ladder replays the first epoch's stream.
	reqs := in.epochs[0].reqs
	stride := min(ladderStride, max(1, len(reqs)/ladderMinSamples))
	var tracedCalls, children []time.Duration
	var prev replayed
	for i := 0; i < len(reqs); i += stride {
		q := replayed{plain.machines[reqs[i].client], in.ids[reqs[i].doc], in.profiles[reqs[i].profile]}
		if i == 0 {
			prev = q
		}
		rec.request = i
		// Replayed requests alternate between timing and counting mallocs.
		count := (i/stride)%2 == 1
		for _, r := range rungs {
			name, n := r.Layer, negotiator(r.sys.Manager)
			if r.daemon != nil {
				name, n = "wire", wireNegotiator{r.daemon.clients[0]}
			}
			d, allocs, err := hotCall(rec, name, n, prev, q, count)
			if err != nil {
				return err
			}
			if count {
				r.allocs = append(r.allocs, allocs)
			} else {
				r.samples = append(r.samples, d)
			}
		}
		d, _, err := hotCall(rec, "traced", traced, prev, q, false)
		if err != nil {
			return err
		}
		tracedCalls = append(tracedCalls, d)
		children = append(children, rec.steps)
		if idle != nil {
			rec.batch("protocol.noop_rpc", 2, func() {
				ctx, cancel := rpcContext()
				_, err = idle.clients[0].ListSessions(ctx)
				cancel()
			})
			if err != nil {
				return err
			}
		}
		if err := lf.measure(i/stride, q.mach, docs[reqs[i].doc], q.u); err != nil {
			return err
		}
		prev = q
	}

	// Self times, request by request, and the residual of their sum.
	var sum float64
	for i, r := range rungs {
		r.MedianUs = us(median(r.samples))
		diffs := append([]time.Duration(nil), r.samples...)
		if i+1 < len(rungs) {
			for j := range diffs {
				diffs[j] -= rungs[i+1].samples[j]
			}
		}
		sortDurations(diffs)
		r.SelfUs = us(quantile(diffs, 0.5))
		r.SpreadUs = us(quantile(diffs, 0.75) - quantile(diffs, 0.25))
		sum += r.SelfUs
		rep.Ladder = append(rep.Ladder, *r)
		if r.Layer != "core" {
			m[r.Layer+".self_us"] = r.SelfUs
		}
	}
	// The rungs should add up to what the workload's own loop measured for
	// the same call; what they miss is reported, with the rung whose
	// differences scatter most as the one to suspect.
	top, inner := rungs[0], rungs[len(rungs)-1]
	if loop := m["negotiate_p50_us"]; loop > 0 && !st.faults {
		residual := 100 * (loop - sum) / loop
		m["trace.ladder_residual_pct"] = residual
		if residual > 5 || residual < -5 {
			worst := rungs[0]
			for _, r := range rungs {
				if r.SpreadUs > worst.SpreadUs {
					worst = r
				}
			}
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"ladder: rungs sum to %.2fus of the loop's %.2fus median (%.1f%% unaccounted); widest rung is %s",
				sum, loop, residual, worst.Layer))
		}
	}
	for i, r := range rungs {
		if r.Layer == "telemetry" && i+1 < len(rungs) && rungs[i+1].MedianUs > 0 {
			m["telemetry.overhead_pct"] = 100 * r.SelfUs / rungs[i+1].MedianUs
		}
	}
	m["core.negotiate_us"] = inner.MedianUs
	m["core.allocs_per_negotiate"] = float64(median(inner.allocs))
	if top.daemon != nil {
		m["protocol.allocs_per_rpc"] = float64(median(top.allocs)) - float64(median(rungs[1].allocs))
	}
	self := make([]time.Duration, len(tracedCalls))
	for i := range self {
		self[i] = tracedCalls[i] - children[i]
	}
	m["core.self_us"] = us(median(self))
	if inner.MedianUs > 0 {
		m["trace.overhead_pct"] = 100 * (us(median(tracedCalls)) - inner.MedianUs) / inner.MedianUs
	}
	m["cmfs.rejects"] = float64(traced.rejects)
	rec.report(m)
	lf.report(m)
	return rec.write(cfg.outDir, rep)
}

// wireNegotiator adapts the protocol client to the ladder's call shape.
type wireNegotiator struct{ c *protocol.Client }

func (w wireNegotiator) NegotiateContext(_ context.Context, mach client.Machine, doc media.DocumentID, u profile.UserProfile) (core.Result, error) {
	ctx, cancel := rpcContext()
	defer cancel()
	res, err := w.c.Negotiate(ctx, mach, doc, u)
	out := core.Result{Status: res.Status}
	if err == nil && res.Status.Reserved() {
		out.Session = &core.Session{ID: res.Session}
	}
	return out, err
}

func (w wireNegotiator) Reject(id core.SessionID) error {
	ctx, cancel := rpcContext()
	defer cancel()
	return w.c.Reject(ctx, id)
}

func (r *recorder) write(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload    string      `json:"workload"`
		Seed        uint64      `json:"seed"`
		Environment environment `json:"environment"`
		Ladder      []rung      `json:"ladder"`
		Spans       []span      `json:"spans"`
	}{rep.Workload, rep.Seed, rep.Environment, rep.Ladder, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("trace-%s.json", rep.Workload)), append(data, '\n'), 0o644)
}
