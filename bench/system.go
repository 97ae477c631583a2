package main

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"qosneg"
	"qosneg/internal/adaptation"
	"qosneg/internal/admission"
	"qosneg/internal/client"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/faults"
	"qosneg/internal/protocol"
	"qosneg/internal/qos"
	"qosneg/internal/telemetry"
)

// Load-shape constants. They are fixed numbers, never derived from
// GOMAXPROCS, so results compare across hosts; all are at most 2, this
// benchmark's reference core count.
const (
	wireCallers      = 2
	admissionSlots   = 2
	admissionSLO     = 250 * time.Millisecond
	overloadRate     = 2000.0 // Poisson arrivals per second, ≈10× capacity
	overloadCap      = 8192   // outstanding arrivals before the generator drops
	faultLatency     = time.Millisecond
	stormClients     = 8
	stormSessions    = 32
	stormAccess      = 200 * qos.MBitPerSecond
	stormDegradation = 0.99
	traceDepth       = 256
)

// stack selects which optional layers a system is assembled with; the
// ladder builds the same catalog behind successively thinner stacks.
type stack struct {
	shards    int
	telemetry bool
	admission bool
	faults    bool
	// storm widens access links and disks so stormSessions concurrent
	// sessions fit on two of the three servers.
	storm bool
	// cacheOff disables the offer cache: the reference configuration.
	cacheOff bool
}

// system is one assembled qosneg system with its catalog registered.
type system struct {
	*qosneg.System
	machines []client.Machine
	ctrl     *admission.Controller
}

func stormServerConfig() cmfs.Config {
	cfg := cmfs.DefaultConfig()
	cfg.DiskRate = 512 * qos.MBitPerSecond
	cfg.SeekTime = 2 * time.Millisecond
	cfg.MaxStreams = 256
	return cfg
}

// assemble builds a system through the public facade, as a user would, and
// registers the inputs' catalog.
func assemble(in *inputs, st stack) (*system, error) {
	s := &system{}
	opts := []qosneg.Option{qosneg.WithClients(in.clients), qosneg.WithServers(in.servers)}
	if st.shards > 0 {
		// The daemon's defaults: a sharded fleet with the circuit breaker armed.
		opts = append(opts, qosneg.WithShards(st.shards), qosneg.WithHealthPolicy(core.DefaultHealthPolicy()))
	}
	if st.telemetry {
		opts = append(opts, qosneg.WithMetrics(telemetry.NewRegistry()), qosneg.WithTracer(telemetry.NewRing(traceDepth)))
	}
	if st.admission {
		s.ctrl = admission.New(admission.Config{SLO: admissionSLO, MaxInFlight: admissionSlots, MinInFlight: 1})
		opts = append(opts, qosneg.WithAdmission(s.ctrl))
	}
	var inj *faults.Injector
	if st.faults {
		inj = faults.New(7)
		opts = append(opts, qosneg.WithFaultInjector(inj))
	}
	if st.cacheOff {
		opts = append(opts, qosneg.WithOfferCache(-1))
	}
	if st.storm {
		opts = append(opts, qosneg.WithAccessCapacity(stormAccess), qosneg.WithServerConfig(stormServerConfig()))
	}
	sys, err := qosneg.New(opts...)
	if err != nil {
		return nil, err
	}
	if inj != nil {
		inj.SetLatency(faultLatency)
	}
	s.System = sys
	for i := 0; i < in.articles; i++ {
		if _, err := sys.AddNewsArticle(articleID(i), fmt.Sprintf("Article %d", i+1), 2*time.Minute); err != nil {
			return nil, err
		}
	}
	for _, d := range in.docs {
		if err := sys.AddDocument(d); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= in.clients; i++ {
		m, err := sys.Client(fmt.Sprintf("client-%d", i))
		if err != nil {
			return nil, err
		}
		s.machines = append(s.machines, m)
	}
	return s, nil
}

// countingConn counts what crosses the client end of a connection.
type countingConn struct {
	net.Conn
	read, written, writes atomic.Uint64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(uint64(n))
	c.writes.Add(1)
	return n, err
}

// daemon serves a system over the host's loopback inside this process and
// holds the client connections dialed to it.
type daemon struct {
	listener net.Listener
	server   *protocol.Server
	served   chan struct{}
	clients  []*protocol.Client
	conns    []*countingConn
}

// serve exposes s the way cmd/qosnegd does and dials nconns multiplexed
// client connections with the default codec negotiation.
func serve(s *system, nconns int) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{listener: l, served: make(chan struct{})}
	d.server = protocol.NewServer(s.Manager, s.Registry,
		protocol.WithServerWire(s.Wire), protocol.WithServerAdmission(s.Admission))
	d.server.Instrument(s.Metrics)
	go func() {
		defer close(d.served)
		// Serve returns once the listener closes; close reports it.
		_ = d.server.Serve(l)
	}()
	for i := 0; i < nconns; i++ {
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			d.close()
			return nil, err
		}
		cc := &countingConn{Conn: nc}
		c := protocol.NewClient(cc, protocol.WithWire(s.Wire))
		if s.Metrics != nil || s.Tracer != nil {
			c.Instrument(s.Metrics, s.Tracer)
		}
		d.conns = append(d.conns, cc)
		d.clients = append(d.clients, c)
	}
	return d, nil
}

// close stops the clients, the listener and the server's handlers and waits
// for the accept loop to end.
func (d *daemon) close() {
	for _, c := range d.clients {
		c.Close()
	}
	d.listener.Close()
	d.server.Close()
	<-d.served
}

// wire totals the client connections' traffic since they were dialed; the
// in-process workloads have no daemon and read 0.
func (d *daemon) wire() (bytes, writes uint64) {
	if d == nil {
		return 0, 0
	}
	for _, c := range d.conns {
		bytes += c.read.Load() + c.written.Load()
		writes += c.writes.Load()
	}
	return bytes, writes
}

// sut is the system under test of one workload: the assembled system, its
// loopback daemon for the wire workloads and the storm's standing sessions.
type sut struct {
	*system
	daemon *daemon
	// clients outlives daemon, which close drops: Redials is read at the end.
	clients []*protocol.Client
	monitor *adaptation.Monitor
	// live is the storm's standing confirmed sessions, oldest first.
	live []core.SessionID
}

// close stops the loopback daemon, if any; it is safe to call twice.
func (s *sut) close() {
	if s.daemon != nil {
		s.clients = s.daemon.clients
		s.daemon.close()
		s.daemon = nil
	}
}

// rpcTimeout bounds every wire call; nothing in a healthy run comes near it.
const rpcTimeout = 30 * time.Second

func rpcContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), rpcTimeout)
}
