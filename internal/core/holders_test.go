package core_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/qos"
	"qosneg/internal/testbed"
	"qosneg/internal/transport"
)

// recordingServer is a media server that remembers its live reservations.
type recordingServer struct {
	*cmfs.Server
	mu   sync.Mutex
	live map[cmfs.ReservationID]bool
}

func (r *recordingServer) Reserve(q qos.NetworkQoS) (cmfs.Reservation, error) {
	res, err := r.Server.Reserve(q)
	if err == nil {
		r.mu.Lock()
		r.live[res.ID] = true
		r.mu.Unlock()
	}
	return res, err
}

func (r *recordingServer) Release(id cmfs.ReservationID) error {
	err := r.Server.Release(id)
	if err == nil {
		r.mu.Lock()
		delete(r.live, id)
		r.mu.Unlock()
	}
	return err
}

// recordingTransport is a transport that remembers its live network
// reservations.
type recordingTransport struct {
	inner *transport.System
	mu    sync.Mutex
	live  map[network.ReservationID]bool
}

func (r *recordingTransport) Plan(src, dst network.NodeID, q qos.NetworkQoS, p network.Plan) (network.Plan, network.PathMetrics, error) {
	return r.inner.Plan(src, dst, q, p)
}

func (r *recordingTransport) Connect(src, dst network.NodeID, q qos.NetworkQoS) (transport.Connection, error) {
	c, err := r.inner.Connect(src, dst, q)
	if err == nil && c.Reservation.ID != 0 {
		r.mu.Lock()
		r.live[c.Reservation.ID] = true
		r.mu.Unlock()
	}
	return c, err
}

func (r *recordingTransport) Close(c transport.Connection) error {
	err := r.inner.Close(c)
	if err == nil {
		r.mu.Lock()
		delete(r.live, c.Reservation.ID)
		r.mu.Unlock()
	}
	return err
}

// holders maps every reservation a live session of m yields through
// EachHold to the sessions yielding it.
func holders(m *core.Manager) (onServer map[serverRes][]*core.Session, onNet map[network.ReservationID][]*core.Session) {
	onServer = make(map[serverRes][]*core.Session)
	onNet = make(map[network.ReservationID][]*core.Session)
	for _, state := range []core.SessionState{core.Reserved, core.Playing} {
		for _, s := range m.Sessions(state) {
			s.EachHold(func(server media.ServerID, res cmfs.ReservationID, conn network.ReservationID) {
				k := serverRes{server, res}
				onServer[k] = append(onServer[k], s)
				if conn != 0 {
					onNet[conn] = append(onNet[conn], s)
				}
			})
		}
	}
	return onServer, onNet
}

// serverRes is a CMFS reservation on its server.
type serverRes struct {
	server media.ServerID
	res    cmfs.ReservationID
}

// TestFindsEveryHolderMidStorm holds what the manager's live sessions say
// they hold to the substrate: before an adaptation storm and
// after every adaptation in it, every live CMFS and network reservation is
// held by exactly one live session, a playing one, and no session holds a
// reservation that is not live. A concurrent reader walks the sessions'
// holds throughout, for the race detector.
func TestFindsEveryHolderMidStorm(t *testing.T) {
	disk := cmfs.DefaultConfig()
	disk.DiskRate = 512 * qos.MBitPerSecond
	disk.SeekTime = 2 * time.Millisecond
	disk.MaxStreams = 256
	bed := testbed.MustNew(testbed.Spec{Clients: 4, Servers: 3, ServerConfig: &disk, AccessCapacity: qos.GBitPerSecond})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	conns := &recordingTransport{inner: bed.Transit, live: make(map[network.ReservationID]bool)}
	man := core.NewManager(bed.Registry, conns, bed.Pricing, core.DefaultOptions())
	servers := make(map[media.ServerID]*recordingServer)
	for _, id := range bed.ServerIDs() {
		rs := &recordingServer{Server: bed.Servers[id], live: make(map[cmfs.ReservationID]bool)}
		servers[id] = rs
		man.AddServer(rs, network.NodeID(id))
	}

	var sessions []*core.Session
	for i := 0; i < 32; i++ {
		res, err := man.NegotiateContext(context.Background(), bed.Client(1+i%4), "news-1", chaosProfile())
		if err != nil {
			t.Fatal(err)
		}
		if res.Session == nil {
			continue
		}
		if err := man.Confirm(res.Session.ID); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, res.Session)
	}
	if len(sessions) < 8 {
		t.Fatalf("%d sessions; the storm needs at least 8", len(sessions))
	}

	check := func(when string) {
		t.Helper()
		onServer, onNet := holders(man)
		live := 0
		for id, rs := range servers {
			rs.mu.Lock()
			for res := range rs.live {
				live++
				if hs := onServer[serverRes{id, res}]; len(hs) != 1 || hs[0].State() != core.Playing {
					t.Fatalf("%s: CMFS reservation %s/%d is held by %v, want one playing session", when, id, res, hs)
				}
			}
			rs.mu.Unlock()
		}
		if live != len(onServer) {
			t.Fatalf("%s: sessions hold %d CMFS reservations, the servers record %d live", when, len(onServer), live)
		}
		conns.mu.Lock()
		for res := range conns.live {
			if hs := onNet[res]; len(hs) != 1 || hs[0].State() != core.Playing {
				t.Fatalf("%s: network reservation %d is held by %v, want one playing session", when, res, hs)
			}
		}
		if len(conns.live) != len(onNet) {
			t.Fatalf("%s: sessions hold %d network reservations, the transport records %d live", when, len(onNet), len(conns.live))
		}
		conns.mu.Unlock()
		// Each playing session holds one CMFS reservation per choice.
		held := make(map[*core.Session]int)
		for _, hs := range onServer {
			held[hs[0]]++
		}
		for _, s := range man.Sessions(core.Playing) {
			if got, want := held[s], len(s.CurrentOffer().Choices); got != want {
				t.Fatalf("%s: session %d holds %d CMFS reservations, has %d choices", when, s.ID, got, want)
			}
		}
	}
	check("before the storm")

	// The concurrent reader: walks racing the adaptations' windows.
	var stop atomic.Bool
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for !stop.Load() {
			holders(man)
		}
	}()

	// The storm: halve the busiest server's round budget against its
	// demand and adapt every victim's holder, the way the adaptation
	// monitor does, one at a time.
	var victim *recordingServer
	for _, rs := range servers {
		if victim == nil || rs.Utilization() > victim.Utilization() {
			victim = rs
		}
	}
	if err := victim.SetDegradation(1 - victim.Utilization()/2); err != nil {
		t.Fatal(err)
	}
	over := victim.Overcommitted()
	if len(over) == 0 {
		t.Fatal("degradation left no victims")
	}
	adapted := 0
	for i, r := range over {
		onServer, _ := holders(man)
		hs := onServer[serverRes{victim.ID(), r.ID}]
		if len(hs) == 0 {
			continue // its session already moved off the reservation
		}
		if _, err := man.Adapt(hs[0].ID); err == nil {
			adapted++
		}
		check(fmt.Sprintf("after adaptation %d of %d", i+1, len(over)))
	}
	stop.Store(true)
	reader.Wait()
	if adapted == 0 {
		t.Fatal("no adaptation in the storm succeeded")
	}
	t.Logf("%d sessions, %d victims, %d adapted", len(sessions), len(over), adapted)

	for _, s := range sessions {
		man.Abort(s.ID)
	}
	for id, rs := range servers {
		if n := len(rs.live); n != 0 {
			t.Errorf("server %s: %d reservations live after wind-down", id, n)
		}
	}
	if err := bed.Ledger.CheckEmpty(); err != nil {
		t.Error(err)
	}
}

// TestSessionsAllocatesOnce: listing N matching sessions allocates the
// result once; a state nothing is in allocates nothing.
func TestSessionsAllocatesOnce(t *testing.T) {
	disk := cmfs.DefaultConfig()
	disk.DiskRate = 512 * qos.MBitPerSecond
	disk.MaxStreams = 256
	bed := testbed.MustNew(testbed.Spec{Clients: 4, Servers: 3, ServerConfig: &disk, AccessCapacity: qos.GBitPerSecond})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	man := bed.Manager
	const n = 16
	for i := 0; i < n; i++ {
		res, err := man.NegotiateContext(context.Background(), bed.Client(1+i%4), "news-1", chaosProfile())
		if err != nil || !res.Status.Reserved() {
			t.Fatalf("session %d: %v %v", i, res.Status, err)
		}
		if err := man.Confirm(res.Session.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(man.Sessions(core.Playing)); got != n {
		t.Fatalf("%d playing sessions, want %d", got, n)
	}
	if a := testing.AllocsPerRun(100, func() { man.Sessions(core.Playing) }); a > 1 {
		t.Errorf("listing %d playing sessions made %.1f allocations, want at most 1", n, a)
	}
	if a := testing.AllocsPerRun(100, func() { man.Sessions(core.Reserved) }); a != 0 {
		t.Errorf("listing no reserved session made %.1f allocations, want 0", a)
	}
}
