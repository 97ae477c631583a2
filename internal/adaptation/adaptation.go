// Package adaptation implements the QoS violation monitor that drives the
// automatic adaptation of Section 4: "During the playout of the document,
// if the network or/and the server machine become congested thus leading to
// lower presentation quality, the QoS manager makes use of the adaptation
// procedure."
//
// The monitor scans the substrate (CMFS servers and the network) for
// overcommitted reservations — the simulation's stand-in for the QoS
// violation notifications of the real prototype — finds the live sessions
// holding them in one walk over the sessions, each of which says what it
// holds (core.Session.EachHold), and asks the QoS manager to adapt each
// playing one onto an alternate system offer. The user/application is not
// involved, per the paper's fourth design characteristic.
package adaptation

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"qosneg/internal/clock"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/media"
	"qosneg/internal/network"
)

// Monitor watches servers and the network for QoS violations.
type Monitor struct {
	man     core.SessionManager
	net     *network.Network
	servers []*cmfs.Server
}

// New builds a monitor over the given QoS manager and substrate.
func New(man core.SessionManager, net *network.Network, servers ...*cmfs.Server) *Monitor {
	return &Monitor{man: man, net: net, servers: servers}
}

// Report summarizes one scan.
type Report struct {
	// Violations counts victim reservations found, before session
	// de-duplication.
	Violations int
	// Adapted lists the successful transitions.
	Adapted []core.Transition
	// Failed lists sessions whose adaptation failed (now aborted).
	Failed []core.SessionID
	// Skipped counts victims whose session was not playing (reserved
	// sessions are left for the confirmation flow to resolve), including
	// sessions that left Playing, or were being adapted already, by the
	// time the sweep reached them: those the manager declines with
	// ErrBadState or ErrUnknownSession and aborts nothing.
	Skipped int
}

// Scan performs one violation sweep: every overcommitted server or network
// reservation is traced to its session and each affected playing session is
// adapted at most once.
func (m *Monitor) Scan() Report {
	return m.scan(context.Background())
}

// scan is Scan bounded by ctx: each adaptation runs under the context, and
// once it is done the remaining victims are reported as skipped rather
// than adapted — their sessions stay playing for the next sweep.
func (m *Monitor) scan(ctx context.Context) Report {
	var rep Report
	// Room for a storm's worth of victims before the slice leaves the stack.
	victims := make([]reservation, 0, 32)
	for _, srv := range m.servers {
		for _, v := range srv.Overcommitted() {
			victims = append(victims, reservation{server: srv.ID(), res: v.ID})
		}
	}
	if m.net != nil {
		for _, v := range m.net.Overcommitted() {
			victims = append(victims, reservation{conn: v.ID})
		}
	}
	rep.Violations = len(victims)
	if len(victims) == 0 {
		return rep
	}
	slices.SortFunc(victims, reservation.compare)

	victim := func(r reservation) bool {
		_, ok := slices.BinarySearchFunc(victims, r, reservation.compare)
		return ok
	}
	// held counts the victims among the reservations s holds; a reservation
	// has at most one holder.
	held := func(s *core.Session) (n int) {
		s.EachHold(func(server media.ServerID, res cmfs.ReservationID, conn network.ReservationID) {
			if victim(reservation{server: server, res: res}) {
				n++
			}
			if conn != 0 && victim(reservation{conn: conn}) {
				n++
			}
		})
		return n
	}
	// Playing first: a session confirmed between the two listings is in
	// neither, and the next sweep finds it, rather than in both.
	affected := slices.DeleteFunc(m.man.Sessions(core.Playing), func(s *core.Session) bool { return held(s) == 0 })
	for _, s := range m.man.Sessions(core.Reserved) {
		rep.Skipped += held(s)
	}

	// Adapt sessions in id order for determinism, into a report sized once.
	slices.SortFunc(affected, func(a, b *core.Session) int { return cmp.Compare(a.ID, b.ID) })
	if len(affected) > 0 {
		rep.Adapted = make([]core.Transition, 0, len(affected))
	}
	for i, s := range affected {
		if ctx.Err() != nil {
			rep.Skipped += len(affected) - i
			break
		}
		tr, err := m.man.AdaptContext(ctx, s.ID)
		switch {
		case err == nil:
			rep.Adapted = append(rep.Adapted, tr)
		case errors.Is(err, core.ErrBadState), errors.Is(err, core.ErrUnknownSession):
			rep.Skipped++
		default:
			rep.Failed = append(rep.Failed, s.ID)
		}
	}
	return rep
}

// reservation names one victim: a CMFS reservation on its server, or (server
// and res zero) a network reservation, whose ids start at 1.
type reservation struct {
	conn   network.ReservationID
	res    cmfs.ReservationID
	server media.ServerID
}

func (a reservation) compare(b reservation) int {
	return cmp.Or(cmp.Compare(a.conn, b.conn), cmp.Compare(a.res, b.res), cmp.Compare(a.server, b.server))
}

// ScanInterval is the period of Attach's sweeps: the reproduction's stand-in
// for how quickly the prototype's QoS violation notifications arrive.
const ScanInterval = 5 * time.Second

// Attach runs a sweep on clk every ScanInterval, reporting each non-empty
// scan to report (which may be nil). The returned stop function stops the
// pending sweep and cancels the context any sweep in flight (and so its
// adaptation commit) runs under, so shutdown never waits on a slow
// adaptation: victims it had not reached stay playing, reported as skipped,
// and it does not re-arm. stop is idempotent and safe from any goroutine.
func (m *Monitor) Attach(clk clock.Clock, report func(Report)) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var (
		mu    sync.Mutex // guards next against stop
		next  clock.Timer
		sweep func()
	)
	sweep = func() {
		if ctx.Err() != nil {
			return
		}
		rep := m.scan(ctx)
		if report != nil && rep.Violations > 0 {
			report(rep)
		}
		mu.Lock()
		defer mu.Unlock()
		if ctx.Err() == nil {
			next = clk.AfterFunc(ScanInterval, sweep)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	next = clk.AfterFunc(ScanInterval, sweep)
	return func() {
		cancel()
		mu.Lock()
		defer mu.Unlock()
		next.Stop()
	}
}
