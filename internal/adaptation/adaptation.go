// Package adaptation implements the QoS violation monitor that drives the
// automatic adaptation of Section 4: "During the playout of the document,
// if the network or/and the server machine become congested thus leading to
// lower presentation quality, the QoS manager makes use of the adaptation
// procedure."
//
// The monitor scans the substrate (CMFS servers and the network) for
// overcommitted reservations — the simulation's stand-in for the QoS
// violation notifications of the real prototype — maps each victim
// reservation to its session, and asks the QoS manager to adapt that
// session onto an alternate system offer. The user/application is not
// involved, per the paper's fourth design characteristic.
package adaptation

import (
	"context"
	"errors"
	"time"

	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/network"
	"qosneg/internal/sim"
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
	affected := make(map[core.SessionID]bool)

	consider := func(s *core.Session, ok bool) {
		rep.Violations++
		if !ok {
			return
		}
		if s.State() != core.Playing {
			rep.Skipped++
			return
		}
		affected[s.ID] = true
	}

	for _, srv := range m.servers {
		for _, victim := range srv.Overcommitted() {
			s, ok := m.man.SessionByServerReservation(srv.ID(), victim.ID)
			consider(s, ok)
		}
	}
	if m.net != nil {
		for _, victim := range m.net.Overcommitted() {
			s, ok := m.man.SessionByNetworkReservation(victim.ID)
			consider(s, ok)
		}
	}

	// Adapt sessions in id order for determinism.
	ids := make([]core.SessionID, 0, len(affected))
	for id := range affected {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for i, id := range ids {
		if ctx.Err() != nil {
			rep.Skipped += len(ids) - i
			break
		}
		tr, err := m.man.AdaptContext(ctx, id)
		switch {
		case err == nil:
			rep.Adapted = append(rep.Adapted, tr)
		case errors.Is(err, core.ErrBadState), errors.Is(err, core.ErrUnknownSession):
			rep.Skipped++
		default:
			rep.Failed = append(rep.Failed, id)
		}
	}
	return rep
}

// ScanInterval is the period of Attach's sweeps: the reproduction's stand-in
// for how quickly the prototype's QoS violation notifications arrive.
const ScanInterval = 5 * time.Second

// Attach schedules a recurring sweep on the simulation engine every
// ScanInterval, reporting each non-empty scan to report (which may be nil).
// The returned stop function cancels future sweeps and any sweep in flight:
// it cancels the context every scan (and so every adaptation commit) runs
// under, so engine shutdown is never blocked behind a slow adaptation —
// victims the canceled sweep had not reached stay playing, reported as
// skipped. stop is idempotent and safe to call from any goroutine.
func (m *Monitor) Attach(eng *sim.Engine, report func(Report)) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var tick func()
	tick = func() {
		if ctx.Err() != nil {
			return
		}
		rep := m.scan(ctx)
		if report != nil && rep.Violations > 0 {
			report(rep)
		}
		eng.MustSchedule(ScanInterval, tick)
	}
	eng.MustSchedule(ScanInterval, tick)
	return cancel
}
