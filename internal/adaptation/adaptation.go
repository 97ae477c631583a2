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
	"slices"
	"sync"
	"time"

	"qosneg/internal/clock"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
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
	slices.Sort(ids)
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
