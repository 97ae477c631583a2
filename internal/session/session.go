// Package session drives the playout of negotiated documents: it is the
// reproduction's stand-in for the prototype's media players and
// synchronization component during the active phase. A Player advances a
// confirmed session's playout position tick by tick on a clock.Clock,
// completes it when the document ends, and notices when the adaptation
// procedure aborted the session underneath it.
package session

import (
	"fmt"
	"sync"
	"time"

	"qosneg/internal/clock"
	"qosneg/internal/core"
	"qosneg/internal/media"
)

// Player drives sessions on a clock. It is safe for concurrent use.
type Player struct {
	clk  clock.Clock
	man  core.SessionManager
	tick time.Duration

	// mu guards next, each driven session's pending tick (nil once
	// stopped). Ticks advance their sessions outside it, in parallel on a
	// wall clock; ticking counts those in progress, for Stop to wait on.
	mu      sync.Mutex
	next    map[core.SessionID]clock.Timer
	ticking sync.WaitGroup
}

// NewPlayer builds a player over the clock and QoS manager that advances
// each session every tick, the (positive) playout bookkeeping granularity.
func NewPlayer(clk clock.Clock, man core.SessionManager, tick time.Duration) *Player {
	return &Player{clk: clk, man: man, tick: tick, next: make(map[core.SessionID]clock.Timer)}
}

// Outcome reports how a playout ended.
type Outcome struct {
	Session  core.SessionID
	State    core.SessionState
	Position time.Duration
	// Transitions is how many adaptation switches happened during play.
	Transitions int
	// FinishedAt is when the playout ended, read from the player's clock
	// as time since clock.Epoch: the virtual time on a Sim clock.
	FinishedAt time.Duration
}

// Play confirms the reserved session and drives its playout through the
// document's resolved schedule, so sequential and overlapped compositions
// run to the last window's end.
func (p *Player) Play(s *core.Session, doc media.Document, done func(Outcome)) error {
	if s.Document != doc.ID {
		return fmt.Errorf("session: document mismatch (%s vs %s)", s.Document, doc.ID)
	}
	if err := p.man.Confirm(s.ID); err != nil {
		return err
	}
	p.Drive(s, BuildSchedule(doc).Duration(), done)
	return nil
}

// Drive plays a confirmed session until its position reaches duration;
// done (may be nil) fires when the playout completes or aborts. Driving a
// session twice, or after Stop, is a no-op.
func (p *Player) Drive(s *core.Session, duration time.Duration, done func(Outcome)) {
	var advance func()
	advance = func() {
		p.mu.Lock()
		if p.next == nil {
			p.mu.Unlock()
			return
		}
		p.ticking.Add(1)
		p.mu.Unlock()
		state, playing := p.step(s, duration)
		p.mu.Lock()
		if playing && p.next != nil {
			p.next[s.ID] = p.clk.AfterFunc(p.tick, advance)
		} else {
			delete(p.next, s.ID) // a no-op once stopped
		}
		p.mu.Unlock()
		p.ticking.Done()
		if !playing && done != nil {
			done(Outcome{
				Session:     s.ID,
				State:       state,
				Position:    s.Position(),
				Transitions: s.Transitions(),
				FinishedAt:  p.clk.Now().Sub(clock.Epoch),
			})
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, driving := p.next[s.ID]; !driving && p.next != nil {
		p.next[s.ID] = p.clk.AfterFunc(p.tick, advance)
	}
}

// step is one tick: it advances a playing session by at most one tick, or
// completes it once the schedule has played out. It reports whether the
// session plays on and, when not, the state its playout ended in.
func (p *Player) step(s *core.Session, duration time.Duration) (core.SessionState, bool) {
	if st := s.State(); st != core.Playing {
		return st, false
	}
	remaining := duration - s.Position()
	if remaining <= 0 {
		_ = p.man.Complete(s.ID) // it failed only if the state moved: read it
		return s.State(), false
	}
	if p.man.Advance(s.ID, min(p.tick, remaining)) != nil {
		return s.State(), false // an adaptation failure aborted it underneath us
	}
	return core.Playing, true
}

// Stop halts every playout; no tick runs once it returns. Sessions keep
// their current state (the driver is shutting down, not the users).
func (p *Player) Stop() {
	p.mu.Lock()
	for _, t := range p.next {
		t.Stop()
	}
	p.next = nil
	p.mu.Unlock()
	p.ticking.Wait()
}

// Active returns the number of sessions being driven.
func (p *Player) Active() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.next)
}
