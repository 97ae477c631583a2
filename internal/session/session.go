// Package session drives the playout of negotiated documents on the
// discrete-event simulation engine: it is the reproduction's stand-in for
// the prototype's media players and synchronization component during the
// active phase. A Player advances a confirmed session's playout position
// tick by tick, completes it when the document ends, and notices when the
// adaptation procedure aborted the session underneath it.
package session

import (
	"fmt"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/media"
	"qosneg/internal/sim"
)

// tick is the playout bookkeeping granularity.
const tick = time.Second

// Player drives sessions on a simulation engine.
type Player struct {
	eng *sim.Engine
	man core.SessionManager
}

// NewPlayer builds a player over the engine and QoS manager.
func NewPlayer(eng *sim.Engine, man core.SessionManager) *Player {
	return &Player{eng: eng, man: man}
}

// Outcome reports how a playout ended.
type Outcome struct {
	Session  core.SessionID
	State    core.SessionState
	Position time.Duration
	// Transitions is how many adaptation switches happened during play.
	Transitions int
	// FinishedAt is the virtual time the playout ended.
	FinishedAt time.Duration
}

// Play confirms the reserved session and schedules its playout; done (may
// be nil) fires when the playout completes or aborts. The document supplies
// the playout duration.
func (p *Player) Play(s *core.Session, doc media.Document, done func(Outcome)) error {
	if s.Document != doc.ID {
		return fmt.Errorf("session: document mismatch (%s vs %s)", s.Document, doc.ID)
	}
	if err := p.man.Confirm(s.ID); err != nil {
		return err
	}
	// The playout length follows the resolved schedule, so sequential and
	// overlapped compositions run to the last window's end.
	duration := BuildSchedule(doc).Duration()
	finish := func(state core.SessionState) {
		if done != nil {
			done(Outcome{
				Session:     s.ID,
				State:       state,
				Position:    s.Position(),
				Transitions: s.Transitions(),
				FinishedAt:  p.eng.Now(),
			})
		}
	}
	var advance func()
	advance = func() {
		switch s.State() {
		case core.Aborted:
			finish(core.Aborted)
			return
		case core.Completed:
			finish(core.Completed)
			return
		case core.Playing:
			// fall through to advance
		default:
			finish(s.State())
			return
		}
		remaining := duration - s.Position()
		if remaining <= 0 {
			if err := p.man.Complete(s.ID); err == nil {
				finish(core.Completed)
			} else {
				finish(s.State())
			}
			return
		}
		step := tick
		if step > remaining {
			step = remaining
		}
		if err := p.man.Advance(s.ID, step); err != nil {
			// The session changed state underneath us (adaptation
			// failure); re-dispatch on the next tick path.
			finish(s.State())
			return
		}
		p.eng.MustSchedule(tick, advance)
	}
	p.eng.MustSchedule(tick, advance)
	return nil
}
