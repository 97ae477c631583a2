package protocol

import (
	"time"

	"qosneg/internal/core"
	"qosneg/internal/session"
)

// playoutTick is the daemon's playout bookkeeping granularity.
const playoutTick = 100 * time.Millisecond

// AttachPlayout wires a playout driver, the prototype's media players, into
// the server on its clock: every session confirmed through srv plays at once,
// advancing every playoutTick until its document's schedule ends.
func AttachPlayout(srv *Server, man core.SessionManager) *session.Player {
	p := session.NewPlayer(srv.clk, man, playoutTick)
	srv.mu.Lock()
	defer srv.mu.Unlock()
	srv.confirmHook = func(id core.SessionID) {
		sess, err := man.Session(id)
		if err != nil {
			return
		}
		if doc, err := srv.reg.Document(sess.Document); err == nil {
			p.Drive(sess, session.BuildSchedule(doc).Duration(), nil)
		}
	}
	return p
}
