package protocol

import (
	"time"

	"qosneg/internal/adaptation"
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

// AttachMonitor runs the adaptation monitor on the server's clock: every
// adaptation.ScanInterval it sweeps the substrate for QoS violations and
// adapts each affected playing session without user involvement, re-running
// step 5 over its remaining offers and restarting from the interrupted
// position. The returned function stops it.
func AttachMonitor(srv *Server, mon *adaptation.Monitor) (stop func()) {
	return mon.Attach(srv.clk, nil)
}
