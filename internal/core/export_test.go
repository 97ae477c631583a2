package core

import (
	"fmt"

	"qosneg/internal/cmfs"
	"qosneg/internal/media"
	"qosneg/internal/network"
)

// SetTestHookUnlocked installs f at the start of every unlock window — the
// point where Adapt/RenegotiateContext have withdrawn the session's
// commitment and dropped its lock. The lifecycle tests (this package and
// the core_test stress harness) use it to land concurrent transitions
// inside the window deterministically; it is compiled into test binaries
// only.
func (m *Manager) SetTestHookUnlocked(f func(op string, id SessionID)) {
	m.testHookUnlocked = f
}

// serverHealthGen reads a server's failure-evidence generation, for tests
// that hand recordServerSuccess evidence that is current.
func (m *Manager) serverHealthGen(id media.ServerID) uint64 {
	_, gen, _ := m.servers.lookup(id, m.clk)
	return gen
}

// CheckHoldsDisjoint checks that no two live sessions of m hold one
// reservation: each CMFS (server, reservation) pair and each network
// reservation that a reserved or playing session yields through EachHold
// is yielded by that session alone. It may run while sessions change state:
// a session confirmed between the two listings is walked once.
func CheckHoldsDisjoint(m SessionManager) error {
	type onServer struct {
		server media.ServerID
		res    cmfs.ReservationID
	}
	byCMFS := make(map[onServer]SessionID)
	byNet := make(map[network.ReservationID]SessionID)
	walked := make(map[SessionID]bool)
	var err error
	for _, state := range []SessionState{Reserved, Playing} {
		for _, s := range m.Sessions(state) {
			if walked[s.ID] {
				continue
			}
			walked[s.ID] = true
			s.EachHold(func(server media.ServerID, res cmfs.ReservationID, conn network.ReservationID) {
				k := onServer{server, res}
				if other, ok := byCMFS[k]; ok && err == nil {
					err = fmt.Errorf("sessions %d and %d both hold CMFS reservation %s/%d", other, s.ID, server, res)
				}
				byCMFS[k] = s.ID
				if conn == 0 {
					return
				}
				if other, ok := byNet[conn]; ok && err == nil {
					err = fmt.Errorf("sessions %d and %d both hold network reservation %d", other, s.ID, conn)
				}
				byNet[conn] = s.ID
			})
		}
	}
	return err
}
