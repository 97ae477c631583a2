package core

import (
	"fmt"
	"maps"

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

// CheckHoldIndex holds the reservation→session index to a scan of the
// session table: every CMFS and network reservation a live session's
// commitment holds maps to that session, and nothing else is indexed. It
// is exact only at quiescence — with no procedure in an unlock window and
// no transition in flight.
func (m *Manager) CheckHoldIndex() error {
	wantCMFS := make(map[serverHold]*Session)
	wantNet := make(map[network.ReservationID]*Session)
	m.sessMu.RLock()
	for _, s := range m.sessions {
		s.mu.Lock()
		for _, h := range s.commit.choices {
			wantCMFS[serverHold{h.server.ID(), h.res.ID}] = s
			if id := h.conn.Reservation.ID; id != 0 {
				wantNet[id] = s
			}
		}
		s.mu.Unlock()
	}
	m.sessMu.RUnlock()
	m.holdMu.Lock()
	defer m.holdMu.Unlock()
	if !maps.Equal(m.heldOnCMFS, wantCMFS) {
		return fmt.Errorf("CMFS index holds %d reservations, the session table %d: %v != %v",
			len(m.heldOnCMFS), len(wantCMFS), m.heldOnCMFS, wantCMFS)
	}
	if !maps.Equal(m.heldOnNet, wantNet) {
		return fmt.Errorf("network index holds %d reservations, the session table %d: %v != %v",
			len(m.heldOnNet), len(wantNet), m.heldOnNet, wantNet)
	}
	return nil
}

// HoldIndexSize returns how many reservations the index maps to sessions.
func (m *Manager) HoldIndexSize() int {
	m.holdMu.Lock()
	defer m.holdMu.Unlock()
	return len(m.heldOnCMFS) + len(m.heldOnNet)
}
