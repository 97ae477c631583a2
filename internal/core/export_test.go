package core

import "qosneg/internal/media"

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
