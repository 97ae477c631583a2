// Package transport is the transport system of the prototype: the facade
// the QoS manager calls in negotiation step 5 to reserve end-to-end network
// resources for one stream ("asks the transport system and the media file
// servers to reserve resources to support the QoS associated with the
// system offer"). Each connection is one call to network.Open, which picks
// the best feasible path and reserves its bandwidth under one acquisition
// of the network's lock, so no concurrent reservation can take the path
// between the choice and the charge and there is nothing to retry.
package transport

import (
	"errors"
	"fmt"
	"sync"

	"qosneg/internal/ledger"
	"qosneg/internal/network"
	"qosneg/internal/qos"
)

// ErrUnavailable is returned when no feasible path can be reserved.
var ErrUnavailable = errors.New("transport: no feasible path can be reserved")

// Connection is an established end-to-end reservation.
type Connection struct {
	Reservation network.Reservation
	Metrics     network.PathMetrics
	// QoS is the request the connection was established for.
	QoS qos.NetworkQoS
}

// System is the transport service. It is safe for concurrent use (the
// underlying network serializes reservation state).
type System struct {
	net *network.Network
	// alternates is the k of network.Open: each connection takes the best
	// of the first 4k feasible paths the walk finds.
	alternates int

	// mu guards led only.
	mu sync.Mutex
	// led, when non-nil, records every established connection (keyed by
	// its network reservation id) in the resource ledger. Zero-throughput
	// connections hold no resource and are not tracked.
	led *ledger.Ledger
}

// SetLedger installs a resource ledger on the connection lifecycle; a nil
// ledger detaches.
func (s *System) SetLedger(l *ledger.Ledger) {
	s.mu.Lock()
	s.led = l
	s.mu.Unlock()
}

func (s *System) ledger() *ledger.Ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.led
}

// New builds a transport system over the given network; each connection
// chooses among the first 4·alternates feasible paths (alternates is at
// least 1).
func New(n *network.Network, alternates int) *System {
	if alternates < 1 {
		alternates = 1
	}
	return &System{net: n, alternates: alternates}
}

// Network exposes the underlying substrate (for congestion monitoring).
func (s *System) Network() *network.Network { return s.net }

// Connect reserves an end-to-end stream from src to dst with the given
// network QoS. A request with zero throughput (discrete media) returns a
// zero-valued Connection without touching the network: the prototype
// fetches discrete media ahead of the presentation over the signalling
// channel.
func (s *System) Connect(src, dst network.NodeID, q qos.NetworkQoS) (Connection, error) {
	if q.Zero() {
		return Connection{QoS: q}, nil
	}
	r, m, err := s.net.Open(src, dst, q, s.alternates)
	if err != nil {
		return Connection{}, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	s.ledger().Acquire(ledger.KindTransport, "", uint64(r.ID))
	return Connection{Reservation: r, Metrics: m, QoS: q}, nil
}

// Close releases a connection's reservation. Closing a zero-throughput
// connection is a no-op.
func (s *System) Close(c Connection) error {
	if c.QoS.Zero() && c.Reservation.ID == 0 {
		return nil
	}
	err := s.net.Release(c.Reservation.ID)
	if err == nil {
		// A failed release means the reservation was already gone — the
		// network-level ledger hook has flagged the double release; posting
		// the transport entry too would double-count it.
		s.ledger().Release(ledger.KindTransport, "", uint64(c.Reservation.ID))
	}
	return err
}
