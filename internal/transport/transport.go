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
	// of the first 4k feasible routes network.Open filters.
	alternates int
}

// SetLedger does nothing. A connection is its network reservation, which
// the ledger reads from the network's own table (network.SetLedger). It
// stays only for the benchmark module's callers, until ROADMAP item 7a
// re-founds the benchmark on the system that exists and drops the call.
func (s *System) SetLedger(*ledger.Ledger) {}

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
	return Connection{Reservation: r, Metrics: m, QoS: q}, nil
}

// Plan answers whether Connect would establish the stream if the
// connections p tallies were already established, without reserving: it
// extends p in place by the route Connect would take and returns the
// metrics the connection would report. It refuses as Connect would,
// leaving p as it was, except that a path held by other reservations is
// refused with an error that is network.ErrPathHeld. Like Connect, a
// zero-throughput request plans nothing and reports zero metrics.
func (s *System) Plan(src, dst network.NodeID, q qos.NetworkQoS, p *network.Plan) (network.PathMetrics, error) {
	if q.Zero() {
		return network.PathMetrics{}, nil
	}
	m, err := s.net.Plan(src, dst, q, s.alternates, p)
	if err == network.ErrPathHeld {
		return m, errPathHeld
	}
	if err != nil {
		return m, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return m, nil
}

// errPathHeld is network.ErrPathHeld as the transport refuses it, built
// once so that the refusal allocates nothing.
var errPathHeld = fmt.Errorf("%w: %w", ErrUnavailable, network.ErrPathHeld)

// Close releases a connection's reservation. It reads only
// c.Reservation.ID, so a connection rebuilt from its id closes as the
// original would. Id 0 is no connection, since network ids start at 1:
// closing a zero-throughput connection is a no-op.
func (s *System) Close(c Connection) error {
	if c.Reservation.ID == 0 {
		return nil
	}
	return s.net.Release(c.Reservation.ID)
}
