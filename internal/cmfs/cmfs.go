// Package cmfs simulates the continuous-media file server of the
// news-on-demand prototype ([Neu 96], University of British Columbia): a
// variable-bit-rate file server that admits streams with a disk-round
// model and lets the QoS manager reserve and release delivery resources
// (negotiation step 5, "asks ... the media file servers to reserve
// resources to support the QoS associated with the system offer").
//
// Admission model. The disk serves all active streams once per service
// round of length R. A stream with average bit rate r needs r×R/8 bytes per
// round; each admitted stream additionally costs one seek per round. A new
// stream is admitted iff
//
//	Σᵢ bytesPerRound(rᵢ)  ≤  (R − n·tSeek) × diskRate
//
// where n counts the streams including the candidate. This is the
// round-based admission test of the VBR CMFS literature; its parameters
// (disk transfer rate, seek time, round length) are configurable per
// server.
//
// Running demand. A server keeps the left-hand side as a running sum:
// demand = Σ bytesPerRound(r.Rate) over the admitted streams, updated by
// Reserve and Release, the only writers of the stream set. The sum is over
// int64, so it is exact and independent of order, and the admission test
// and Utilization cost O(1) in the number of streams. A refusal is
// a small error value that renders its text only when read, so a refused
// Reserve costs one allocation.
//
// Degradation injection. Experiments shrink a server's effective disk rate
// with SetDegradation; streams that no longer fit are reported by
// Overcommitted, which the QoS manager's adaptation procedure consumes.
package cmfs

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"qosneg/internal/ledger"
	"qosneg/internal/media"
	"qosneg/internal/qos"
	"qosneg/internal/telemetry"
)

// ErrAdmission is returned when the disk-round admission test fails.
var ErrAdmission = errors.New("cmfs: admission test failed")

// ErrUnknownReservation is returned when releasing a reservation the server
// does not hold.
var ErrUnknownReservation = errors.New("cmfs: unknown reservation")

// AdmissionPolicy selects which negotiated rate the admission test charges.
type AdmissionPolicy int

// The admission policies of the VBR CMFS literature.
const (
	// ByAverage charges each stream its average bit rate: the statistical
	// multiplexing admission of [Neu 96], with peaks absorbed by the
	// client-side buffer.
	ByAverage AdmissionPolicy = iota
	// ByPeak charges the maximum bit rate: the conservative
	// deterministic-guarantee admission.
	ByPeak
)

// String names the policy.
func (p AdmissionPolicy) String() string {
	if p == ByPeak {
		return "by-peak"
	}
	return "by-average"
}

// Config parameterizes a server's disk model.
type Config struct {
	// DiskRate is the sustained disk transfer rate.
	DiskRate qos.BitRate
	// SeekTime is the per-stream seek overhead paid once per round.
	SeekTime time.Duration
	// RoundLength is the service round R.
	RoundLength time.Duration
	// MaxStreams caps concurrency regardless of bandwidth (stream
	// contexts, buffers). Zero means no cap.
	MaxStreams int
	// Policy selects the admission test's charged rate (default
	// ByAverage).
	Policy AdmissionPolicy
}

// DefaultConfig returns the disk model used by the examples and
// experiments: a mid-1990s fast-wide SCSI array sustaining 64 Mbit/s with
// 12 ms seeks and a one-second service round.
func DefaultConfig() Config {
	return Config{
		DiskRate:    64 * qos.MBitPerSecond,
		SeekTime:    12 * time.Millisecond,
		RoundLength: time.Second,
		MaxStreams:  64,
	}
}

// Validate reports an error for non-positive model parameters.
func (c Config) Validate() error {
	if c.DiskRate <= 0 {
		return fmt.Errorf("cmfs config: non-positive disk rate %v", c.DiskRate)
	}
	if c.SeekTime < 0 {
		return fmt.Errorf("cmfs config: negative seek time")
	}
	if c.RoundLength <= 0 {
		return fmt.Errorf("cmfs config: non-positive round length")
	}
	if c.MaxStreams < 0 {
		return fmt.Errorf("cmfs config: negative stream cap")
	}
	return nil
}

// ReservationID names a stream reservation on one server.
type ReservationID uint64

// Reservation records one admitted stream.
type Reservation struct {
	ID ReservationID
	// Rate is the bit rate the admission test charged: the average under
	// the ByAverage policy (peaks absorbed by the client-side buffer, as
	// in [Neu 96]), the maximum under ByPeak.
	Rate qos.BitRate
	// Peak is the negotiated maximum bit rate, kept for accounting.
	Peak qos.BitRate
}

// Server simulates one continuous-media file server. It is safe for
// concurrent use.
type Server struct {
	id  media.ServerID
	cfg Config

	mu          sync.Mutex
	next        ReservationID
	streams     map[ReservationID]Reservation
	demand      int64   // Σ bytesPerRound(r.Rate) over streams
	degradation float64 // fraction of DiskRate lost, in [0, 1)

	// Telemetry series, installed by Instrument; nil when uninstrumented
	// (recording through them is then a no-op).
	admitted *telemetry.Counter
	rejected *telemetry.Counter
	active   *telemetry.Gauge

	// acct, when non-nil, is the server's account in the resource ledger:
	// every successful Reserve/Release posts to it (leak and
	// double-release detection in tests).
	acct *ledger.Account
}

// SetLedger installs a resource ledger: every successful Reserve posts an
// acquire, every successful Release a matching release. Only successful
// operations post — a Release of an unknown reservation already reports an
// error to the caller, and after a modeled crash such releases are a
// legitimate lost-message flow, not a bookkeeping bug. A nil ledger
// detaches.
func (s *Server) SetLedger(l *ledger.Ledger) {
	acct := l.Account(ledger.KindCMFS, string(s.id))
	s.mu.Lock()
	s.acct = acct
	s.mu.Unlock()
}

// Instrument wires the server's admission decisions into a telemetry
// registry: per-server admit/reject counters and an active-streams gauge,
// all labeled with the server id. A nil registry is a no-op; instrumenting
// several servers against one registry shares the metric families.
func (s *Server) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	admits := reg.CounterFamily("qosneg_cmfs_admits_total",
		"Stream reservations admitted by the disk-round test.", "server")
	rejects := reg.CounterFamily("qosneg_cmfs_rejects_total",
		"Stream reservations rejected (admission failure or stream cap).", "server")
	active := reg.GaugeFamily("qosneg_cmfs_active_streams",
		"Currently reserved streams.", "server")
	s.mu.Lock()
	s.admitted = admits.With(string(s.id))
	s.rejected = rejects.With(string(s.id))
	s.active = active.With(string(s.id))
	s.active.Set(int64(len(s.streams)))
	s.mu.Unlock()
}

// NewServer builds a server with the given identity and disk model.
func NewServer(id media.ServerID, cfg Config) (*Server, error) {
	if id == "" {
		return nil, fmt.Errorf("cmfs: empty server id")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Server{id: id, cfg: cfg, streams: make(map[ReservationID]Reservation)}, nil
}

// MustServer is NewServer that panics on error; for fixtures.
func MustServer(id media.ServerID, cfg Config) *Server {
	s, err := NewServer(id, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// ID returns the server's identity.
func (s *Server) ID() media.ServerID { return s.id }

// Config returns the server's disk model.
func (s *Server) Config() Config { return s.cfg }

// bytesPerRound is the per-round transfer a stream of rate r needs.
func (s *Server) bytesPerRound(r qos.BitRate) int64 {
	return int64(r) / 8 * int64(s.cfg.RoundLength) / int64(time.Second)
}

// roundBudget is the transferable bytes per round with n admitted streams,
// under the current degradation.
func (s *Server) roundBudget(n int) int64 {
	transfer := s.cfg.RoundLength - time.Duration(n)*s.cfg.SeekTime
	if transfer <= 0 {
		return 0
	}
	rate := float64(s.cfg.DiskRate) * (1 - s.degradation)
	return int64(rate / 8 * float64(transfer) / float64(time.Second))
}

// chargedRate is the rate the admission policy charges for a request.
func (s *Server) chargedRate(n qos.NetworkQoS) qos.BitRate {
	if s.cfg.Policy == ByPeak && n.MaxBitRate > n.AvgBitRate {
		return n.MaxBitRate
	}
	return n.AvgBitRate
}

// Admit runs the admission test for a candidate stream of the given network
// QoS without reserving. It returns nil when the stream would be admitted.
func (s *Server) Admit(n qos.NetworkQoS) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitLocked(s.chargedRate(n), Plan{})
}

// Plan is a caller-held tally of the streams an attempt plans to add to one
// server: the running demand and stream count its earlier requests would
// have added. The zero value plans nothing.
type Plan struct {
	demand  int64
	streams int
}

// Plan runs the admission test for a stream of the given network QoS as if
// the streams p tallies were already reserved, exactly as a Reserve after
// theirs would see it, and returns the tally with this stream added. It
// reserves nothing, allocates nothing unless it refuses, and consumes no
// reservation id; a later Reserve may still refuse if another caller
// reserved or the server degraded in between. A refusal counts in the
// server's reject counter, as a refused Reserve does.
func (s *Server) Plan(n qos.NetworkQoS, p Plan) (Plan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	charged := s.chargedRate(n)
	if err := s.admitLocked(charged, p); err != nil {
		s.rejected.Inc()
		return p, err
	}
	return Plan{demand: p.demand + s.bytesPerRound(charged), streams: p.streams + 1}, nil
}

// admitLocked is the admission test for a stream of the charged rate on top
// of the admitted streams and those p tallies; caller holds the lock.
func (s *Server) admitLocked(rate qos.BitRate, p Plan) error {
	if rate < 0 {
		return fmt.Errorf("cmfs %s: negative rate", s.id)
	}
	n := len(s.streams) + p.streams + 1
	if s.cfg.MaxStreams > 0 && n > s.cfg.MaxStreams {
		return &admissionError{server: s.id, cap: s.cfg.MaxStreams}
	}
	demand := s.demand + p.demand + s.bytesPerRound(rate)
	if budget := s.roundBudget(n); demand > budget {
		return &admissionError{server: s.id, demand: demand, budget: budget}
	}
	return nil
}

// admissionError is a refusal of the admission test. It keeps the figures
// and renders its text only when read; it unwraps to ErrAdmission.
type admissionError struct {
	server media.ServerID
	// cap is the stream cap that refused; zero when the round budget did.
	cap            int
	demand, budget int64
}

func (e *admissionError) Error() string {
	if e.cap > 0 {
		return fmt.Sprintf("%v: server %s at stream cap %d", ErrAdmission, e.server, e.cap)
	}
	return fmt.Sprintf("%v: server %s needs %d bytes/round, budget %d", ErrAdmission, e.server, e.demand, e.budget)
}

func (e *admissionError) Unwrap() error { return ErrAdmission }

// Reserve admits and reserves a stream; it returns the reservation that a
// later Release must present. Discrete media (zero rate) reserve no disk
// bandwidth but still count against the stream cap while being fetched.
func (s *Server) Reserve(n qos.NetworkQoS) (Reservation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	charged := s.chargedRate(n)
	if err := s.admitLocked(charged, Plan{}); err != nil {
		s.rejected.Inc()
		return Reservation{}, err
	}
	s.next++
	r := Reservation{ID: s.next, Rate: charged, Peak: n.MaxBitRate}
	s.streams[r.ID] = r
	s.demand += s.bytesPerRound(charged)
	s.admitted.Inc()
	s.active.Set(int64(len(s.streams)))
	s.acct.Acquire(uint64(r.ID))
	return r, nil
}

// Release frees a reservation.
func (s *Server) Release(id ReservationID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.streams[id]
	if !ok {
		return fmt.Errorf("%w: %d on server %s", ErrUnknownReservation, id, s.id)
	}
	delete(s.streams, id)
	s.demand -= s.bytesPerRound(r.Rate)
	s.active.Set(int64(len(s.streams)))
	s.acct.Release(uint64(id))
	return nil
}

// ActiveStreams returns the number of admitted streams.
func (s *Server) ActiveStreams() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.streams)
}

// Utilization returns the fraction of the current round budget consumed by
// admitted streams, in [0, +inf) (values above 1 indicate overcommitment
// after degradation).
func (s *Server) Utilization() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	budget := s.roundBudget(len(s.streams))
	if budget == 0 {
		if len(s.streams) == 0 {
			return 0
		}
		return 1
	}
	return float64(s.demand) / float64(budget)
}

// SetDegradation shrinks the effective disk rate by the given fraction in
// [0, 1); experiments use it to inject server congestion. Already-admitted
// streams keep their reservations; Overcommitted reports the casualties.
func (s *Server) SetDegradation(fraction float64) error {
	if fraction < 0 || fraction >= 1 {
		return fmt.Errorf("cmfs %s: degradation fraction %g outside [0, 1)", s.id, fraction)
	}
	s.mu.Lock()
	s.degradation = fraction
	s.mu.Unlock()
	return nil
}

// Overcommitted returns the reservations that no longer fit in the degraded
// round budget, largest rate first: the streams the disk can no longer
// serve at their negotiated QoS. A nil result means every admitted stream
// still fits; finding that out costs no allocation.
func (s *Server) Overcommitted() []Reservation {
	s.mu.Lock()
	defer s.mu.Unlock()
	budget := s.roundBudget(len(s.streams))
	if s.demand <= budget {
		return nil
	}
	res := make([]Reservation, 0, len(s.streams))
	for _, r := range s.streams {
		res = append(res, r)
	}
	slices.SortFunc(res, func(a, b Reservation) int {
		return cmp.Or(cmp.Compare(a.Rate, b.Rate), cmp.Compare(a.ID, b.ID))
	})
	// Keep the cheapest streams that fit; everything else is a casualty.
	var demand int64
	keep := 0
	for _, r := range res {
		d := s.bytesPerRound(r.Rate)
		if demand+d > budget {
			break
		}
		demand += d
		keep++
	}
	victims := res[keep:]
	out := make([]Reservation, len(victims))
	copy(out, victims)
	slices.SortFunc(out, func(a, b Reservation) int { return cmp.Compare(b.Rate, a.Rate) })
	return out
}
