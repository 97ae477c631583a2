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
// and Utilization cost O(1) in the number of streams. A refusal is a
// Refusal, the test's figures, which renders its text only when read: a
// refused Reserve boxes one as its error, one allocation, and a refused Plan
// hands its figures back by value in the plan, allocating nothing.
//
// Degradation injection. Experiments shrink a server's effective disk rate
// with SetDegradation; streams that no longer fit are reported by
// Overcommitted, which the QoS manager's adaptation procedure consumes.
package cmfs

import (
	"cmp"
	"errors"
	"fmt"
	"math"
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

	// rejected counts refused admission tests, installed by Instrument; nil
	// (a no-op) when uninstrumented. Admits are the ids issued from next.
	rejected *telemetry.Counter
}

// SetLedger registers the server's stream table with a resource ledger,
// which reads it for its open count, its issued ids and its leaks; a nil
// ledger is a no-op. Reserve and Release post nothing. A Release of an
// unknown reservation is not a violation: it already reports an error to
// the caller, and after a modeled crash it is a legitimate lost-message
// flow, not a bookkeeping bug.
func (s *Server) SetLedger(l *ledger.Ledger) {
	l.Register(ledger.KindCMFS, string(s.id), (*table)(s))
}

// table is the server as the ledger reads it: its stream table, whose ids
// come from next.
type table Server

func (t *table) Tally() (uint64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return uint64(t.next), len(t.streams)
}

func (t *table) EachOpen(f func(uint64)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := range t.streams {
		f(uint64(id))
	}
}

// The occupancy gauges, labeled with the server id.
const (
	MetricActiveStreams = "qosneg_cmfs_active_streams"
	MetricUtilization   = "qosneg_cmfs_utilization_permille"
)

// Instrument wires the server's admission decisions into a telemetry
// registry: per-server admit/reject counters, and active-streams and
// utilization gauges, all labeled with the server id. Admits and both
// gauges are read from the stream table; only rejects, which no table
// keeps, are counted. A nil registry is a no-op; instrumenting several
// servers against one registry shares the metric families.
func (s *Server) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Collect(telemetry.Collector{Name: "qosneg_cmfs_admits_total", Help: "Stream reservations admitted by the disk-round test.",
		Label: "server", Owner: s, Read: func(emit func(string, int64)) {
			issued, _ := (*table)(s).Tally()
			emit(string(s.id), int64(issued))
		}})
	rejects := reg.CounterFamily("qosneg_cmfs_rejects_total",
		"Stream reservations rejected (admission failure or stream cap).", "server")
	reg.Collect(telemetry.Collector{Name: MetricActiveStreams, Help: "Currently reserved streams.",
		Label: "server", Gauge: true, Owner: s,
		Read: func(emit func(string, int64)) { emit(string(s.id), int64(s.ActiveStreams())) }})
	reg.Collect(telemetry.Collector{Name: MetricUtilization, Help: "Fraction of the round budget reserved, per mille.",
		Label: "server", Gauge: true, Owner: s,
		Read: func(emit func(string, int64)) { emit(string(s.id), int64(math.Round(1000*s.Utilization()))) }})
	s.mu.Lock()
	s.rejected = rejects.With(string(s.id))
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
	p, err := s.admitLocked(s.chargedRate(n), Plan{})
	return s.admissionErr(p, err)
}

// Plan is a caller-held tally of the streams an attempt plans to add to one
// server: the running demand and stream count its earlier requests would
// have added. The zero value plans nothing. The plan that Plan returns with
// ErrAdmission is no tally: it holds the refusal's figures, which Refusal
// reads.
type Plan struct {
	demand  int64
	streams int
	// budget is set only in a refused plan: the round budget demand
	// exceeded. A refused plan's streams is the stream cap that refused it,
	// and zero when the round budget did.
	budget int64
}

// Refusal returns the figures of the admission refusal that the server
// named server returned p with.
func (p Plan) Refusal(server media.ServerID) Refusal {
	return Refusal{Server: server, Cap: p.streams, Demand: p.demand, Budget: p.budget}
}

// Plan runs the admission test for a stream of the given network QoS as if
// the streams p tallies were already reserved, exactly as a Reserve after
// theirs would see it, and returns the tally with this stream added. It
// reserves nothing, allocates nothing, admitted or refused, and consumes no
// reservation id. An admission refusal is the bare ErrAdmission, with a plan
// whose Refusal holds the figures Reserve's error would render. A later
// Reserve may still refuse if another caller reserved or the server degraded
// in between. A refusal counts in the server's reject counter, as a refused
// Reserve does.
func (s *Server) Plan(n qos.NetworkQoS, p Plan) (Plan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next, err := s.admitLocked(s.chargedRate(n), p)
	if err != nil {
		s.rejected.Inc()
	}
	return next, err
}

// admitLocked is the admission test for a stream of the charged rate on top
// of the admitted streams and those p tallies; caller holds the lock. It
// returns the tally with the stream added or, with ErrAdmission, the refused
// plan.
func (s *Server) admitLocked(rate qos.BitRate, p Plan) (Plan, error) {
	if rate < 0 {
		return p, fmt.Errorf("cmfs %s: negative rate", s.id)
	}
	n := len(s.streams) + p.streams + 1
	if s.cfg.MaxStreams > 0 && n > s.cfg.MaxStreams {
		return Plan{streams: s.cfg.MaxStreams}, ErrAdmission
	}
	d := s.bytesPerRound(rate)
	demand := s.demand + p.demand + d
	if budget := s.roundBudget(n); demand > budget {
		return Plan{demand: demand, budget: budget}, ErrAdmission
	}
	return Plan{demand: p.demand + d, streams: p.streams + 1}, nil
}

// admissionErr is admitLocked's refusal as an error: an admission refusal
// boxes the refused plan's figures, any other error is returned as it is.
func (s *Server) admissionErr(p Plan, err error) error {
	if err != ErrAdmission {
		return err
	}
	r := p.Refusal(s.id)
	return &r
}

// Refusal is a refusal of the admission test, kept as its figures: the
// server, and the stream cap that refused or the bytes per round the
// streams would need and the round budget they exceed. It renders its text
// only when read and unwraps to ErrAdmission.
type Refusal struct {
	Server media.ServerID
	// Cap is the stream cap that refused; zero when the round budget did.
	Cap            int
	Demand, Budget int64
}

func (r *Refusal) Error() string {
	if r.Cap > 0 {
		return fmt.Sprintf("%v: server %s at stream cap %d", ErrAdmission, r.Server, r.Cap)
	}
	return fmt.Sprintf("%v: server %s needs %d bytes/round, budget %d", ErrAdmission, r.Server, r.Demand, r.Budget)
}

func (r *Refusal) Unwrap() error { return ErrAdmission }

// Reserve admits and reserves a stream; it returns the reservation that a
// later Release must present. Discrete media (zero rate) reserve no disk
// bandwidth but still count against the stream cap while being fetched.
func (s *Server) Reserve(n qos.NetworkQoS) (Reservation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	charged := s.chargedRate(n)
	p, err := s.admitLocked(charged, Plan{})
	if err != nil {
		s.rejected.Inc()
		return Reservation{}, s.admissionErr(p, err)
	}
	s.next++
	r := Reservation{ID: s.next, Rate: charged, Peak: n.MaxBitRate}
	s.streams[r.ID] = r
	s.demand += p.demand
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
// still fits; finding that out costs no allocation, and a violation costs
// one, the listing of the streams the victims are cut from.
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
	slices.SortFunc(victims, func(a, b Reservation) int { return cmp.Compare(b.Rate, a.Rate) })
	return victims
}
