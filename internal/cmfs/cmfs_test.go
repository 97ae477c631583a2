package cmfs

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"qosneg/internal/qos"
)

func smallConfig() Config {
	return Config{
		DiskRate:    10 * qos.MBitPerSecond,
		SeekTime:    10 * time.Millisecond,
		RoundLength: time.Second,
		MaxStreams:  8,
	}
}

func stream(rate qos.BitRate) qos.NetworkQoS {
	return qos.NetworkQoS{MaxBitRate: rate * 2, AvgBitRate: rate}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer("", DefaultConfig()); err == nil {
		t.Error("empty id accepted")
	}
	bad := []Config{
		{DiskRate: 0, RoundLength: time.Second},
		{DiskRate: 1, RoundLength: 0},
		{DiskRate: 1, RoundLength: time.Second, SeekTime: -1},
		{DiskRate: 1, RoundLength: time.Second, MaxStreams: -1},
	}
	for i, c := range bad {
		if _, err := NewServer("s", c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	s := MustServer("s1", DefaultConfig())
	if s.ID() != "s1" {
		t.Errorf("ID = %s", s.ID())
	}
	if s.Config().DiskRate != DefaultConfig().DiskRate {
		t.Error("config not retained")
	}
}

func TestReserveRelease(t *testing.T) {
	s := MustServer("s1", smallConfig())
	r, err := s.Reserve(stream(2 * qos.MBitPerSecond))
	if err != nil {
		t.Fatal(err)
	}
	if s.ActiveStreams() != 1 {
		t.Errorf("ActiveStreams = %d", s.ActiveStreams())
	}
	if r.Rate != 2*qos.MBitPerSecond || r.Peak != 4*qos.MBitPerSecond {
		t.Errorf("reservation = %+v", r)
	}
	if err := s.Release(r.ID); err != nil {
		t.Fatal(err)
	}
	if s.ActiveStreams() != 0 {
		t.Errorf("ActiveStreams after release = %d", s.ActiveStreams())
	}
	if err := s.Release(r.ID); !errors.Is(err, ErrUnknownReservation) {
		t.Errorf("double release: %v", err)
	}
}

func TestAdmissionBandwidthLimit(t *testing.T) {
	// 10 Mbit/s disk, 10 ms seek, 1 s round. With n streams the budget is
	// (1 - 0.01n) × 1.25 MB. 2 Mbit/s streams need 250 kB/round, so the
	// 4th stream still fits (budget 1.2 MB ≥ 1.0 MB) and the 5th fails
	// only at the capacity edge — compute exactly:
	s := MustServer("s1", smallConfig())
	admitted := 0
	for i := 0; i < 8; i++ {
		if _, err := s.Reserve(stream(2 * qos.MBitPerSecond)); err != nil {
			if !errors.Is(err, ErrAdmission) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		admitted++
	}
	// budget(n) = (1 − 0.01·n) × 1.25e6 bytes; demand(n) = n × 250e3.
	// n=4: 1.2e6 ≥ 1.0e6 ok; n=5: 1.1875e6 ≥ 1.25e6 false → 4 streams.
	if admitted != 4 {
		t.Errorf("admitted %d streams, want 4", admitted)
	}
	util := s.Utilization()
	if util <= 0 || util > 1 {
		t.Errorf("utilization = %g", util)
	}
}

func TestAdmissionStreamCap(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxStreams = 2
	s := MustServer("s1", cfg)
	for i := 0; i < 2; i++ {
		if _, err := s.Reserve(stream(qos.KBitPerSecond)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Reserve(stream(qos.KBitPerSecond)); !errors.Is(err, ErrAdmission) {
		t.Errorf("stream cap not enforced: %v", err)
	}
}

func TestAdmitIsNonBinding(t *testing.T) {
	s := MustServer("s1", smallConfig())
	if err := s.Admit(stream(2 * qos.MBitPerSecond)); err != nil {
		t.Fatal(err)
	}
	if s.ActiveStreams() != 0 {
		t.Error("Admit must not reserve")
	}
	if err := s.Admit(stream(-1)); err == nil {
		t.Error("negative rate admitted")
	}
}

func TestZeroRateStreams(t *testing.T) {
	s := MustServer("s1", smallConfig())
	r, err := s.Reserve(qos.NetworkQoS{})
	if err != nil {
		t.Fatalf("discrete medium rejected: %v", err)
	}
	if s.Utilization() != 0 {
		t.Errorf("zero-rate stream consumes bandwidth: %g", s.Utilization())
	}
	if err := s.Release(r.ID); err != nil {
		t.Fatal(err)
	}
}

func TestDegradationAndOvercommit(t *testing.T) {
	s := MustServer("s1", smallConfig())
	var ids []ReservationID
	for i := 0; i < 4; i++ {
		r, err := s.Reserve(stream(2 * qos.MBitPerSecond))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID)
	}
	if len(s.Overcommitted()) != 0 {
		t.Fatal("healthy server reports overcommitment")
	}
	// Halving the disk rate leaves budget (1−0.04)×0.625 MB = 600 kB;
	// each stream needs 250 kB → only 2 of 4 fit.
	if err := s.SetDegradation(0.5); err != nil {
		t.Fatal(err)
	}
	victims := s.Overcommitted()
	if len(victims) != 2 {
		t.Fatalf("victims = %d, want 2", len(victims))
	}
	for _, v := range victims {
		if err := s.Release(v.ID); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.Overcommitted()) != 0 {
		t.Error("still overcommitted after releasing victims")
	}
	// Recovery restores admission.
	if err := s.SetDegradation(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reserve(stream(2 * qos.MBitPerSecond)); err != nil {
		t.Errorf("post-recovery admission failed: %v", err)
	}
	_ = ids
}

func TestSetDegradationValidation(t *testing.T) {
	s := MustServer("s1", smallConfig())
	if err := s.SetDegradation(-0.1); err == nil {
		t.Error("negative degradation accepted")
	}
	if err := s.SetDegradation(1); err == nil {
		t.Error("total degradation accepted")
	}
}

func TestConcurrentReserveRelease(t *testing.T) {
	s := MustServer("s1", Config{
		DiskRate:    100 * qos.MBitPerSecond,
		SeekTime:    time.Millisecond,
		RoundLength: time.Second,
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r, err := s.Reserve(stream(qos.MBitPerSecond))
				if err != nil {
					continue
				}
				s.Utilization()
				if err := s.Release(r.ID); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.ActiveStreams() != 0 {
		t.Errorf("leaked %d streams", s.ActiveStreams())
	}
}

// Property: a server never admits beyond its round budget — after any
// sequence of successful reservations, utilization ≤ 1 (absent degradation).
func TestAdmissionSafetyProperty(t *testing.T) {
	f := func(rates []uint32) bool {
		s := MustServer("s1", smallConfig())
		for _, r := range rates {
			s.Reserve(stream(qos.BitRate(r % 5_000_000)))
		}
		return s.Utilization() <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: release returns the server to its pre-reserve admission state.
func TestReserveReleaseInverseProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		s := MustServer("s1", smallConfig())
		first := qos.BitRate(a % 8_000_000)
		second := qos.BitRate(b % 8_000_000)
		before := s.Admit(stream(second)) == nil
		r, err := s.Reserve(stream(first))
		if err != nil {
			return true
		}
		s.Release(r.ID)
		after := s.Admit(stream(second)) == nil
		return before == after
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdmissionPolicyByPeak(t *testing.T) {
	cfg := smallConfig() // 10 Mbit/s disk
	cfg.Policy = ByPeak
	s := MustServer("s1", cfg)
	// Streams with avg 1 Mbit/s, peak 4 Mbit/s: by-peak charges 4 Mbit/s
	// and fits 2 streams; by-average would fit far more.
	n := qos.NetworkQoS{MaxBitRate: 4 * qos.MBitPerSecond, AvgBitRate: qos.MBitPerSecond}
	admitted := 0
	for i := 0; i < 8; i++ {
		if _, err := s.Reserve(n); err != nil {
			break
		}
		admitted++
	}
	if admitted != 2 {
		t.Errorf("by-peak admitted %d streams, want 2", admitted)
	}

	avg := MustServer("s2", smallConfig())
	admittedAvg := 0
	for i := 0; i < 8; i++ {
		if _, err := avg.Reserve(n); err != nil {
			break
		}
		admittedAvg++
	}
	if admittedAvg <= admitted {
		t.Errorf("by-average admitted %d, by-peak %d: multiplexing gain missing", admittedAvg, admitted)
	}
	if ByPeak.String() != "by-peak" || ByAverage.String() != "by-average" {
		t.Error("policy names")
	}
}
