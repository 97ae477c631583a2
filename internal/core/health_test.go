package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"qosneg/internal/cmfs"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/qos"
	"qosneg/internal/telemetry"
)

// flakyServer wraps a real CMFS server with switchable failure modes so the
// breaker can be exercised without importing the faults package (which would
// cycle: faults imports core).
type flakyServer struct {
	MediaServer
	mu       sync.Mutex
	down     bool
	failNext int // <0: fail every Reserve; >0: fail that many
	reserves int
}

func (s *flakyServer) setDown(d bool) {
	s.mu.Lock()
	s.down = d
	s.mu.Unlock()
}

func (s *flakyServer) failReserves(n int) {
	s.mu.Lock()
	s.failNext = n
	s.mu.Unlock()
}

func (s *flakyServer) attempts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reserves
}

func (s *flakyServer) Reserve(q qos.NetworkQoS) (cmfs.Reservation, error) {
	s.mu.Lock()
	s.reserves++
	if s.down {
		s.mu.Unlock()
		return cmfs.Reservation{}, fmt.Errorf("%w: %s is crashed", ErrServerDown, s.ID())
	}
	if s.failNext != 0 {
		if s.failNext > 0 {
			s.failNext--
		}
		s.mu.Unlock()
		return cmfs.Reservation{}, fmt.Errorf("injected admission failure on %s", s.ID())
	}
	s.mu.Unlock()
	return s.MediaServer.Reserve(q)
}

// flakify re-registers every bed server behind a flakyServer wrapper.
func flakify(b *bed) map[media.ServerID]*flakyServer {
	out := map[media.ServerID]*flakyServer{}
	for id, s := range b.servers {
		fs := &flakyServer{MediaServer: s}
		b.man.AddServer(fs, network.NodeID(id))
		out[id] = fs
	}
	return out
}

func serverLoad(t *testing.T, m *Manager, id media.ServerID) ServerLoad {
	t.Helper()
	for _, row := range m.ServerLoads() {
		if row.ID == id {
			return row
		}
	}
	t.Fatalf("no ServerLoads row for %s", id)
	return ServerLoad{}
}

// TestFailoverSkipsDeadServer is the headline robustness scenario: with one
// of the two replica servers dead, negotiation still succeeds through the
// survivor, and the dead server is attempted exactly once — further offers
// touching it are skipped within the run and excluded from classification
// (quarantine) on the next run.
func TestFailoverSkipsDeadServer(t *testing.T) {
	b := defaultBed(t)
	flaky := flakify(b)
	ring := telemetry.NewRing(256)
	b.man.opts.Tracer = ring
	flaky["server-1"].setDown(true)

	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Status.Reserved() {
		t.Fatalf("status = %v (%s); want failover onto server-2", res.Status, res.Reason)
	}
	for _, ch := range res.Session.Current.Choices {
		if ch.Variant.Server == "server-1" {
			t.Errorf("committed %s on the dead server", ch.Variant.ID)
		}
	}
	if got := flaky["server-1"].attempts(); got != 1 {
		t.Errorf("dead server reserve attempts = %d; want exactly 1", got)
	}
	// One commit-failed event names the cause and the server; later offers
	// on it are skipped, each skip naming the same server.
	if got := countDecisions(ring, telemetry.StepCommitment, CauseServerDown.String()); got != 1 {
		t.Errorf("%d server-down commit-failed events; want exactly 1", got)
	}
	skips := 0
	for _, e := range decisions(ring) {
		if e.Step == telemetry.StepSkipDead {
			skips++
			if e.Server != "server-1" || e.Offer == "" {
				t.Errorf("skip-dead event = %+v, want it to name server-1 and the offer", e)
			}
		}
	}
	if skips == 0 {
		t.Error("no skip-dead event: later offers on the dead server were not short-circuited")
	}

	row := serverLoad(t, b.man, "server-1")
	if !row.Quarantined || row.DownFailures != 1 {
		t.Errorf("server-1 load = %+v; want quarantined with one down failure", row)
	}
	if _, ok := b.man.Quarantined("server-1"); !ok {
		t.Error("Quarantined(server-1) = false after hard down evidence")
	}
	if row2 := serverLoad(t, b.man, "server-2"); row2.Quarantined || row2.ConsecutiveFailures != 0 {
		t.Errorf("healthy server-2 load = %+v", row2)
	}

	// Second run: the quarantine filters server-1's variants out of
	// classification, so the dead server is not even attempted.
	res2, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Status.Reserved() {
		t.Fatalf("second negotiation: %v (%s)", res2.Status, res2.Reason)
	}
	if got := flaky["server-1"].attempts(); got != 1 {
		t.Errorf("quarantined server attempted again: %d reserves", got)
	}

	if st := b.man.Stats(); st.CommitServerDown == 0 || st.Quarantines == 0 {
		t.Errorf("stats = %+v; want server-down and quarantine counters", st)
	}
}

// TestShortageCarriesRetryAfter: genuine resource shortage yields
// FAILEDTRYLATER with a non-zero retry hint, not FAILEDWITHOUTOFFER.
func TestShortageCarriesRetryAfter(t *testing.T) {
	cfg := cmfs.Config{
		DiskRate:    64 * qos.KBitPerSecond,
		SeekTime:    time.Millisecond,
		RoundLength: time.Second,
		MaxStreams:  1,
	}
	b := newBed(t, cfg, 0)
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != FailedTryLater {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	if res.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v; shortage must carry a retry hint", res.RetryAfter)
	}
	if st := b.man.Stats(); st.CommitCapacity == 0 {
		t.Errorf("stats = %+v; admission failures must count as capacity", st)
	}
}

// TestSuccessCarriesNoRetryAfter: the hint is reserved for FAILEDTRYLATER.
func TestSuccessCarriesNoRetryAfter(t *testing.T) {
	b := defaultBed(t)
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Succeeded || res.RetryAfter != 0 {
		t.Errorf("status %v RetryAfter %v; want Succeeded with zero hint", res.Status, res.RetryAfter)
	}
}

// TestCapacityBreakerTripsAndHeals drives the consecutive-failure breaker:
// persistent admission failures quarantine the servers, quarantined servers
// starve classification into FAILEDTRYLATER, and after the cooldown (plus a
// successful commit) the breaker state is cleared.
func TestCapacityBreakerTripsAndHeals(t *testing.T) {
	b := defaultBed(t)
	flaky := flakify(b)
	b.man.opts.Health = HealthPolicy{FailureThreshold: 2, Cooldown: time.Minute}
	clock := time.Now()
	b.man.now = func() time.Time { return clock }

	for _, fs := range flaky {
		fs.failReserves(-1)
	}
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != FailedTryLater {
		t.Fatalf("status = %v (%s); admission failures are transient", res.Status, res.Reason)
	}
	if res.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v", res.RetryAfter)
	}
	st := b.man.Stats()
	if st.Quarantines == 0 || st.CommitCapacity < 2 {
		t.Fatalf("stats = %+v; breaker did not trip", st)
	}
	tripped := 0
	for id := range flaky {
		if _, ok := b.man.Quarantined(id); ok {
			tripped++
		}
	}
	if tripped == 0 {
		t.Fatal("no server quarantined after persistent admission failures")
	}

	// Heal the servers; while the quarantine holds, classification is
	// starved if everything is excluded, or commits around the exclusions.
	for _, fs := range flaky {
		fs.failReserves(0)
	}
	if tripped == len(flaky) {
		res2, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
		if err != nil {
			t.Fatal(err)
		}
		if res2.Status != FailedTryLater || res2.RetryAfter <= 0 {
			t.Fatalf("all-quarantined negotiation = %v, RetryAfter %v", res2.Status, res2.RetryAfter)
		}
	}

	// Past the cooldown the quarantine lapses and negotiation succeeds;
	// the successful commit resets the breaker counters.
	clock = clock.Add(2 * time.Minute)
	res3, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !res3.Status.Reserved() {
		t.Fatalf("post-cooldown negotiation = %v (%s)", res3.Status, res3.Reason)
	}
	for _, ch := range res3.Session.Current.Choices {
		row := serverLoad(t, b.man, ch.Variant.Server)
		if row.Quarantined || row.ConsecutiveFailures != 0 {
			t.Errorf("server %s not healed after successful commit: %+v", ch.Variant.Server, row)
		}
	}
}

// TestZeroHealthPolicyDisablesBreaker: the zero value must keep legacy
// behaviour — capacity failures alone never quarantine.
func TestZeroHealthPolicyDisablesBreaker(t *testing.T) {
	b := defaultBed(t)
	flaky := flakify(b)
	for _, fs := range flaky {
		fs.failReserves(-1)
	}
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != FailedTryLater {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	for id := range flaky {
		if _, ok := b.man.Quarantined(id); ok {
			t.Errorf("server %s quarantined with a zero HealthPolicy", id)
		}
	}
	if st := b.man.Stats(); st.Quarantines != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFailureCauseString(t *testing.T) {
	want := map[FailureCause]string{
		CauseNone:       "none",
		CauseServerDown: "server-down",
		CauseCapacity:   "capacity",
		CauseConstraint: "constraint",
		CauseCanceled:   "canceled",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q; want %q", int(c), c.String(), s)
		}
	}
	if got := FailureCause(99).String(); got != "FailureCause(99)" {
		t.Errorf("out-of-range cause = %q", got)
	}
}
