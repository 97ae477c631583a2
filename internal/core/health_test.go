package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"qosneg/internal/clock"
	"qosneg/internal/cmfs"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/qos"
	"qosneg/internal/sim"
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
	plans    int
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
	return s.plans
}

// Plan counts every step-5 attempt on the server and answers down while it
// is; injected admission failures act on Reserve only.
func (s *flakyServer) Plan(q qos.NetworkQoS, p cmfs.Plan) (cmfs.Plan, error) {
	s.mu.Lock()
	s.plans++
	down := s.down
	s.mu.Unlock()
	if down {
		return p, fmt.Errorf("%w: %s is crashed", ErrServerDown, s.ID())
	}
	return s.MediaServer.Plan(q, p)
}

func (s *flakyServer) Reserve(q qos.NetworkQoS) (cmfs.Reservation, error) {
	s.mu.Lock()
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
		t.Errorf("dead server commit attempts = %d; want exactly 1", got)
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
		t.Errorf("quarantined server attempted again: %d attempts", got)
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
	eng := sim.NewEngine()
	b.man.clk = clock.Sim(eng)

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
	eng.Run(eng.Now() + 2*time.Minute)
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

// A server's outcomes are kept per guarantee, and a guarantee value the
// pricing does not know, which a client can send, counts as best effort.
func TestOutcomesPerGuarantee(t *testing.T) {
	b := defaultBed(t)
	gen := b.man.serverHealthGen("server-1")
	b.man.recordServerSuccess("server-1", cost.Guaranteed, gen)
	b.man.recordServerSuccess("server-1", cost.Guarantee(7), gen)
	b.man.recordCommitFailure(commitFailure{cause: CauseCapacity, kind: refusedReserve, server: "server-1"}, cost.BestEffort)
	best, guaranteed := b.man.servers.policyInfo("server-1", cost.BestEffort), b.man.servers.policyInfo("server-1", cost.Guaranteed)
	if best.Successes != 0.98 || best.Failures != 1 {
		t.Errorf("best effort = %v/%v, want 0.98/1", best.Successes, best.Failures)
	}
	if guaranteed.Successes != 1 || guaranteed.Failures != 0 {
		t.Errorf("guaranteed = %v/%v, want 1/0", guaranteed.Successes, guaranteed.Failures)
	}
}

// TestBreakerGaugesMatchTable races breaker trips against successes on two
// servers from several goroutines, round after round, and at each round's
// quiescence holds the per-server series to the server table: each
// server's consecutive-failure gauge and its down, reserve and connect
// failure counters equal its ServerLoads counts, its quarantine gauge is
// non-zero exactly when ServerLoads reports it quarantined, and its CMFS
// utilization gauge is its ServerLoads utilization in per mille.
func TestBreakerGaugesMatchTable(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := metricsBed(t, reg, nil)
	b.man.opts.Health = HealthPolicy{FailureThreshold: 2, Cooldown: time.Hour}
	for _, s := range b.servers {
		s.Instrument(reg)
	}
	// A playing session holds streams, so utilization reads above zero.
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil || res.Session == nil {
		t.Fatalf("negotiate: %v (%v)", err, res.Status)
	}
	if err := b.man.Confirm(res.Session.ID); err != nil {
		t.Fatal(err)
	}
	ids := []media.ServerID{"server-1", "server-2"}
	// Each failure kind feeds a different per-cause counter.
	failures := []commitFailure{
		{cause: CauseCapacity, kind: refusedReserve},
		{cause: CauseCapacity, kind: refusedConnect},
		{cause: CauseServerDown, kind: refusedUnregistered},
	}
	for round := 0; round < 200; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					id := ids[i%len(ids)]
					if (w+round)%2 == 0 {
						f := failures[(w+i+round)%len(failures)]
						f.server = id
						b.man.recordCommitFailure(f, cost.BestEffort)
					} else {
						b.man.recordServerSuccess(id, cost.BestEffort, b.man.serverHealthGen(id))
					}
				}
			}(w)
		}
		wg.Wait()
		snap := reg.Snapshot()
		series := map[string]int64{}
		for _, g := range snap.Gauges {
			series[g.Name+"/"+g.Labels["server"]] = g.Value
		}
		for _, c := range snap.Counters {
			series[c.Name+"/"+c.Labels["server"]] = int64(c.Value)
		}
		for _, row := range b.man.ServerLoads() {
			for _, m := range []struct {
				name string
				want int64
			}{
				{MetricConsecutive, int64(row.ConsecutiveFailures)},
				{MetricDownFailures, int64(row.DownFailures)},
				{MetricReserveFailures, int64(row.ReserveFailures)},
				{MetricConnectFailures, int64(row.ConnectFailures)},
				{cmfs.MetricUtilization, int64(math.Round(1000 * row.Utilization))},
			} {
				if got := series[m.name+"/"+string(row.ID)]; got != m.want {
					t.Fatalf("round %d: %s{server=%s} = %d, ServerLoads reads %d", round, m.name, row.ID, got, m.want)
				}
			}
			if got := series[MetricQuarantined+"/"+string(row.ID)]; (got != 0) != row.Quarantined {
				t.Fatalf("round %d: %s{server=%s} = %d, ServerLoads reads quarantined=%v", round, MetricQuarantined, row.ID, got, row.Quarantined)
			}
		}
	}
	if util := b.man.ServerLoads(); util[0].Utilization+util[1].Utilization == 0 {
		t.Fatal("no server holds streams: the utilization gauge was checked at zero only")
	}
}

// TestExclusionAfterExpiryAndRequarantine follows one server through a
// quarantine, its silent expiry, a second quarantine over the expired
// deadline and the success that clears it. exclusion must name exactly the
// quarantined server at each step, and the table's count of deadlines on
// record must match its records throughout, so that the early return taken
// at a count of 0 is never taken while a quarantine holds.
func TestExclusionAfterExpiryAndRequarantine(t *testing.T) {
	b := defaultBed(t)
	b.man.opts.Health = HealthPolicy{FailureThreshold: 2, Cooldown: time.Minute}
	eng := sim.NewEngine()
	b.man.clk = clock.Sim(eng)
	const id = media.ServerID("server-2")
	excluded := func(step string, want bool) {
		t.Helper()
		tab := b.man.servers
		tab.mu.RLock()
		onRecord := 0
		for _, rec := range tab.servers {
			if !rec.quarantinedUntil.IsZero() {
				onRecord++
			}
		}
		count := tab.quarantined
		tab.mu.RUnlock()
		if count != onRecord {
			t.Fatalf("%s: the table counts %d quarantine deadlines, its records hold %d", step, count, onRecord)
		}
		exclude, _, hash := tab.exclusion(b.man.clk)
		got := exclude != nil && exclude(media.Variant{Server: id})
		if got != want || (hash != 0) != want {
			t.Fatalf("%s: %s excluded %v (hash %#x), want %v", step, id, got, hash, want)
		}
	}
	trip := func() {
		b.man.recordCommitFailure(commitFailure{cause: CauseServerDown, kind: refusedReserve, server: id, err: ErrServerDown}, cost.BestEffort)
	}

	excluded("before any failure", false)
	trip()
	excluded("quarantined", true)
	eng.Run(eng.Now() + 2*time.Minute)
	excluded("expired", false)
	trip()
	excluded("quarantined again over the expired deadline", true)
	b.man.recordServerSuccess(id, cost.BestEffort, b.man.serverHealthGen(id))
	excluded("cleared by a success", false)
	b.man.recordServerSuccess(id, cost.BestEffort, b.man.serverHealthGen(id))
	excluded("a second success", false)
	trip()
	excluded("quarantined after the clear", true)
}
