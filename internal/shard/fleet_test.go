package shard_test

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"qosneg/internal/admission"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/faults"
	"qosneg/internal/network"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/sim"
	"qosneg/internal/telemetry"
	"qosneg/internal/testbed"
)

func stressProfile() profile.UserProfile {
	return profile.UserProfile{
		Name: "tv",
		Desired: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.CDQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
		},
		Worst: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.BlackWhite, FrameRate: 10, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.TelephoneQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
		},
		Importance: profile.DefaultImportance(),
	}
}

// signature flattens one operation's outcome into a comparable string. Byte
// identity of these signatures across two runs is the equivalence the
// shards=1 test demands: same statuses, same session ids, same offers, same
// costs, same errors, in the same order.
func signature(res core.Result, err error) string {
	if err != nil {
		return "err:" + err.Error()
	}
	var id core.SessionID
	var c cost.Money
	if res.Session != nil {
		id = res.Session.ID
		c = res.Session.Cost()
	}
	offer, _ := json.Marshal(res.Offer)
	return fmt.Sprintf("%v|%s|%d|%d|%s", res.Status, res.Reason, id, c, offer)
}

// driveInterleaving runs a deterministic randomized operation sequence
// against a bed and returns the per-operation signatures.
func driveInterleaving(t *testing.T, bed *testbed.Bed, seed int64, ops int) []string {
	t.Helper()
	if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(seed)
	var live []core.SessionID
	var out []string
	record := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	pick := func() (core.SessionID, bool) {
		if len(live) == 0 {
			return 0, false
		}
		return live[rng.Intn(len(live))], true
	}
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1+rng.Intn(2)), "news-1", stressProfile())
			record("negotiate %s", signature(res, err))
			if err == nil && res.Session != nil {
				live = append(live, res.Session.ID)
			}
		case 4:
			if id, ok := pick(); ok {
				record("confirm %d %v", id, bed.Manager.Confirm(id))
			}
		case 5:
			if id, ok := pick(); ok {
				record("reject %d %v", id, bed.Manager.Reject(id))
			}
		case 6:
			if id, ok := pick(); ok {
				record("expire %d %v", id, bed.Manager.Expire(id))
			}
		case 7:
			if id, ok := pick(); ok {
				tr, err := bed.Manager.Adapt(id)
				record("adapt %d %d %v", id, tr.Session, err)
			}
		case 8:
			if id, ok := pick(); ok {
				res, err := bed.Manager.RenegotiateContext(context.Background(), id, stressProfile())
				record("renegotiate %d %s", id, signature(res, err))
			}
		case 9:
			if id, ok := pick(); ok {
				record("abort %d %v", id, bed.Manager.Abort(id))
			}
		}
	}
	for _, id := range live {
		bed.Manager.Abort(id)
	}
	st := bed.Manager.Stats()
	record("stats %+v", st)
	return out
}

// A one-shard fleet must be observably identical to the bare manager it
// replaced as the system's manager surface.
func TestSingleShardEquivalence(t *testing.T) {
	t.Run("interleaving", testSingleShardInterleaving)
	t.Run("shed", testSingleShardShed)
}

// The same randomized interleaving of operations yields byte-identical
// outcomes — statuses, session ids (the shard allocator degenerates to
// 1,2,3,…), offers, costs and final counters. The testbed only builds
// fleets, so the reference side swaps a hand-built core.Manager in.
func testSingleShardInterleaving(t *testing.T) {
	for _, seed := range []int64{1, 42, 1996} {
		plain := testbed.MustNew(testbed.Spec{})
		man := core.NewManager(plain.Registry, plain.Transit, plain.Pricing, core.DefaultOptions())
		for id, srv := range plain.Servers {
			man.AddServer(srv, network.NodeID(id))
		}
		plain.Manager = man
		fleet := testbed.MustNew(testbed.Spec{Shards: 1})
		want := driveInterleaving(t, plain, seed, 120)
		got := driveInterleaving(t, fleet, seed, 120)
		if len(want) != len(got) {
			t.Fatalf("seed %d: %d ops bare vs %d through the fleet", seed, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("seed %d: op %d diverged\n bare: %s\nfleet: %s", seed, i, want[i], got[i])
			}
		}
	}
}

// The router's admission gate is the only one a request crosses. This pins
// it to what the manager-level gate it replaced answered for a saturated
// controller: FAILEDTRYLATER with the Shed flag and the controller's hint,
// booked as one request, one shed and one FAILEDTRYLATER in Stats and in
// the outcome counter — and a shed renegotiation leaves the session
// reserved.
func testSingleShardShed(t *testing.T) {
	ctrl := admission.New(admission.Config{MaxInFlight: 1, MinInFlight: 1})
	reg := telemetry.NewRegistry()
	opts := core.DefaultOptions()
	opts.Metrics = reg
	bed := testbed.MustNew(testbed.Spec{Shards: 1, Options: &opts, Admission: ctrl})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	held, err := bed.Manager.NegotiateContext(ctx, bed.Client(1), "news-1", stressProfile())
	if err != nil || held.Session == nil {
		t.Fatalf("admitted negotiation: %v %v", held.Status, err)
	}
	release, _, ok := ctrl.Admit()
	if !ok {
		t.Fatal("could not pin the controller's only slot")
	}
	defer release()

	shedWant := func(res core.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		want := core.Result{
			Status:     core.FailedTryLater,
			Reason:     "admission control: manager overloaded",
			RetryAfter: ctrl.RetryHint(),
			Shed:       true,
		}
		if !reflect.DeepEqual(res, want) || res.RetryAfter <= 0 {
			t.Fatalf("shed result = %+v, want %+v", res, want)
		}
	}
	shedWant(bed.Manager.NegotiateContext(ctx, bed.Client(1), "news-1", stressProfile()))
	shedWant(bed.Manager.RenegotiateContext(ctx, held.Session.ID, stressProfile()))
	if st := held.Session.State(); st != core.Reserved {
		t.Fatalf("session is %v after a shed renegotiation, want Reserved", st)
	}

	st := bed.Manager.Stats()
	if st.Requests != 3 || st.AdmissionSheds != 2 || st.FailedTryLater != 2 {
		t.Fatalf("stats = requests %d, sheds %d, try-later %d; want 3, 2, 2", st.Requests, st.AdmissionSheds, st.FailedTryLater)
	}
	if got := reg.Snapshot().CounterValue(core.MetricNegotiations, core.FailedTryLater.String()); got != 2 {
		t.Fatalf("%s{status=FAILEDTRYLATER} = %d, want 2", core.MetricNegotiations, got)
	}
	if as := ctrl.Stats(); as.Sheds != 2 {
		t.Fatalf("controller counted %d sheds, want 2: a request must be gated exactly once", as.Sheds)
	}
}

// Catalog mutations on the primary registry must reach every shard before
// it answers: a document added (or removed) after the fleet is built is
// visible (or gone) on whichever shard the next negotiation lands on, and a
// pricing swap reprices offers fleet-wide.
func TestFleetReplication(t *testing.T) {
	bed := testbed.MustNew(testbed.Spec{Shards: 4})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Every placement (round-robin over 4 shards) must see the document.
	for i := 0; i < 8; i++ {
		res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), "news-1", stressProfile())
		if err != nil {
			t.Fatal(err)
		}
		if res.Session == nil {
			t.Fatalf("negotiation %d: no session (status %v, %s)", i, res.Status, res.Reason)
		}
		if err := bed.Manager.Reject(res.Session.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := bed.Registry.Remove("news-1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		// A manager reading the primary registry answers a vanished document
		// with a not-found error; a stale replica would instead still
		// negotiate successfully.
		res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), "news-1", stressProfile())
		if err == nil {
			t.Fatalf("negotiation %d after Remove: shard answered from a stale replica (status %v)", i, res.Status)
		}
	}
	if lag := fleetBusLag(bed); lag != 0 {
		t.Errorf("bus lag %d after routed calls, want 0", lag)
	}
}

func fleetBusLag(bed *testbed.Bed) uint64 {
	var lag uint64
	for _, row := range bed.Fleet.ShardStats() {
		lag += row.BusLag
	}
	return lag
}

// One shard's breaker evidence must exclude the server fleet-wide: a trip
// gathered on the shard that suffered the commit failures propagates over
// the health topic, and after the next routed call every shard reports the
// server quarantined.
func TestCrossShardQuarantinePropagation(t *testing.T) {
	inj := faults.New(7)
	opts := core.DefaultOptions()
	opts.Health = core.HealthPolicy{
		FailureThreshold: 1,
		Cooldown:         time.Hour, // outlasts the test: no shard may time out of it
		RetryAfter:       time.Millisecond,
	}
	bed := testbed.MustNew(testbed.Spec{Shards: 4, Faults: inj, Options: &opts})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	inj.Crash("server-1")
	// Negotiate until some shard's breaker trips on the crashed server. The
	// round-robin placement means the tripping shard is arbitrary — which is
	// the point: the other three only learn of it over the bus.
	tripped := false
	for i := 0; i < 32 && !tripped; i++ {
		res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), "news-1", stressProfile())
		if err != nil {
			t.Fatal(err)
		}
		if res.Session != nil {
			bed.Manager.Reject(res.Session.ID)
		}
		tripped = bed.Manager.Stats().Quarantines > 0
	}
	if !tripped {
		t.Fatal("crashed server never tripped a breaker")
	}
	if _, q := bed.Manager.Quarantined("server-1"); !q {
		t.Fatal("fleet does not report server-1 quarantined after a trip")
	}
	// Quarantined() synced the bus; now every shard must hold the evidence.
	for _, row := range bed.Fleet.ShardStats() {
		found := false
		for _, b := range row.Breakers {
			if b.Server == "server-1" && b.Quarantined {
				found = true
			}
		}
		if !found {
			t.Errorf("shard %d does not report server-1 quarantined (breakers %+v)", row.Shard, row.Breakers)
		}
		if row.BusLag != 0 {
			t.Errorf("shard %d: bus lag %d after sync, want 0", row.Shard, row.BusLag)
		}
	}
	// Propagated evidence must not re-publish: the health log has exactly
	// the locally gathered trips, not an echo per shard.
	quarantines := 0
	for _, row := range bed.Fleet.ShardStats() {
		quarantines += row.Stats.Quarantines
	}
	if st := bed.Manager.Stats(); st.Quarantines != quarantines {
		t.Errorf("aggregate quarantines %d != sum of shard quarantines %d", st.Quarantines, quarantines)
	}
}

// stubPolicy is a minimal forkable, sharing selection policy: every fork
// records the summaries merged into it and shares one summary per observed
// commit, so the test can watch learned state travel the policy topic.
type stubPolicy struct {
	mu       sync.Mutex
	shard    int
	forks    []*stubPolicy
	hook     func([]core.PolicySummary)
	merged   []core.PolicySummary
	observed int
}

func (p *stubPolicy) Name() string                                   { return "stub" }
func (p *stubPolicy) OrderCommits(ties []core.PolicyCandidate) []int { return nil }

func (p *stubPolicy) ForkPolicy(shard int) core.SelectionPolicy {
	f := &stubPolicy{shard: shard}
	p.mu.Lock()
	p.forks = append(p.forks, f)
	p.mu.Unlock()
	return f
}

func (p *stubPolicy) SetShareHook(h func([]core.PolicySummary)) {
	p.mu.Lock()
	p.hook = h
	p.mu.Unlock()
}

func (p *stubPolicy) MergePolicy(sums []core.PolicySummary) {
	p.mu.Lock()
	p.merged = append(p.merged, sums...)
	p.mu.Unlock()
}

func (p *stubPolicy) ObserveCommit(o core.CommitObservation) {
	p.mu.Lock()
	p.observed++
	h := p.hook
	p.mu.Unlock()
	if h != nil {
		h([]core.PolicySummary{{Server: o.Server, Guarantee: o.Guarantee, Successes: 1}})
	}
}

// A forkable selection policy must be split per shard, and every shard's
// shared summaries must reach every sibling — and only siblings: no shard
// merges its own evidence back.
func TestFleetPolicyPropagation(t *testing.T) {
	root := &stubPolicy{}
	opts := core.DefaultOptions()
	opts.Selection = root
	bed := testbed.MustNew(testbed.Spec{Shards: 2, Options: &opts})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(root.forks) != 2 {
		t.Fatalf("forked %d policy instances, want 2", len(root.forks))
	}
	// Round-robin placement lands commits on both shards; each commit's
	// observation is shared immediately by the stub.
	for i := 0; i < 6; i++ {
		res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), "news-1", stressProfile())
		if err != nil {
			t.Fatal(err)
		}
		if res.Session != nil {
			bed.Manager.Reject(res.Session.ID)
		}
	}
	bed.Fleet.Sync()
	for _, f := range root.forks {
		f.mu.Lock()
		observed, merged := f.observed, append([]core.PolicySummary(nil), f.merged...)
		f.mu.Unlock()
		if observed == 0 {
			t.Errorf("shard %d policy observed no commits", f.shard)
		}
		if len(merged) == 0 {
			t.Errorf("shard %d policy merged no sibling summaries", f.shard)
		}
		for _, s := range merged {
			if s.Successes != 1 || s.Server == "" {
				t.Errorf("shard %d merged malformed summary %+v", f.shard, s)
			}
		}
	}
	// Conservation: everything merged was observed by the sibling — with no
	// self-echo, each shard merges exactly what the other observed.
	if got, want := len(root.forks[0].merged), root.forks[1].observed; got != want {
		t.Errorf("shard 0 merged %d summaries, sibling observed %d", got, want)
	}
	if got, want := len(root.forks[1].merged), root.forks[0].observed; got != want {
		t.Errorf("shard 1 merged %d summaries, sibling observed %d", got, want)
	}
	// A single-shard fleet has no sibling to teach: the share hook must not
	// be installed at all.
	solo := &stubPolicy{}
	soloOpts := core.DefaultOptions()
	soloOpts.Selection = solo
	testbed.MustNew(testbed.Spec{Shards: 1, Options: &soloOpts})
	if len(solo.forks) != 1 {
		t.Fatalf("single-shard fleet forked %d instances, want 1", len(solo.forks))
	}
	if solo.forks[0].hook != nil {
		t.Error("single-shard fleet installed a policy share hook; there is no sibling to teach")
	}
}

// TestShardLifecycleStress is the PR 4 lifecycle-stress harness pointed at a
// sharded fleet: concurrent workers drive the full session lifecycle with
// fault injection across 1-, 2- and 4-shard fleets, then the world heals,
// every session is wound down, and the invariant is checked per-shard (no
// live sessions anywhere) and fleet-wide (the shared resource ledger
// balances to zero).
func TestShardLifecycleStress(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			runShardStress(t, shards, 1996+int64(shards))
		})
	}
}

func runShardStress(t *testing.T, shards int, seed int64) {
	inj := faults.New(seed)
	opts := core.DefaultOptions()
	opts.Health = core.HealthPolicy{
		FailureThreshold: 6,
		Cooldown:         200 * time.Microsecond,
		RetryAfter:       50 * time.Microsecond,
	}
	bed := testbed.MustNew(testbed.Spec{Shards: shards, Faults: inj, Options: &opts})
	bed.Ledger.OnViolation(func(v string) {
		t.Errorf("shards=%d: %s", shards, v)
	})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var live []core.SessionID
	addLive := func(id core.SessionID) {
		mu.Lock()
		live = append(live, id)
		mu.Unlock()
	}
	pickLive := func(r *sim.Rand) (core.SessionID, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(live) == 0 {
			return 0, false
		}
		return live[r.Intn(len(live))], true
	}

	iters := 250
	if testing.Short() {
		iters = 60
	}
	serverIDs := bed.ServerIDs()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		rng := sim.NewRand(seed + int64(w)*7919)
		wg.Add(1)
		go func(rng *sim.Rand) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch rng.Intn(12) {
				case 0, 1, 2, 3:
					res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1+rng.Intn(2)), "news-1", stressProfile())
					if err != nil {
						t.Errorf("shards=%d: Negotiate: %v", shards, err)
						return
					}
					if res.Session != nil {
						addLive(res.Session.ID)
					}
				case 4, 5:
					if id, ok := pickLive(rng); ok {
						bed.Manager.Confirm(id)
					}
				case 6:
					if id, ok := pickLive(rng); ok {
						bed.Manager.Reject(id)
					}
				case 7:
					if id, ok := pickLive(rng); ok {
						bed.Manager.Expire(id)
					}
				case 8:
					if id, ok := pickLive(rng); ok {
						bed.Manager.Adapt(id)
					}
				case 9:
					if id, ok := pickLive(rng); ok {
						bed.Manager.RenegotiateContext(context.Background(), id, stressProfile())
					}
				case 10:
					if id, ok := pickLive(rng); ok {
						bed.Manager.Abort(id)
					}
				case 11: // fault weather
					id := serverIDs[rng.Intn(len(serverIDs))]
					s, ok := inj.Server(id)
					if !ok {
						continue
					}
					switch rng.Intn(3) {
					case 0:
						s.Crash()
					case 1:
						s.Restart()
					default:
						inj.SetReserveFailure(float64(rng.Intn(2)) * 0.2)
					}
				}
			}
		}(rng)
	}
	wg.Wait()

	// Heal and wind down.
	inj.SetReserveFailure(0)
	for _, id := range serverIDs {
		inj.Restart(id)
	}
	mu.Lock()
	ids := append([]core.SessionID(nil), live...)
	mu.Unlock()
	for _, id := range ids {
		bed.Manager.Abort(id)
	}
	for _, state := range []core.SessionState{core.Reserved, core.Playing} {
		if ss := bed.Manager.Sessions(state); len(ss) != 0 {
			t.Fatalf("shards=%d: %d sessions still %v after wind-down", shards, len(ss), state)
		}
	}
	// Per-shard: no shard's live table may hold a session the aggregate
	// missed, and what the shards remember of retired sessions fits their
	// tombstone rings.
	for _, row := range bed.Fleet.ShardStats() {
		if row.Sessions != 0 {
			t.Errorf("shards=%d: shard %d still holds %d live sessions", shards, row.Shard, row.Sessions)
		}
	}
	if n := len(bed.Manager.Sessions(core.Completed)) + len(bed.Manager.Sessions(core.Aborted)); n > shards*core.TombstoneRing {
		t.Errorf("shards=%d: %d retired sessions remembered, rings hold %d", shards, n, shards*core.TombstoneRing)
	}
	// Fleet-wide: the shared ledger balances to zero.
	if err := bed.Ledger.CheckEmpty(); err != nil {
		t.Errorf("shards=%d: %v", shards, err)
	}
	if got := bed.Network.ActiveReservations(); got != 0 {
		t.Errorf("shards=%d: %d network reservations leaked", shards, got)
	}
	for id, srv := range bed.Servers {
		if srv.ActiveStreams() != 0 {
			t.Errorf("shards=%d: server %s leaked %d streams", shards, id, srv.ActiveStreams())
		}
	}
	// The aggregate is the sum of its parts: cross-check Stats roll-up.
	var sum core.Stats
	rows := bed.Fleet.ShardStats()
	agg := bed.Manager.Stats()
	for _, row := range rows {
		sum.Requests += row.Stats.Requests
		sum.Succeeded += row.Stats.Succeeded
	}
	if sum.Requests != agg.Requests || sum.Succeeded != agg.Succeeded {
		t.Errorf("shards=%d: shard stats sum {req %d, ok %d} != aggregate {req %d, ok %d}",
			shards, sum.Requests, sum.Succeeded, agg.Requests, agg.Succeeded)
	}
	if !reflect.DeepEqual(bed.Manager.Stats(), agg) {
		t.Errorf("shards=%d: Stats not stable across calls at quiescence", shards)
	}
}
