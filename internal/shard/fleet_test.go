package shard_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"qosneg/internal/admission"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/faults"
	"qosneg/internal/media"
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

// Every shard reads the one registry and holds the tariff the fleet last
// installed: a document added (or removed) after the fleet is built is
// visible (or gone) on whichever shard the next negotiation lands on, and
// after Fleet.SetPricing a negotiation on each shard is priced under the
// new tariff, even though every shard's offer cache is warm.
func TestFleetSharedState(t *testing.T) {
	const shards = 4
	bed := testbed.MustNew(testbed.Spec{Shards: shards})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	negotiateCost := func(b *testbed.Bed) cost.Money {
		t.Helper()
		res, err := b.Manager.NegotiateContext(context.Background(), b.Client(1), "news-1", stressProfile())
		if err != nil {
			t.Fatal(err)
		}
		if res.Session == nil {
			t.Fatalf("no session (status %v, %s)", res.Status, res.Reason)
		}
		c := res.Session.Cost()
		if err := b.Manager.Reject(res.Session.ID); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Two rounds of round-robin placement: every shard sees the document,
	// and the second round answers from warm caches.
	var old cost.Money
	for i := 0; i < 2*shards; i++ {
		old = negotiateCost(bed)
	}

	// A free server tariff: the reference is a fresh one-shard system
	// built with it from the start.
	tariff := cost.DefaultPricing()
	tariff.Server = cost.MustTable(cost.Class{MinRate: 0, Price: 0})
	ref := testbed.MustNew(testbed.Spec{Pricing: &tariff})
	if _, err := ref.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	want := negotiateCost(ref)
	if want == old {
		t.Fatalf("test tariff does not change the price (%v)", want)
	}
	bed.Fleet.SetPricing(tariff)
	for i := 0; i < shards; i++ {
		if got := negotiateCost(bed); got != want {
			t.Errorf("negotiation %d after SetPricing cost %v, want %v (old tariff %v)", i, got, want, old)
		}
	}
	for _, row := range bed.Fleet.ShardStats() {
		if row.Stats.Requests != 3 {
			t.Errorf("shard %d answered %d requests, want 3", row.Shard, row.Stats.Requests)
		}
	}

	if err := bed.Registry.Remove("news-1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		// The document is gone for every shard: each answers not-found
		// rather than negotiating from a cached candidate set.
		res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), "news-1", stressProfile())
		if err == nil {
			t.Fatalf("negotiation %d after Remove: status %v, want a not-found error", i, res.Status)
		}
	}
}

// quarantinedOn reports, per shard, whether the shard holds the server
// quarantined.
func quarantinedOn(bed *testbed.Bed, server media.ServerID) []bool {
	out := make([]bool, bed.Fleet.Shards())
	for i := range out {
		_, out[i] = bed.Fleet.Shard(i).Quarantined(server)
	}
	return out
}

// serverLoad returns the fleet's ServerLoads row for one server.
func serverLoad(t *testing.T, bed *testbed.Bed, id media.ServerID) core.ServerLoad {
	t.Helper()
	for _, row := range bed.Manager.ServerLoads() {
		if row.ID == id {
			return row
		}
	}
	t.Fatalf("ServerLoads has no row for %s", id)
	return core.ServerLoad{}
}

// One shard's breaker evidence must exclude the server fleet-wide: by the
// time the negotiation whose commit tripped the breaker returns, every
// shard reports the server quarantined. The shards share one breaker, so
// the trip is one fact: Stats, the quarantine counter and ServerLoads each
// count it once, and the consecutive-failures gauge agrees with
// ServerLoads.
func TestCrossShardQuarantinePropagation(t *testing.T) {
	inj := faults.New(7)
	reg := telemetry.NewRegistry()
	opts := core.DefaultOptions()
	opts.Metrics = reg
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
	// round-robin placement means the tripping shard is arbitrary.
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
	for idx, q := range quarantinedOn(bed, "server-1") {
		if !q {
			t.Errorf("shard %d does not report server-1 quarantined", idx)
		}
	}
	if _, q := bed.Manager.Quarantined("server-1"); !q {
		t.Fatal("fleet does not report server-1 quarantined after a trip")
	}
	// Per-shard counters are what each shard's commits tripped, and the
	// aggregate is their sum.
	quarantines := 0
	for _, row := range bed.Fleet.ShardStats() {
		quarantines += row.Stats.Quarantines
	}
	if st := bed.Manager.Stats(); st.Quarantines != quarantines {
		t.Errorf("aggregate quarantines %d != sum of shard quarantines %d", st.Quarantines, quarantines)
	}

	// One trip reads as one everywhere.
	if got := bed.Manager.Stats().Quarantines; got != 1 {
		t.Errorf("Stats().Quarantines = %d, want 1 (one trip)", got)
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue(core.MetricQuarantines, ""); got != 1 {
		t.Errorf("%s = %d, want 1 (one trip)", core.MetricQuarantines, got)
	}
	row := serverLoad(t, bed, "server-1")
	if row.Quarantines != 1 {
		t.Errorf("ServerLoads server-1 quarantines = %d, want 1 (one trip)", row.Quarantines)
	}
	gauge, found := int64(0), false
	for _, g := range snap.Gauges {
		if g.Name == core.MetricConsecutive && g.Labels["server"] == "server-1" {
			gauge, found = g.Value, true
		}
	}
	if !found || gauge != int64(row.ConsecutiveFailures) {
		t.Errorf("%s{server=server-1} = %d (found %v), ServerLoads reads %d", core.MetricConsecutive, gauge, found, row.ConsecutiveFailures)
	}
}

// errClass names an operation's error by its sentinel: the texts carry
// session ids, which differ between fleets of different sizes.
func errClass(err error) string {
	for _, e := range []error{core.ErrBadState, core.ErrChoicePeriodExpired, core.ErrUnknownSession} {
		if errors.Is(err, e) {
			return e.Error()
		}
	}
	if err != nil {
		return "error"
	}
	return "ok"
}

// breakerScript drives one seeded sequential script through a fleet of the
// given size under DefaultHealthPolicy: negotiations, confirms, rejects and
// completions mixed with fault weather (crash and restart, reserve-failure
// rates, server degradation). It returns what the script observed: every
// operation's outcome and chosen offer, then the fleet's outcome, commit
// and quarantine counters and its ServerLoads. Offer-cache counters are
// left out, since each shard keeps its own cache, and so is the remaining
// quarantine time, which reads the wall clock. The counters are returned
// too.
func breakerScript(t *testing.T, shards int, seed int64, ops int) ([]string, core.Stats) {
	t.Helper()
	inj := faults.New(seed)
	opts := core.DefaultOptions()
	opts.Health = core.DefaultHealthPolicy()
	bed := testbed.MustNew(testbed.Spec{Shards: shards, Servers: 4, Faults: inj, Options: &opts})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(seed)
	ids := bed.ServerIDs()
	var live []core.SessionID
	var out []string
	record := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	// settle runs a session operation on a random live session and drops
	// the session from the script once it ended.
	settle := func(op string, do func(core.SessionID) error) {
		if len(live) == 0 {
			return
		}
		i := rng.Intn(len(live))
		err := do(live[i])
		record("%s %d %s", op, i, errClass(err))
		if err == nil && op != "confirm" {
			live = append(live[:i], live[i+1:]...)
		}
	}
	for n := 0; n < ops; n++ {
		switch rng.Intn(14) {
		case 0, 1, 2, 3, 4, 5:
			res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1+rng.Intn(2)), "news-1", stressProfile())
			if err != nil {
				t.Fatal(err)
			}
			key := ""
			if res.Session != nil {
				key = res.Session.CurrentOffer().Key()
				live = append(live, res.Session.ID)
			}
			record("negotiate %v %q %s", res.Status, res.Reason, key)
		case 6, 7:
			settle("confirm", bed.Manager.Confirm)
		case 8:
			settle("reject", bed.Manager.Reject)
		case 9, 10, 11:
			settle("complete", bed.Manager.Complete)
		default:
			id := ids[rng.Intn(len(ids))]
			switch rng.Intn(8) {
			case 0:
				inj.Crash(id)
				record("crash %s", id)
			case 1, 2:
				inj.Restart(id)
				record("restart %s", id)
			case 3, 4:
				p := float64(rng.Intn(3)) * 0.15
				inj.SetReserveFailure(p)
				record("reserve-failure %g", p)
			default:
				d := float64(rng.Intn(3)) * 0.4
				if err := bed.Servers[id].SetDegradation(d); err != nil {
					t.Fatal(err)
				}
				record("degrade %s %g", id, d)
			}
		}
	}
	for _, id := range live {
		bed.Manager.Abort(id)
	}
	if err := bed.Ledger.CheckEmpty(); err != nil {
		t.Errorf("shards=%d seed %d: %v", shards, seed, err)
	}
	st := bed.Manager.Stats()
	st.OfferCacheHits, st.OfferCacheMisses, st.OfferCacheInvalidations, st.OfferCacheEntries = 0, 0, 0, 0
	record("stats %+v", st)
	for _, row := range bed.Manager.ServerLoads() {
		row.QuarantineMs = 0
		record("load %+v", row)
	}
	return out, st
}

// A fleet's breaker equals one shard's: the shards share one server table,
// so the same script drives the same trips, resets and commitments on a
// 1-shard and a 4-shard fleet. The 30 s default cooldown outlasts a script,
// so many short scripts cover more breaker transitions than one long one.
// Run under -race.
func TestFleetBreakerMatchesOneShard(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		one, st := breakerScript(t, 1, seed, 90)
		four, _ := breakerScript(t, 4, seed, 90)
		for i := 0; i < len(one) && i < len(four); i++ {
			if one[i] != four[i] {
				t.Fatalf("seed %d: observation %d diverged\n one shard: %s\nfour shards: %s", seed, i, one[i], four[i])
			}
		}
		if len(one) != len(four) {
			t.Fatalf("seed %d: %d observations on one shard vs %d on four", seed, len(one), len(four))
		}
		if st.Succeeded == 0 || st.Quarantines == 0 {
			t.Errorf("seed %d: the script must both commit and trip the breaker: %+v", seed, st)
		}
	}
}

// Two shards trip the shared breaker on two different servers at the same
// time. Both shards must end with both servers quarantined, neither
// negotiation may hang, and the ledger must end empty. Run under -race.
func TestConcurrentCrossShardTrips(t *testing.T) {
	servers := []media.ServerID{"server-1", "server-2"}
	for round := 0; round < 20; round++ {
		inj := faults.New(int64(round))
		opts := core.DefaultOptions()
		opts.Health = core.HealthPolicy{FailureThreshold: 1, Cooldown: time.Hour, RetryAfter: time.Millisecond}
		bed := testbed.MustNew(testbed.Spec{Shards: 2, Servers: 2, Faults: inj, Options: &opts})
		for i, sid := range servers {
			// Document i lives on server i alone, so the shard negotiating it
			// can only trip that server's breaker.
			doc := media.BuildNewsArticle(media.NewsArticleSpec{
				ID:             media.DocumentID(fmt.Sprintf("doc-%d", i)),
				Title:          "Single-server article",
				Duration:       time.Minute,
				Servers:        []media.ServerID{sid},
				VideoQualities: []qos.VideoQoS{{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}},
				AudioQualities: []qos.AudioQoS{{Grade: qos.CDQuality, Language: qos.English}},
				Languages:      []qos.Language{qos.English},
			})
			if err := bed.Registry.Add(doc); err != nil {
				t.Fatal(err)
			}
			inj.Crash(sid)
		}
		start := make(chan struct{})
		done := make(chan struct{})
		var wg sync.WaitGroup
		for i := range servers {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				doc := media.DocumentID(fmt.Sprintf("doc-%d", i))
				if _, err := bed.Fleet.Shard(i).NegotiateContext(context.Background(), bed.Client(1), doc, stressProfile()); err != nil {
					t.Errorf("shard %d: %v", i, err)
				}
			}(i)
		}
		go func() { wg.Wait(); close(done) }()
		close(start)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: concurrent trips did not finish (deadlock?)", round)
		}
		for _, sid := range servers {
			for idx, q := range quarantinedOn(bed, sid) {
				if !q {
					t.Errorf("round %d: shard %d does not hold %s quarantined", round, idx, sid)
				}
			}
		}
		if err := bed.Ledger.CheckEmpty(); err != nil {
			t.Errorf("round %d: %v", round, err)
		}
	}
}

// recordingOrder keeps the classical order and records the outcomes each
// tie run carries, one row per distinct server, and the most successes any
// row carried.
type recordingOrder struct {
	mu        sync.Mutex
	seen      []string
	successes float64
}

func (p *recordingOrder) Order(ties []core.PolicyCandidate) []int {
	var rows []string
	var successes float64
	for _, c := range ties {
		for _, sv := range c.Servers {
			row := fmt.Sprintf("%s %v/%v", sv.ID, sv.Successes, sv.Failures)
			if !slices.Contains(rows, row) {
				rows = append(rows, row)
			}
			successes = max(successes, sv.Successes)
		}
	}
	slices.Sort(rows)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seen = append(p.seen, strings.Join(rows, ", "))
	p.successes = max(p.successes, successes)
	return nil
}

// Every shard posts its commit outcomes to the one server table, and the
// one installed policy reads them from it: whichever shard a negotiation
// lands on, the rows its tie runs carry hold the outcomes of every
// negotiation before it, on either shard. So round-robin placement over two
// shards shows the policy exactly the rows one shard does.
func TestFleetPolicyPropagation(t *testing.T) {
	run := func(shards int) []string {
		pol := &recordingOrder{}
		opts := core.DefaultOptions()
		opts.Policy = pol
		bed := testbed.MustNew(testbed.Spec{Shards: shards, Options: &opts})
		doc, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		// Every variant on both servers: the replicas tie, so each
		// negotiation shows the policy its servers' rows.
		doc.ID = "news-replicated"
		if err := bed.Registry.Add(media.Replicate(doc, bed.ServerIDs(), 2)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), doc.ID, stressProfile())
			if err != nil {
				t.Fatal(err)
			}
			if res.Session == nil {
				t.Fatalf("shards=%d, negotiation %d: no session (status %v, %s)", shards, i, res.Status, res.Reason)
			}
			bed.Manager.Reject(res.Session.ID)
		}
		for _, row := range bed.Fleet.ShardStats() {
			if want := 6 / shards; row.Stats.Succeeded != want {
				t.Errorf("shards=%d: shard %d committed %d negotiations, want %d", shards, row.Shard, row.Stats.Succeeded, want)
			}
		}
		if pol.successes == 0 {
			t.Fatalf("shards=%d: no tie run carried a success", shards)
		}
		return pol.seen
	}
	one, two := run(1), run(2)
	if !slices.Equal(one, two) {
		for i := range min(len(one), len(two)) {
			if one[i] != two[i] {
				t.Fatalf("tie run %d: one shard shows %s\ntwo shards show %s", i, one[i], two[i])
			}
		}
		t.Fatalf("one shard showed %d tie runs, two shards %d", len(one), len(two))
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
