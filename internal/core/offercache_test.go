package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qosneg/internal/cmfs"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/offer"
	"qosneg/internal/offercache"
	"qosneg/internal/qos"
)

// bedDoc rebuilds the bed's news-1 article with a different copyright fee.
// The fee is the test's document version stamp: the committed offer's
// Cost.Copyright reveals which registry snapshot priced it.
func bedDoc(fee int64) media.Document {
	return media.BuildNewsArticle(media.NewsArticleSpec{
		ID:       "news-1",
		Title:    "Election night",
		Duration: 2 * time.Minute,
		Servers:  []media.ServerID{"server-1", "server-2"},
		VideoQualities: []qos.VideoQoS{
			{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			{Color: qos.Color, FrameRate: 15, Resolution: qos.TVResolution},
			{Color: qos.Grey, FrameRate: 25, Resolution: qos.TVResolution},
			{Color: qos.BlackWhite, FrameRate: 15, Resolution: qos.TVResolution},
		},
		AudioQualities: []qos.AudioQoS{
			{Grade: qos.CDQuality, Language: qos.English},
			{Grade: qos.TelephoneQuality, Language: qos.English},
		},
		CopyrightFee: fee,
	})
}

// versionPricing builds a tariff whose version is decodable from any
// committed offer: every continuous monomedia (rate ≥ 1 bit/s) is charged v
// milli-dollars per second, so with the bed's two-minute article each network
// line item equals exactly 120·v.
func versionPricing(v int64) cost.Pricing {
	return cost.Pricing{
		Network: cost.MustTable(cost.Class{MinRate: 1, Price: cost.Money(v)}),
		Server:  cost.MustTable(),
	}
}

// windDown drives a reserved session to a terminal state and surfaces any
// lifecycle error.
func windDown(t *testing.T, m *Manager, res Result, mode int) {
	t.Helper()
	if res.Session == nil {
		return
	}
	id := res.Session.ID
	switch mode % 3 {
	case 0:
		if err := m.Reject(id); err != nil {
			t.Errorf("reject %d: %v", id, err)
		}
	case 1:
		if err := m.Confirm(id); err != nil {
			t.Errorf("confirm %d: %v", id, err)
			return
		}
		if err := m.Complete(id); err != nil {
			t.Errorf("complete %d: %v", id, err)
		}
	case 2:
		if err := m.Confirm(id); err != nil {
			t.Errorf("confirm %d: %v", id, err)
			return
		}
		if err := m.Abort(id); err != nil {
			t.Errorf("abort %d: %v", id, err)
		}
	}
}

// TestOfferCacheHitEquivalence: the second negotiation of the same
// (document, machine, profile) is served from the cache and must produce
// exactly the ranked list and committed offer of the first.
func TestOfferCacheHitEquivalence(t *testing.T) {
	b := defaultBed(t)
	res1, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res1.Status != Succeeded {
		t.Fatalf("status = %v (%s)", res1.Status, res1.Reason)
	}
	st := b.man.Stats()
	if st.OfferCacheMisses != 1 || st.OfferCacheHits != 0 {
		t.Fatalf("after first run: hits=%d misses=%d, want 0/1", st.OfferCacheHits, st.OfferCacheMisses)
	}
	if st.OfferCacheEntries != 1 {
		t.Fatalf("entries = %d, want 1", st.OfferCacheEntries)
	}
	ranked1, _ := json.Marshal(res1.Session.Ranked())
	windDown(t, b.man, res1, 0)

	res2, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	st = b.man.Stats()
	if st.OfferCacheHits != 1 || st.OfferCacheMisses != 1 {
		t.Fatalf("after second run: hits=%d misses=%d, want 1/1", st.OfferCacheHits, st.OfferCacheMisses)
	}
	if res2.Status != res1.Status {
		t.Fatalf("cached status = %v, fresh %v", res2.Status, res1.Status)
	}
	ranked2, _ := json.Marshal(res2.Session.Ranked())
	if string(ranked1) != string(ranked2) {
		t.Errorf("cached ranked list differs from fresh:\nfresh:  %s\ncached: %s", ranked1, ranked2)
	}
	windDown(t, b.man, res2, 0)
	if err := b.led.CheckEmpty(); err != nil {
		t.Error(err)
	}
}

// TestOfferCacheSharesVariants: every offer a session ranks, commits or
// adapts to points at the cached candidates' own variants, through
// negotiate, confirm, adapt, renegotiate and complete; and nothing on that
// path writes through them, so the cached candidates still equal a fresh
// step-2 filter of the document at the end.
func TestOfferCacheSharesVariants(t *testing.T) {
	b := defaultBed(t)
	ctx := context.Background()
	entry := func() offer.Candidates {
		t.Helper()
		keys := b.man.cache.Keys()
		if len(keys) != 1 {
			t.Fatalf("cache holds %d entries, want 1", len(keys))
		}
		_, docGen, err := b.man.registry.Snapshot("news-1")
		if err != nil {
			t.Fatal(err)
		}
		_, pricingGen := b.man.pricingSnapshot()
		cands, _, out := b.man.cache.Lookup(keys[0], docGen, pricingGen)
		if out != offercache.Hit {
			t.Fatalf("cache lookup = %v, want a hit", out)
		}
		return cands
	}
	shared := func(what string, ranked ...offer.Ranked) {
		t.Helper()
		cands := entry()
		if len(ranked) == 0 {
			t.Fatalf("%s: no offers", what)
		}
		for _, r := range ranked {
			for i, ch := range r.Choices {
				j := slices.IndexFunc(cands[i], func(c offer.Candidate) bool { return c.Variant.ID == ch.Variant.ID })
				if j < 0 || ch.Variant != &cands[i][j].Variant {
					t.Fatalf("%s: offer %s choice %d does not point at the cached candidate's variant", what, r.Key(), i)
				}
			}
		}
	}

	res, err := b.man.NegotiateContext(ctx, b.mach, "news-1", tvProfile())
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("negotiate: %v (%v)", err, res.Status)
	}
	s1 := res.Session
	shared("negotiate", s1.Ranked()...)
	shared("negotiate: committed", s1.Current)
	if err := b.man.Confirm(s1.ID); err != nil {
		t.Fatal(err)
	}
	video := s1.Current.Choices[0].Variant.Server
	if err := b.servers[video].SetDegradation(0.99); err != nil {
		t.Fatal(err)
	}
	tr, err := b.man.Adapt(s1.ID)
	if err != nil {
		t.Fatalf("adapt: %v", err)
	}
	if err := b.servers[video].SetDegradation(0); err != nil {
		t.Fatal(err)
	}
	shared("adapt", tr.From, tr.To, s1.CurrentOffer())
	shared("adapt: ranked", s1.Ranked()...)

	res, err = b.man.NegotiateContext(ctx, b.mach, "news-1", tvProfile())
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("second negotiate: %v (%v)", err, res.Status)
	}
	s2 := res.Session
	shared("second negotiate", s2.Ranked()...)
	u := tvProfile()
	u.Desired.Video.FrameRate = 15
	if res, err = b.man.RenegotiateContext(ctx, s2.ID, u); err != nil || !res.Status.Reserved() {
		t.Fatalf("renegotiate: %v (%v)", err, res.Status)
	}
	shared("renegotiate", s2.Ranked()...)
	shared("renegotiate: committed", s2.CurrentOffer())
	if err := b.man.Confirm(s2.ID); err != nil {
		t.Fatal(err)
	}
	for _, id := range []SessionID{s1.ID, s2.ID} {
		if err := b.man.Complete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.led.CheckEmpty(); err != nil {
		t.Error(err)
	}

	doc, _, err := b.man.registry.Snapshot("news-1")
	if err != nil {
		t.Fatal(err)
	}
	pricing, _ := b.man.pricingSnapshot()
	fresh, err := offer.Filter(ctx, doc, b.mach, pricing, tvProfile().Desired.Cost.Guarantee, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cands := entry(); !reflect.DeepEqual(cands, fresh) {
		t.Errorf("the cached candidates changed under the sessions that shared them:\ncached: %+v\nfresh:  %+v", cands, fresh)
	}
}

// TestOfferCacheDocInvalidation: republishing the document bumps its
// generation; the next negotiation must price the new copyright fee, never
// the memoized old one.
func TestOfferCacheDocInvalidation(t *testing.T) {
	b := defaultBed(t)
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Session.CurrentOffer().Cost.Copyright; got != 500 {
		t.Fatalf("copyright = %v, want 500", got)
	}
	windDown(t, b.man, res, 0)

	if err := b.reg.Add(bedDoc(700)); err != nil {
		t.Fatal(err)
	}
	res, err = b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Session.CurrentOffer().Cost.Copyright; got != 700 {
		t.Fatalf("after republish: copyright = %v, want 700 (stale candidate served)", got)
	}
	st := b.man.Stats()
	if st.OfferCacheHits != 0 || st.OfferCacheMisses != 2 {
		t.Errorf("hits=%d misses=%d, want 0/2 (generation mismatch must not hit)", st.OfferCacheHits, st.OfferCacheMisses)
	}
	if st.OfferCacheInvalidations != 1 {
		t.Errorf("invalidations = %d, want 1 (stale entry dropped at lookup)", st.OfferCacheInvalidations)
	}
	windDown(t, b.man, res, 0)
	if err := b.led.CheckEmpty(); err != nil {
		t.Error(err)
	}
}

// TestOfferCachePricingInvalidation: SetPricing bumps the pricing
// generation; the next negotiation must re-price under the new tables.
func TestOfferCachePricingInvalidation(t *testing.T) {
	b := defaultBed(t)
	b.man.SetPricing(versionPricing(1))
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	cost1 := res.Session.CurrentOffer().Cost
	for i, n := range cost1.Network {
		if n != 120 {
			t.Fatalf("network[%d] = %v, want 120 (v1 tariff)", i, n)
		}
	}
	windDown(t, b.man, res, 0)

	b.man.SetPricing(versionPricing(3))
	res, err = b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range res.Session.CurrentOffer().Cost.Network {
		if n != 360 {
			t.Fatalf("after SetPricing: network[%d] = %v, want 360 (stale candidate served)", i, n)
		}
	}
	st := b.man.Stats()
	if st.OfferCacheHits != 0 || st.OfferCacheMisses != 2 {
		t.Errorf("hits=%d misses=%d, want 0/2", st.OfferCacheHits, st.OfferCacheMisses)
	}
	windDown(t, b.man, res, 0)
	if err := b.led.CheckEmpty(); err != nil {
		t.Error(err)
	}
}

// TestOfferCacheQuarantinePurge: breaker transitions purge entries keyed by
// the outgoing exclusion world, and negotiations under quarantine never
// choose a quarantined server's variants.
func TestOfferCacheQuarantinePurge(t *testing.T) {
	b := defaultBed(t)
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	windDown(t, b.man, res, 0)
	if st := b.man.Stats(); st.OfferCacheEntries != 1 {
		t.Fatalf("entries = %d, want 1", st.OfferCacheEntries)
	}

	// Trip the breaker for server-2: the healthy-world entry is purged.
	b.man.recordCommitFailure(commitFailure{
		cause: CauseServerDown, kind: refusedReserve, server: "server-2",
		err: errors.New("injected"),
	}, cost.BestEffort)
	st := b.man.Stats()
	if st.OfferCacheEntries != 0 {
		t.Fatalf("after trip: entries = %d, want 0 (purged)", st.OfferCacheEntries)
	}
	if st.OfferCacheInvalidations != 1 {
		t.Errorf("after trip: invalidations = %d, want 1", st.OfferCacheInvalidations)
	}

	res, err = b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Session != nil {
		for _, c := range res.Session.CurrentOffer().Choices {
			if c.Variant.Server == "server-2" {
				t.Errorf("offer uses quarantined server-2 variant %s", c.Variant.ID)
			}
		}
		for _, r := range res.Session.Ranked() {
			for _, c := range r.Choices {
				if c.Variant.Server == "server-2" {
					t.Errorf("ranked list retains quarantined server-2 variant %s", c.Variant.ID)
				}
			}
		}
	}
	windDown(t, b.man, res, 0)
	if st := b.man.Stats(); st.OfferCacheMisses != 2 {
		t.Errorf("misses = %d, want 2 (quarantined world is a new key)", st.OfferCacheMisses)
	}

	// Restore: the quarantined-world entry is purged in turn, and the full
	// candidate set comes back.
	b.man.recordServerSuccess("server-2", cost.BestEffort, b.man.serverHealthGen("server-2"))
	st = b.man.Stats()
	if st.OfferCacheEntries != 0 {
		t.Fatalf("after restore: entries = %d, want 0", st.OfferCacheEntries)
	}
	if st.OfferCacheInvalidations != 2 {
		t.Errorf("after restore: invalidations = %d, want 2", st.OfferCacheInvalidations)
	}
	res, err = b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Succeeded {
		t.Fatalf("after restore: status = %v (%s)", res.Status, res.Reason)
	}
	servers := map[media.ServerID]bool{}
	for _, r := range res.Session.Ranked() {
		for _, c := range r.Choices {
			servers[c.Variant.Server] = true
		}
	}
	if !servers["server-2"] {
		t.Error("after restore: ranked list never uses server-2 — exclusion leaked into the new world")
	}
	windDown(t, b.man, res, 0)
	if err := b.led.CheckEmpty(); err != nil {
		t.Error(err)
	}
}

// TestOfferCacheOnOffEquivalence runs the same scripted mix of
// negotiations, registry updates, pricing changes and breaker flips against
// two identical beds — one caching, one not — and demands byte-identical
// outcomes at every step.
func TestOfferCacheOnOffEquivalence(t *testing.T) {
	on := defaultBed(t)
	offOpts := DefaultOptions()
	offOpts.OfferCache = -1
	off := newBedOpts(t, cmfs.DefaultConfig(), 0, offOpts)

	beds := []*bed{on, off}
	negotiate := func(step int, mode int) {
		t.Helper()
		var snaps [2]string
		for i, b := range beds {
			res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
			if err != nil {
				t.Fatalf("step %d bed %d: %v", step, i, err)
			}
			var ranked, current []byte
			if res.Session != nil {
				ranked, _ = json.Marshal(res.Session.Ranked())
				current, _ = json.Marshal(res.Session.CurrentOffer())
			}
			offerJSON, _ := json.Marshal(res.Offer)
			snaps[i] = fmt.Sprintf("status=%v reason=%q offer=%s current=%s ranked=%s",
				res.Status, res.Reason, offerJSON, current, ranked)
			windDown(t, b.man, res, mode)
		}
		if snaps[0] != snaps[1] {
			t.Fatalf("step %d: cache-on and cache-off outcomes differ:\non:  %s\noff: %s", step, snaps[0], snaps[1])
		}
	}

	rng := rand.New(rand.NewSource(42))
	fee, price := int64(500), int64(1)
	for _, b := range beds {
		b.man.SetPricing(versionPricing(price))
	}
	quarantined := false
	for step := 0; step < 40; step++ {
		switch rng.Intn(6) {
		case 0, 1, 2:
			negotiate(step, rng.Intn(3))
		case 3:
			fee += 25
			for _, b := range beds {
				if err := b.reg.Add(bedDoc(fee)); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			price++
			for _, b := range beds {
				b.man.SetPricing(versionPricing(price))
			}
		case 5:
			if quarantined {
				for _, b := range beds {
					b.man.recordServerSuccess("server-2", cost.BestEffort, b.man.serverHealthGen("server-2"))
				}
			} else {
				for _, b := range beds {
					b.man.recordCommitFailure(commitFailure{
						cause: CauseServerDown, kind: refusedReserve, server: "server-2",
						err: errors.New("injected"),
					}, cost.BestEffort)
				}
			}
			quarantined = !quarantined
		}
	}
	onStats, offStats := on.man.Stats(), off.man.Stats()
	if onStats.OfferCacheHits == 0 {
		t.Error("scripted run never hit the cache — equivalence was not exercised")
	}
	if offStats.OfferCacheHits != 0 || offStats.OfferCacheMisses != 0 {
		t.Errorf("cache-off bed recorded cache traffic: %+v", offStats)
	}
	for i, b := range beds {
		if err := b.led.CheckEmpty(); err != nil {
			t.Errorf("bed %d: %v", i, err)
		}
	}
}

// TestOfferCacheCoherenceRandomized is the property test: negotiations race
// registry republishes, pricing swaps and breaker flips, and every committed
// offer must decode to document and pricing versions that were plausibly
// current during its negotiation window — a stale candidate set would decode
// to a version older than the newest install that preceded the negotiation.
// Run with -race; four seeds vary the interleaving.
func TestOfferCacheCoherenceRandomized(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			coherenceRun(t, seed)
		})
	}
}

func coherenceRun(t *testing.T, seed int64) {
	b := defaultBed(t)
	b.man.SetPricing(versionPricing(0))

	// Version clocks. issued is bumped before an install starts, installed
	// after it returns: a negotiation that starts after installed=v can only
	// observe versions ≥ v, and can never observe a version > issued read
	// after it finished.
	var docIssued, docInstalled atomic.Int64
	var priceIssued, priceInstalled atomic.Int64
	// quarVer counts breaker transitions; it is odd exactly while server-2's
	// quarantine is in force for the whole odd window (set before the window
	// opens, cleared after it closes).
	var quarVer atomic.Uint64

	var wg sync.WaitGroup
	start := make(chan struct{})

	wg.Add(1)
	go func() { // document republisher
		defer wg.Done()
		<-start
		for i := 0; i < 40; i++ {
			v := docIssued.Add(1)
			if err := b.reg.Add(bedDoc(500 + v)); err != nil {
				t.Errorf("republish v%d: %v", v, err)
				return
			}
			docInstalled.Store(v)
			time.Sleep(500 * time.Microsecond)
		}
	}()

	wg.Add(1)
	go func() { // pricing updater
		defer wg.Done()
		<-start
		for i := 0; i < 20; i++ {
			v := priceIssued.Add(1)
			b.man.SetPricing(versionPricing(v))
			priceInstalled.Store(v)
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Add(1)
	go func() { // breaker flipper
		defer wg.Done()
		<-start
		for i := 0; i < 20; i++ {
			if i%2 == 0 {
				b.man.recordCommitFailure(commitFailure{
					cause: CauseServerDown, kind: refusedReserve, server: "server-2",
					err: errors.New("injected"),
				}, cost.BestEffort)
				quarVer.Add(1) // odd: quarantine definitely in force
			} else {
				quarVer.Add(1) // even again, then lift it
				b.man.recordServerSuccess("server-2", cost.BestEffort, b.man.serverHealthGen("server-2"))
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*100 + int64(w)))
			<-start
			for i := 0; i < 60; i++ {
				docLo, priceLo := docInstalled.Load(), priceInstalled.Load()
				qBefore := quarVer.Load()
				res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				docHi, priceHi := docIssued.Load(), priceIssued.Load()
				qAfter := quarVer.Load()
				if res.Session != nil {
					c := res.Session.CurrentOffer().Cost
					dv := int64(c.Copyright) - 500
					if dv < docLo || dv > docHi {
						t.Errorf("worker %d: committed doc version %d outside live window [%d,%d] — stale candidate set",
							w, dv, docLo, docHi)
					}
					var pv int64 = -1
					for j, n := range c.Network {
						if n%120 != 0 {
							t.Errorf("worker %d: network[%d] = %v not a whole tariff version", w, j, n)
							continue
						}
						v := int64(n) / 120
						if pv == -1 {
							pv = v
						} else if v != pv {
							t.Errorf("worker %d: offer mixes tariff versions %d and %d — non-atomic pricing", w, pv, v)
						}
					}
					if pv >= 0 && (pv < priceLo || pv > priceHi) {
						t.Errorf("worker %d: committed tariff version %d outside live window [%d,%d] — stale candidate set",
							w, pv, priceLo, priceHi)
					}
					if qBefore == qAfter && qBefore%2 == 1 {
						for _, ch := range res.Session.CurrentOffer().Choices {
							if ch.Variant.Server == "server-2" {
								t.Errorf("worker %d: committed quarantined server-2 variant %s", w, ch.Variant.ID)
							}
						}
					}
					windDown(t, b.man, res, rng.Intn(3))
				}
			}
		}(w)
	}

	close(start)
	wg.Wait()

	st := b.man.Stats()
	if st.OfferCacheHits == 0 {
		t.Error("coherence run never hit the cache — the property was not exercised")
	}
	if err := b.led.CheckEmpty(); err != nil {
		t.Error(err)
	}
}
