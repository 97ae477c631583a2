package offercache

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/offer"
)

func testCands(n int) offer.Candidates {
	c := make(offer.Candidates, 1)
	for i := 0; i < n; i++ {
		c[0] = append(c[0], offer.Candidate{Variant: media.Variant{ID: media.VariantID(fmt.Sprintf("v%d", i))}})
	}
	return c
}

func key(doc string, mach uint64) Key {
	return Key{Doc: media.DocumentID(doc), Machine: mach, Guarantee: cost.Guaranteed}
}

func TestLookupMissHitStale(t *testing.T) {
	c := New(0)
	k := key("doc-1", 42)

	if _, _, out := c.Lookup(k, 1, 1); out != Miss {
		t.Fatalf("lookup of empty cache = %v, want Miss", out)
	}
	cands := testCands(3)
	c.Store(k, 1, 1, cands, nil)
	got, _, out := c.Lookup(k, 1, 1)
	if out != Hit {
		t.Fatalf("lookup after store = %v, want Hit", out)
	}
	if len(got) != 1 || len(got[0]) != 3 {
		t.Fatalf("hit returned wrong candidates: %v", got)
	}

	// Document generation moved: stale, dropped, then a clean miss.
	if _, _, out := c.Lookup(k, 2, 1); out != Stale {
		t.Fatalf("lookup with new docGen = %v, want Stale", out)
	}
	if _, _, out := c.Lookup(k, 2, 1); out != Miss {
		t.Fatalf("lookup after stale drop = %v, want Miss", out)
	}

	// Pricing generation moved: same story.
	c.Store(k, 2, 1, cands, nil)
	if _, _, out := c.Lookup(k, 2, 2); out != Stale {
		t.Fatalf("lookup with new pricingGen = %v, want Stale", out)
	}

	st := c.Stats()
	if st.Hits != 1 || st.Invalidations != 2 {
		t.Fatalf("stats = %+v, want 1 hit, 2 invalidations", st)
	}
	if st.Entries != 0 {
		t.Fatalf("entries = %d, want 0 after both stales dropped", st.Entries)
	}
}

func TestStoreMaterializedOffers(t *testing.T) {
	c := New(0)
	k := key("doc-1", 42)
	offers := []offer.SystemOffer{{Document: "doc-1"}, {Document: "doc-1"}}
	c.Store(k, 1, 1, testCands(2), offers)
	_, got, out := c.Lookup(k, 1, 1)
	if out != Hit {
		t.Fatalf("lookup = %v, want Hit", out)
	}
	if len(got) != 2 {
		t.Fatalf("hit returned %d memoized offers, want 2", len(got))
	}
	// A candidates-only entry returns nil offers on hit.
	k2 := key("doc-2", 42)
	c.Store(k2, 1, 1, testCands(2), nil)
	if _, got, out := c.Lookup(k2, 1, 1); out != Hit || got != nil {
		t.Fatalf("candidates-only hit = (%v, %v), want (nil, Hit)", got, out)
	}
	// Stale entries drop the offers with the candidates.
	if _, got, out := c.Lookup(k, 2, 1); out != Stale || got != nil {
		t.Fatalf("stale lookup = (%v, %v), want (nil, Stale)", got, out)
	}
}

func TestKeySeparation(t *testing.T) {
	c := New(0)
	base := key("doc-1", 42)
	c.Store(base, 1, 1, testCands(1), nil)

	for name, k := range map[string]Key{
		"different doc":       key("doc-2", 42),
		"different machine":   key("doc-1", 43),
		"different guarantee": {Doc: "doc-1", Machine: 42, Guarantee: cost.BestEffort},
		"different exclusion": {Doc: "doc-1", Machine: 42, Guarantee: cost.Guaranteed, Exclusion: 7},
	} {
		if _, _, out := c.Lookup(k, 1, 1); out != Miss {
			t.Errorf("%s: lookup = %v, want Miss", name, out)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	// Size 16 → one entry per shard; a second store landing on the same
	// shard must evict the first. Force same-shard collisions by reusing
	// one key's doc and varying only Machine until two keys share a shard.
	c := New(16)
	k1 := key("doc-1", 1)
	s1 := c.shardFor(k1)
	var k2 Key
	for m := uint64(2); ; m++ {
		k2 = key("doc-1", m)
		if c.shardFor(k2) == s1 {
			break
		}
	}
	c.Store(k1, 1, 1, testCands(1), nil)
	c.Store(k2, 1, 1, testCands(1), nil)
	if _, _, out := c.Lookup(k1, 1, 1); out != Miss {
		t.Fatalf("k1 survived eviction; lookup = %v, want Miss", out)
	}
	if _, _, out := c.Lookup(k2, 1, 1); out != Hit {
		t.Fatalf("k2 = %v, want Hit", out)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestLRURecency(t *testing.T) {
	c := New(16)
	k1 := key("doc-1", 1)
	s1 := c.shardFor(k1)
	same := []Key{k1}
	for m := uint64(2); len(same) < 3; m++ {
		k := key("doc-1", m)
		if c.shardFor(k) == s1 {
			same = append(same, k)
		}
	}
	// cap is 1 for size 16; use a cache with room for 2 per shard instead.
	c = New(32)
	c.Store(same[0], 1, 1, testCands(1), nil)
	c.Store(same[1], 1, 1, testCands(1), nil)
	// Touch same[0] so same[1] is the LRU victim.
	if _, _, out := c.Lookup(same[0], 1, 1); out != Hit {
		t.Fatal("warm-up lookup missed")
	}
	c.Store(same[2], 1, 1, testCands(1), nil)
	if _, _, out := c.Lookup(same[0], 1, 1); out != Hit {
		t.Error("recently-used entry was evicted")
	}
	if _, _, out := c.Lookup(same[1], 1, 1); out != Miss {
		t.Error("least-recently-used entry survived")
	}
}

func TestExclusionHash(t *testing.T) {
	if ExclusionHash(nil) != 0 {
		t.Error("empty set must hash to 0")
	}
	a := ExclusionHash([]media.ServerID{"s1", "s2"})
	b := ExclusionHash([]media.ServerID{"s2", "s1"})
	if a != b {
		t.Error("hash must be order-independent")
	}
	if a == ExclusionHash([]media.ServerID{"s1"}) {
		t.Error("subset must hash differently")
	}
	if a == ExclusionHash([]media.ServerID{"s1", "s3"}) {
		t.Error("different set must hash differently")
	}
	if a == 0 {
		t.Error("non-empty set must not collide with the empty hash")
	}
}

func TestPurgeExclusions(t *testing.T) {
	c := New(0)
	world := ExclusionHash([]media.ServerID{"s1"})
	kOld := Key{Doc: "d", Machine: 1}
	kNew := Key{Doc: "d", Machine: 1, Exclusion: world}
	c.Store(kOld, 1, 1, testCands(1), nil)
	c.Store(kNew, 1, 1, testCands(1), nil)

	if n := c.PurgeExclusions(world); n != 1 {
		t.Fatalf("purge dropped %d entries, want 1", n)
	}
	if _, _, out := c.Lookup(kNew, 1, 1); out != Hit {
		t.Error("current-world entry was purged")
	}
	if _, _, out := c.Lookup(kOld, 1, 1); out != Miss {
		t.Error("old-world entry survived the purge")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
}

func TestPurge(t *testing.T) {
	c := New(0)
	for i := 0; i < 10; i++ {
		c.Store(key("doc", uint64(i)), 1, 1, testCands(1), nil)
	}
	if n := c.Purge(); n != 10 {
		t.Fatalf("purge dropped %d, want 10", n)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after purge", c.Len())
	}
}

func TestKeysDeterministic(t *testing.T) {
	c := New(0)
	c.Store(key("b", 2), 1, 1, testCands(1), nil)
	c.Store(key("a", 1), 1, 1, testCands(1), nil)
	c.Store(key("a", 2), 1, 1, testCands(1), nil)
	ks := c.Keys()
	if len(ks) != 3 || ks[0].Doc != "a" || ks[0].Machine != 1 || ks[2].Doc != "b" {
		t.Fatalf("keys not sorted: %v", ks)
	}
}

// TestConcurrentChurn hammers one hot key plus a churn of cold keys from
// many goroutines under -race: lookups, stores, generation flips and purges
// racing freely must neither corrupt the LRU lists nor leak the entry gauge.
func TestConcurrentChurn(t *testing.T) {
	c := New(64)
	hot := key("hot", 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				gen := uint64(i % 3)
				if cands, _, out := c.Lookup(hot, gen, 0); out == Hit && cands == nil {
					t.Error("hit returned nil candidates")
					return
				}
				c.Store(hot, gen, 0, testCands(1), nil)
				c.Store(key("cold", uint64(w*1000+i)), 1, 1, testCands(1), nil)
				if i%100 == 0 {
					c.PurgeExclusions(0)
				}
				if i%250 == 249 {
					c.Purge()
				}
			}
		}(w)
	}
	wg.Wait()
	// Gauge must agree with an exhaustive key scan.
	if got, want := c.Len(), len(c.Keys()); got != want {
		t.Fatalf("entry gauge = %d but %d keys live", got, want)
	}
}

// TestRankingSlot: an entry's ranking slot starts empty (and says so), is
// filled only by StoreRanking at the entry's own stamps, is served only for
// the digest it was filled for, keeps its first ranking against another
// digest's, and goes with the candidates when Store replaces them.
func TestRankingSlot(t *testing.T) {
	c := New(0)
	k := key("doc-1", 42)
	ranked := func(n int) offer.Classified {
		rs := make([]offer.Ranked, n)
		for i := range rs {
			rs[i] = offer.Ranked{SystemOffer: &offer.SystemOffer{Document: "doc-1"}, OIF: float64(n - i)}
		}
		return offer.Presorted(rs)
	}
	vacant := false
	memo := func(digest uint64) int {
		t.Helper()
		r, out := c.LookupRanking(k, 1, 1, digest)
		if out != Hit {
			t.Fatalf("lookup = %v, want Hit", out)
		}
		vacant = r.Vacant
		return r.Ranked.Len()
	}

	c.Store(k, 1, 1, testCands(2), nil)
	if n := memo(7); n != 0 || !vacant {
		t.Fatalf("a freshly stored entry serves a %d-offer ranking (vacant %v)", n, vacant)
	}
	// A ranking computed at other stamps never lands.
	r2 := ranked(2)
	c.StoreRanking(k, 1, 2, 8, &r2)
	if n := memo(8); n != 0 || !vacant {
		t.Fatalf("a ranking stored at stale stamps is served (%d offers, vacant %v)", n, vacant)
	}
	r := ranked(3)
	c.StoreRanking(k, 1, 1, 7, &r)
	if n := memo(7); n != 3 || vacant {
		t.Fatalf("slot for digest 7 serves %d offers (vacant %v), want 3", n, vacant)
	}
	if n := memo(8); n != 0 || vacant {
		t.Fatalf("slot for digest 7 serves digest 8 a %d-offer ranking (vacant %v)", n, vacant)
	}
	// A filled slot keeps its ranking: another digest's is dropped.
	c.StoreRanking(k, 1, 1, 8, &r2)
	if n := memo(8); n != 0 {
		t.Fatalf("digest 8 overwrote digest 7's slot (%d offers served)", n)
	}
	if n := memo(7); n != 3 {
		t.Fatalf("after digest 8's store, digest 7 is served %d offers, want 3", n)
	}
	// Replacing the candidates empties the slot.
	c.Store(k, 1, 1, testCands(2), nil)
	if n := memo(7); n != 0 {
		t.Fatalf("the slot survived Store replacing its candidates (%d offers)", n)
	}
	// A stale lookup drops the entry and its slot with it.
	c.StoreRanking(k, 1, 1, 7, &r)
	if _, out := c.LookupRanking(k, 2, 1, 7); out != Stale {
		t.Fatalf("lookup at a new docGen = %v, want Stale", out)
	}
	c.Store(k, 2, 1, testCands(2), nil)
	if r, _ := c.LookupRanking(k, 2, 1, 7); r.Ranked.Len() != 0 {
		t.Fatal("a re-stored entry serves the dropped entry's ranking")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// TestEntrySize keeps an entry, ranking slot included, in the 160-byte size
// class on a 64-bit platform: every stored entry pays the slot, hit or not,
// so the slot keeps the sorted array alone (32 bytes with its digest), not
// the classified view with its orderer, which would take the 176-byte class.
func TestEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size classes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(entry{}); got > 160 {
		t.Errorf("unsafe.Sizeof(entry{}) = %d, want <= 160", got)
	}
}
