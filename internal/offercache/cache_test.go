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

// TestStoreKeepsNoOffers: an entry holds candidates only. Store ignores the
// offer list it is handed, and Lookup hands back none, hit or stale.
func TestStoreKeepsNoOffers(t *testing.T) {
	c := New(0)
	k := key("doc-1", 42)
	offers := []offer.SystemOffer{{Document: "doc-1"}, {Document: "doc-1"}}
	c.Store(k, 1, 1, testCands(2), offers)
	cands, got, out := c.Lookup(k, 1, 1)
	if out != Hit || len(cands) != 1 || len(cands[0]) != 2 {
		t.Fatalf("lookup = (%v, %v), want the 2 stored candidates and Hit", cands, out)
	}
	if got != nil {
		t.Fatalf("hit returned %d offers, want none", len(got))
	}
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
					c.PurgeExclusions(1) // every key's exclusion hash is 0
				}
			}
		}(w)
	}
	wg.Wait()
	// Gauge must agree with an exhaustive scan of the shards, and each
	// shard's list with its map.
	live := 0
	for i := range c.shards {
		s := &c.shards[i]
		listed := 0
		for e := s.head; e != nil; e = e.next {
			listed++
		}
		if listed != len(s.entries) {
			t.Fatalf("shard %d lists %d entries and maps %d", i, listed, len(s.entries))
		}
		live += listed
	}
	if got := c.Len(); got != live {
		t.Fatalf("entry gauge = %d but %d entries live", got, live)
	}
}

// TestRankingSlot: an entry's ranking slots start empty (and a lookup whose
// digest no slot holds says whether one is), are
// filled only by StoreRanking at the entry's own stamps, each is served only
// for the digest it was filled for, a digest fills one slot however often it
// is stored, a third digest is dropped once both are filled, and the slots
// go with the candidates when Store replaces them.
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
	if n := memo(8); n != 0 || !vacant {
		t.Fatalf("slot for digest 7 serves digest 8 a %d-offer ranking (vacant %v), want none and the second slot vacant", n, vacant)
	}
	// Storing digest 7 again fills no second slot.
	r3 := ranked(3)
	c.StoreRanking(k, 1, 1, 7, &r3)
	if n := memo(8); n != 0 || !vacant {
		t.Fatalf("a second store of digest 7 took the other slot (digest 8 served %d, vacant %v)", n, vacant)
	}
	c.StoreRanking(k, 1, 1, 8, &r2)
	if n := memo(8); n != 2 || vacant {
		t.Fatalf("slot for digest 8 serves %d offers (vacant %v), want 2 and no slot vacant", n, vacant)
	}
	// Both slots are filled: a third digest's ranking is dropped.
	r4 := ranked(4)
	c.StoreRanking(k, 1, 1, 9, &r4)
	if n := memo(9); n != 0 {
		t.Fatalf("digest 9 overwrote a filled slot (%d offers served)", n)
	}
	if n7, n8 := memo(7), memo(8); n7 != 3 || n8 != 2 {
		t.Fatalf("after digest 9's store, digests 7 and 8 are served %d and %d offers, want 3 and 2", n7, n8)
	}
	// Replacing the candidates empties the slots.
	c.Store(k, 1, 1, testCands(2), nil)
	if n7, n8 := memo(7), memo(8); n7 != 0 || n8 != 0 {
		t.Fatalf("the slots survived Store replacing their candidates (%d and %d offers)", n7, n8)
	}
	// A stale lookup drops the entry and its slots with it.
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

// TestStoreRankingRendersKeys: a published ranking's offers carry their
// keys, rendered into one buffer, so a session that retires with one keeps
// a substring of it and joins nothing.
func TestStoreRankingRendersKeys(t *testing.T) {
	c := New(0)
	k := key("doc-1", 42)
	c.Store(k, 1, 1, testCands(3), nil)
	vs := []media.Variant{{ID: "v-a"}, {ID: "v+b"}, {ID: "v-c"}}
	rs := make([]offer.Ranked, 3)
	for i := range rs {
		rs[i] = offer.Ranked{SystemOffer: &offer.SystemOffer{Choices: []offer.Choice{{Variant: &vs[i]}, {Variant: &vs[(i+1)%3]}}}, OIF: float64(3 - i)}
	}
	want := make([]string, len(rs))
	for i := range rs {
		want[i] = rs[i].Key()
	}
	r := offer.Presorted(rs)
	c.StoreRanking(k, 1, 1, 7, &r)
	got, _ := c.LookupRanking(k, 1, 1, 7)
	served := got.Ranked.All()
	for i := range served {
		if served[i].Key() != want[i] {
			t.Fatalf("offer %d: key %q, want %q", i, served[i].Key(), want[i])
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = served[i].Summary() }); allocs != 0 {
			t.Fatalf("offer %d: Summary allocated %.0f objects, want 0: its key was not rendered", i, allocs)
		}
	}
	first, last := unsafe.StringData(served[0].Key()), unsafe.StringData(served[2].Key())
	if unsafe.Add(unsafe.Pointer(first), len(want[0])+len(want[1])) != unsafe.Pointer(last) {
		t.Error("the published keys are not consecutive substrings of one buffer")
	}
}

// TestEntrySize keeps an entry, ranking slots included, in the 160-byte size
// class on a 64-bit platform: every stored entry pays the slots, hit or not,
// so a slot keeps the sorted array alone (32 bytes with its digest), not
// the classified view with its orderer, which would take the 208-byte class.
func TestEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size classes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(entry{}); got > 160 {
		t.Errorf("unsafe.Sizeof(entry{}) = %d, want <= 160", got)
	}
}
