// Package offercache memoizes the static half of the negotiation procedure.
//
// Steps 1–3 of the Section 4 procedure recompute, per request, work that
// depends only on (document, client machine class, pricing, quarantine set):
// the decodable-variant filter of step 2, the Section 6 user→network QoS
// mapping and the Section 7 per-variant stream price. A presentational
// news-on-demand service plays the *same* hot documents to many users on a
// handful of machine classes, so nearly all of that work is identical across
// negotiations. This package caches its result — the per-monomedia
// offer.Candidates set, plus (for products up to MaterializeLimit) the built
// offer list derived from it — behind a key that names every input the
// computation reads, plus generation stamps for the two inputs that mutate
// in place. An entry that is hit also memoizes steps 3–4 over its
// candidates: one ranking slot holds the classified top K for the first
// profile that hit it, so the users of one profile share a ranking as they
// share candidates.
//
// # Coherence argument
//
// A cached candidate set is a pure function of
//
//	(document bytes, machine capabilities, pricing tables,
//	 service guarantee, excluded-server set)
//
// Each of those is pinned by the key or by an entry stamp:
//
//   - document bytes   → Key.Doc + the entry's document generation, which the
//     registry bumps on every Add/Remove/LoadFile touching the document;
//   - machine          → Key.Machine, the capability fingerprint
//     (client.Machine.Fingerprint — capabilities only, not identity);
//   - pricing          → the entry's pricing generation, bumped by the
//     manager whenever the pricing tables are swapped;
//   - guarantee        → Key.Guarantee;
//   - excluded servers → Key.Exclusion, an order-independent hash of the
//     quarantined server ids (ExclusionHash).
//
// Lookup returns a hit only when the caller's current generations equal the
// entry's stamps, so a hit is *provably* the same value a fresh computation
// would produce: every input either hashes into the key or is
// generation-checked. A stale entry (generation mismatch) is dropped on
// sight and reported as an invalidation, never served. Time-based quarantine
// expiry needs no epoch plumbing at all: when a server leaves the excluded
// set the caller simply computes a different ExclusionHash and misses into a
// fresh entry, while the old world's entries age out of the LRU (or are
// dropped promptly by PurgeExclusions on breaker transitions).
//
// A memoized ranking is a pure function of the entry's candidates and
// built offers (coherent by the argument above) and of the user profile
// fields classification reads. The profile is pinned by a key that, like
// Key.Machine, is a 64-bit hash: its rank digest
// (profile.UserProfile.RankDigest). LookupRanking serves the slot only to
// a caller whose digest equals the one it was filled for; StoreRanking
// fills an empty slot only while the entry still carries the stamps the
// caller hit it at; Store, replacing the candidates, empties it; and a
// stale or evicted entry takes its slot with it. A fresh entry has an empty
// slot, so an entry no one reuses holds no ranking.
//
// # Sharing
//
// A stored candidate set and the offers built from it are shared by every
// negotiation that hits the entry, and the offers share the candidates'
// variants: a choice points at the Variant of the candidate it picked
// instead of copying it. A memoized ranking is shared by every session it
// is served to; it is sorted before it is published, then never written, so
// a session reading it in classified order only reads. Nothing reachable
// from an entry may be written — not a candidate, not an offer, not a
// variant a choice points at, not a ranking.
//
// The cache is sharded; each shard holds an LRU list under its own mutex, so
// concurrent negotiations on different documents rarely contend.
package offercache

import (
	"sort"
	"sync"
	"sync/atomic"

	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/offer"
	"qosneg/internal/wordhash"
)

// DefaultSize is the entry capacity used when the configured size is 0.
const DefaultSize = 1024

// MaterializeLimit bounds the cartesian-product size up to which callers
// memoize the built offer list alongside the candidate set. Offers are a
// pure function of (document, candidates) — exactly the cached inputs — so
// sharing them is as coherent as sharing the candidates; the limit only
// bounds per-entry memory, keeping huge products streaming-only.
const MaterializeLimit = 4096

const numShards = 16

// Key names every hashed input of a memoized candidate set. Two requests
// with equal keys and matching generation stamps are guaranteed to filter,
// map and price to identical candidates.
type Key struct {
	// Doc is the document id.
	Doc media.DocumentID
	// Machine is the client machine's capability fingerprint
	// (client.Machine.Fingerprint): users on the same machine class share
	// entries.
	Machine uint64
	// Guarantee is the priced service guarantee; it selects tariff tables,
	// so it is part of the key.
	Guarantee cost.Guarantee
	// Exclusion is ExclusionHash over the quarantined-server set the
	// candidates were filtered under.
	Exclusion uint64
}

// Outcome classifies a Lookup.
type Outcome int

const (
	// Miss: no entry under the key.
	Miss Outcome = iota
	// Hit: entry present with matching generation stamps; the returned
	// candidates are coherent.
	Hit
	// Stale: entry present but its document or pricing generation no longer
	// matches; the entry was dropped and must be recomputed.
	Stale
)

type entry struct {
	key        Key
	docGen     uint64
	pricingGen uint64
	cands      offer.Candidates
	// offers is the materialized cartesian product in lexicographic (Walk)
	// order, memoized when the product is at most MaterializeLimit; nil
	// otherwise. Derived purely from the document and cands, so the same
	// stamps that keep cands coherent keep offers coherent.
	offers []offer.SystemOffer
	// memo is the entry's one ranking slot, empty until StoreRanking fills
	// it after a hit; the first profile to fill it keeps it. It is part of
	// the entry, so filling it allocates nothing, and it is read and written
	// under the shard mutex only.
	memo       ranking
	prev, next *entry
}

// ranking is a memoized classification: steps 3–4's top K over an entry's
// candidates, sorted, for the profiles whose rank digest is digest. It keeps
// the sorted array alone, not the view with its orderer: every read of a
// sorted view is in place. An empty ranked list is an empty slot.
type ranking struct {
	digest uint64
	ranked []offer.Ranked
}

// Result is what a lookup hands back on a hit.
type Result struct {
	// Cands is the memoized candidate set.
	Cands offer.Candidates
	// Offers is the built offer list, nil when the product exceeded
	// MaterializeLimit.
	Offers []offer.SystemOffer
	// Ranked is the entry's memoized classification when the slot holds
	// one for the digest asked; otherwise Ranked.Len() is 0.
	Ranked offer.Classified
	// Vacant reports that the entry's ranking slot is empty, so that a
	// StoreRanking after this hit would fill it.
	Vacant bool
}

// shard is one LRU segment: map for lookup, doubly-linked list for
// recency order (head = most recent, tail = eviction victim).
type shard struct {
	mu         sync.Mutex
	entries    map[Key]*entry
	head, tail *entry
	cap        int
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
	Entries       uint64 `json:"entries"`
}

// Cache is a sharded, concurrency-safe candidate-set cache. The zero value
// is not usable; construct with New. Stored candidate sets are shared by
// reference across negotiations and MUST be treated as immutable — the
// enumeration pipeline only reads them, and Filter always builds fresh
// slices, so this holds by construction. Their variants are shared further:
// every offer built from a set, and every session holding one, points at the
// candidates' own variants (offer.Choice.Variant). So is a memoized
// ranking's array, which StoreRanking sorts before any reader sees it.
type Cache struct {
	shards [numShards]shard

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
	entries       atomic.Int64
}

// New builds a cache holding up to size entries across all shards; size 0
// selects DefaultSize, negative sizes are clamped to one entry per shard.
func New(size int) *Cache {
	if size == 0 {
		size = DefaultSize
	}
	per := (size + numShards - 1) / numShards
	if per < 1 {
		per = 1
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i] = shard{entries: make(map[Key]*entry), cap: per}
	}
	return c
}

// hash picks k's shard. It starts from a fixed state (wordhash.Start), as
// do Key.Machine and ExclusionHash, so a key lands in the same shard in
// every run and a seeded workload evicts the same entries each time.
func (k Key) hash() uint64 {
	h := wordhash.String(wordhash.Start, string(k.Doc))
	return wordhash.Word(wordhash.Word(wordhash.Word(h, k.Machine), uint64(k.Guarantee)), k.Exclusion)
}

// ExclusionHash folds a quarantined-server set into a 64-bit value,
// independent of iteration order: per-id hashes combined by XOR, mixed with
// the set size so nothing-excluded (0 ids) is distinguishable from
// pathological XOR cancellations.
func ExclusionHash(ids []media.ServerID) uint64 {
	if len(ids) == 0 {
		return 0
	}
	var x uint64
	for _, id := range ids {
		x ^= wordhash.String(wordhash.Start, string(id))
	}
	return wordhash.Word(x, uint64(len(ids)))
}

func (c *Cache) shardFor(k Key) *shard {
	return &c.shards[k.hash()%numShards]
}

// Lookup returns the memoized candidates — and, when the product was small
// enough to materialize, the built offer list — for k, provided the entry's
// generation stamps match the caller's current (docGen, pricingGen). A
// mismatched entry is removed and reported as Stale — it is never returned.
func (c *Cache) Lookup(k Key, docGen, pricingGen uint64) (offer.Candidates, []offer.SystemOffer, Outcome) {
	r, out := c.LookupRanking(k, docGen, pricingGen, 0)
	return r.Cands, r.Offers, out
}

// LookupRanking is Lookup that also reads the entry's ranking slot: on a
// hit whose slot holds the classification for the profile rank digest
// digest, Result.Ranked is that classification, sorted and shared with
// every other reader — none may write it. On a hit whose slot is empty,
// Result.Vacant is set.
func (c *Cache) LookupRanking(k Key, docGen, pricingGen, digest uint64) (Result, Outcome) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return Result{}, Miss
	}
	if e.docGen != docGen || e.pricingGen != pricingGen {
		s.removeLocked(e)
		s.mu.Unlock()
		c.entries.Add(-1)
		c.invalidations.Add(1)
		c.misses.Add(1)
		return Result{}, Stale
	}
	s.moveFrontLocked(e)
	r := Result{Cands: e.cands, Offers: e.offers}
	switch {
	case len(e.memo.ranked) == 0:
		r.Vacant = true
	case e.memo.digest == digest:
		r.Ranked = offer.Presorted(e.memo.ranked)
	}
	s.mu.Unlock()
	c.hits.Add(1)
	return r, Hit
}

// Store memoizes cands (and the optional pre-built offer list, nil when the
// product exceeded MaterializeLimit) under k with the generation stamps they
// were computed from, evicting the shard's least-recently-used entry when
// full. An existing entry under the same key is replaced (the generations may
// have moved between the caller's snapshot and now; the stamps keep it honest
// either way).
func (c *Cache) Store(k Key, docGen, pricingGen uint64, cands offer.Candidates, offers []offer.SystemOffer) {
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		e.docGen, e.pricingGen, e.cands, e.offers = docGen, pricingGen, cands, offers
		e.memo = ranking{}
		s.moveFrontLocked(e)
		s.mu.Unlock()
		return
	}
	var evicted int
	for len(s.entries) >= s.cap && s.tail != nil {
		s.removeLocked(s.tail)
		evicted++
	}
	e := &entry{key: k, docGen: docGen, pricingGen: pricingGen, cands: cands, offers: offers}
	s.entries[k] = e
	s.pushFrontLocked(e)
	s.mu.Unlock()
	c.entries.Add(1 - int64(evicted))
}

// StoreRanking sorts ranked in place and memoizes it in the slot of the
// entry under k, if the slot is empty. ranked must be the classification
// (steps 3–4) of the entry's own candidates for a profile whose rank digest
// is digest, computed after a lookup that hit at (docGen, pricingGen); if
// the entry has gone or moved to other stamps since, or another profile
// has filled the slot, the ranking is dropped. A filled slot is kept until
// Store replaces the entry's candidates: profiles that share an entry but
// not a digest would otherwise overwrite each other's ranking on every hit,
// each paying a sort for a memo the next one discards. Sorting first means
// that no reader of the memo ever reorders its array: a sorted view's reads
// only read.
func (c *Cache) StoreRanking(k Key, docGen, pricingGen, digest uint64, ranked *offer.Classified) {
	sorted := ranked.All()
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.entries[k]; ok && e.docGen == docGen && e.pricingGen == pricingGen && len(e.memo.ranked) == 0 {
		e.memo = ranking{digest: digest, ranked: sorted}
	}
	s.mu.Unlock()
}

// PurgeExclusions drops every entry whose exclusion hash differs from
// current: on a quarantine/restore transition the manager knows the old
// exclusion worlds are unreachable, so their entries are dead weight. Returns
// how many entries were dropped (also counted as invalidations).
func (c *Cache) PurgeExclusions(current uint64) int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			if k.Exclusion != current {
				s.removeLocked(e)
				total++
			}
		}
		s.mu.Unlock()
	}
	if total > 0 {
		c.entries.Add(-int64(total))
		c.invalidations.Add(uint64(total))
	}
	return total
}

// Purge empties the cache, counting every dropped entry as an invalidation.
func (c *Cache) Purge() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := len(s.entries)
		s.entries = make(map[Key]*entry)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
		total += n
	}
	if total > 0 {
		c.entries.Add(-int64(total))
		c.invalidations.Add(uint64(total))
	}
	return total
}

// Len returns the live entry count.
func (c *Cache) Len() int {
	n := c.entries.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       uint64(c.Len()),
	}
}

// Keys returns the live keys in deterministic order; tests and debug
// surfaces use it.
func (c *Cache) Keys() []Key {
	var out []Key
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.entries {
			out = append(out, k)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Doc != b.Doc {
			return a.Doc < b.Doc
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		if a.Guarantee != b.Guarantee {
			return a.Guarantee < b.Guarantee
		}
		return a.Exclusion < b.Exclusion
	})
	return out
}

// --- intrusive LRU list, all under the shard mutex ---

func (s *shard) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) moveFrontLocked(e *entry) {
	if s.head == e {
		return
	}
	s.unlinkLocked(e)
	s.pushFrontLocked(e)
}

func (s *shard) removeLocked(e *entry) {
	s.unlinkLocked(e)
	delete(s.entries, e.key)
}
