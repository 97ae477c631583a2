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
// in place.
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
// # Sharing
//
// A stored candidate set and the offers built from it are shared by every
// negotiation that hits the entry, and the offers share the candidates'
// variants: a choice points at the Variant of the candidate it picked
// instead of copying it. Nothing reachable from an entry may be written —
// not a candidate, not an offer, not a variant a choice points at.
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
	offers     []offer.SystemOffer
	prev, next *entry
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
// candidates' own variants (offer.Choice.Variant).
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

// fnv-1a constants, inlined to keep the package dependency-free.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func hashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

func (k Key) hash() uint64 {
	h := hashString(uint64(fnvOffset), string(k.Doc))
	h = hashUint64(h, k.Machine)
	h = hashUint64(h, uint64(k.Guarantee))
	h = hashUint64(h, k.Exclusion)
	return h
}

// ExclusionHash folds a quarantined-server set into a 64-bit value,
// independent of iteration order: per-id FNV-1a hashes combined by XOR,
// mixed with the set size so nothing-excluded (0 ids) is distinguishable
// from pathological XOR cancellations.
func ExclusionHash(ids []media.ServerID) uint64 {
	if len(ids) == 0 {
		return 0
	}
	var x uint64
	for _, id := range ids {
		x ^= hashString(uint64(fnvOffset), string(id))
	}
	return hashUint64(x, uint64(len(ids)))
}

func (c *Cache) shardFor(k Key) *shard {
	return &c.shards[k.hash()%numShards]
}

// Lookup returns the memoized candidates — and, when the product was small
// enough to materialize, the built offer list — for k, provided the entry's
// generation stamps match the caller's current (docGen, pricingGen). A
// mismatched entry is removed and reported as Stale — it is never returned.
func (c *Cache) Lookup(k Key, docGen, pricingGen uint64) (offer.Candidates, []offer.SystemOffer, Outcome) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, nil, Miss
	}
	if e.docGen != docGen || e.pricingGen != pricingGen {
		s.removeLocked(e)
		s.mu.Unlock()
		c.entries.Add(-1)
		c.invalidations.Add(1)
		c.misses.Add(1)
		return nil, nil, Stale
	}
	s.moveFrontLocked(e)
	cands, offers := e.cands, e.offers
	s.mu.Unlock()
	c.hits.Add(1)
	return cands, offers, Hit
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
