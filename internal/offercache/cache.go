// Package offercache memoizes the static half of the negotiation procedure.
//
// Steps 1–3 of the Section 4 procedure recompute, per request, work that
// depends only on (document, client machine class, pricing, quarantine set):
// the decodable-variant filter of step 2, the Section 6 user→network QoS
// mapping and the Section 7 per-variant stream price. A presentational
// news-on-demand service plays the *same* hot documents to many users on a
// handful of machine classes, so nearly all of that work is identical across
// negotiations. This package caches its result — the per-monomedia
// offer.Candidates set — behind a key that names every input the
// computation reads, plus generation stamps for the two inputs that mutate
// in place. An entry that is hit also memoizes steps 3–4 over its
// candidates: each of its ranking slots holds the classified top K for
// one of the first profiles that hit it, so the users of a profile share a
// ranking as they share candidates. No entry holds the offer product: a
// classification writes only the offers it keeps, and a memoized ranking
// holds those.
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
// A memoized ranking is a pure function of the entry's candidates
// (coherent by the argument above) and of the user profile
// fields classification reads. The profile is pinned by a key that, like
// Key.Machine, is a 64-bit hash: its rank digest
// (profile.UserProfile.RankDigest). LookupRanking serves a slot only to a
// caller whose digest equals the one it was filled for; StoreRanking fills
// an empty slot only while the entry still carries the stamps the caller
// hit it at; Store, replacing the candidates, empties the slots; and a
// stale or evicted entry takes its slots with it. A fresh entry has empty
// slots, so an entry no one reuses holds no ranking.
//
// # Sharing
//
// A stored candidate set is shared by every negotiation that hits the
// entry, and every offer classified from it shares the candidates'
// variants: a choice points at the Variant of the candidate it picked
// instead of copying it. A memoized ranking, its offers included, is shared
// by every session it is served to. Its offers' keys are rendered into one
// buffer and its array is sorted before it is published, and then neither
// is written, so a session reading it in classified order, or retiring with
// one of its offers, only reads. Nothing reachable from an entry may be
// written — not a candidate, not a ranked offer, not a variant a choice
// points at, not a ranking.
//
// The cache is sharded; each shard holds an LRU list under its own mutex, so
// concurrent negotiations on different documents rarely contend.
package offercache

import (
	"sync"
	"sync/atomic"

	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/offer"
	"qosneg/internal/wordhash"
)

// DefaultSize is the entry capacity used when the configured size is 0.
const DefaultSize = 1024

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
	// memo is the entry's ranking slots, each empty until StoreRanking
	// fills it after a hit; the first profiles to fill them keep them. They
	// are part of the entry, so filling one allocates nothing, and they are
	// read and written under the shard mutex only.
	memo       [rankingSlots]ranking
	prev, next *entry
}

// rankingSlots is how many profiles' rankings an entry memoizes: two, as
// the default profile set's tv-quality and economy share every entry (both
// best effort), and a classification the memo does not serve writes its
// own offers. Two keep an entry in the 160-byte size class.
const rankingSlots = 2

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
	// Ranked is the entry's memoized classification when a slot holds
	// one for the digest asked; otherwise Ranked.Len() is 0.
	Ranked offer.Classified
	// Vacant reports that no slot holds the digest's ranking and one is
	// empty, so that a StoreRanking after this hit would fill it.
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
// every offer classified from a set, and every session holding one, points
// at the candidates' own variants (offer.Choice.Variant). So is a memoized
// ranking, which StoreRanking sorts and keys before any reader sees it.
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

// Lookup returns the memoized candidates for k, provided the entry's
// generation stamps match the caller's current (docGen, pricingGen). A
// mismatched entry is removed and reported as Stale — it is never returned.
// The offer list it also returns is always nil: no entry holds one. It
// stays in the signature until ROADMAP item 7a drops the benchmark's call.
func (c *Cache) Lookup(k Key, docGen, pricingGen uint64) (offer.Candidates, []offer.SystemOffer, Outcome) {
	r, out := c.LookupRanking(k, docGen, pricingGen, 0)
	return r.Cands, nil, out
}

// LookupRanking is Lookup that also reads the entry's ranking slots: on a
// hit where a slot holds the classification for the profile rank digest
// digest, Result.Ranked is that classification, sorted and shared with
// every other reader — none may write it. On a hit where no slot holds it
// and one is empty, Result.Vacant is set.
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
	r := Result{Cands: e.cands}
	if i := e.slotFor(digest); i >= 0 {
		r.Ranked, r.Vacant = offer.Presorted(e.memo[i].ranked), len(e.memo[i].ranked) == 0
	}
	s.mu.Unlock()
	c.hits.Add(1)
	return r, Hit
}

// Store memoizes cands under k with the generation stamps they were
// computed from, evicting the shard's least-recently-used entry when full.
// An existing entry under the same key is replaced (the generations may
// have moved between the caller's snapshot and now; the stamps keep it
// honest either way). The offers argument is ignored: no entry holds an
// offer list. It stays in the signature until ROADMAP item 7a drops the
// benchmark's call.
func (c *Cache) Store(k Key, docGen, pricingGen uint64, cands offer.Candidates, _ []offer.SystemOffer) {
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		e.docGen, e.pricingGen, e.cands = docGen, pricingGen, cands
		e.memo = [rankingSlots]ranking{}
		s.moveFrontLocked(e)
		s.mu.Unlock()
		return
	}
	var evicted int
	for len(s.entries) >= s.cap && s.tail != nil {
		s.removeLocked(s.tail)
		evicted++
	}
	e := &entry{key: k, docGen: docGen, pricingGen: pricingGen, cands: cands}
	s.entries[k] = e
	s.pushFrontLocked(e)
	s.mu.Unlock()
	c.entries.Add(1 - int64(evicted))
}

// StoreRanking sorts ranked in place, renders its offers' keys into one
// shared buffer (offer.RenderKeys), and memoizes it in an empty slot of the
// entry under k. ranked must be the classification (steps 3–4) of the
// entry's own candidates for a profile whose rank digest is digest,
// computed after a lookup that hit at (docGen, pricingGen); if the entry
// has gone or moved to other stamps since, if a slot already holds that
// digest's ranking, or if other profiles have filled every slot, the
// ranking is dropped. A filled slot is kept until Store replaces the
// entry's candidates: profiles that share an entry but not a slot would
// otherwise overwrite each other's ranking on every hit, each paying a sort
// for a memo the next one discards. Sorting and keying
// first means that no reader of the memo ever writes it: a sorted view's
// reads only read, and a session that retires with one of its offers keeps
// a substring of the shared buffer instead of joining a key of its own.
func (c *Cache) StoreRanking(k Key, docGen, pricingGen, digest uint64, ranked *offer.Classified) {
	sorted := ranked.All()
	offer.RenderKeys(sorted)
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.entries[k]; ok && e.docGen == docGen && e.pricingGen == pricingGen {
		if i := e.slotFor(digest); i >= 0 && len(e.memo[i].ranked) == 0 {
			e.memo[i] = ranking{digest: digest, ranked: sorted}
		}
	}
	s.mu.Unlock()
}

// slotFor returns the slot holding digest's ranking, else the first empty
// one, else -1. The caller holds the shard mutex.
func (e *entry) slotFor(digest uint64) int {
	free := -1
	for i, m := range e.memo {
		if len(m.ranked) > 0 && m.digest == digest {
			return i
		} else if len(m.ranked) == 0 && free < 0 {
			free = i
		}
	}
	return free
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
