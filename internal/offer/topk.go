package offer

import "slices"

// TopK keeps the K best ranked offers seen so far under an Orderer's
// ordering: negotiation step 4's classification as a bounded heap instead
// of a full sort. Until it holds K offers the collector only appends, and
// it heapifies once, when an offer past the K-th must be ranked against the
// worst kept one; from then on insertion is O(log K) and offers that cannot
// beat the current K-th best are rejected in O(1) via Full/Worst. So a
// product of at most K offers is collected without a comparison, and
// classifying a product of N offers costs O(N) plus what the reader of
// Classified orders: one pass for the best offer, O(K log K) for all of
// them. Memory is O(K) instead of O(N).
//
// K <= 0 keeps every offer (the classical unbounded classification).
// TopK is not safe for concurrent use. The zero value is unusable until Reset.
type TopK struct {
	k int
	// order is the best-first ordering; the heap keeps the *worst* kept
	// offer at the root so it can be evicted on a better arrival.
	order Orderer
	items []Ranked
	// heaped is set once items is a worst-rooted heap; until then it is in
	// arrival order.
	heaped bool
}

// Reset initializes the collector to keep the k best offers under the
// orderer's ordering (k <= 0 keeps everything). capHint is how many offers
// the caller will feed at most — the product size — so the backing array
// is allocated once at its final size: min(k, capHint) for a bounded
// collector (it never holds more than k), capHint for an unbounded one (it
// holds everything).
func (t *TopK) Reset(k int, o Orderer, capHint int) {
	if k > 0 && (capHint <= 0 || capHint > k) {
		capHint = k
	}
	*t = TopK{k: k, order: o, items: make([]Ranked, 0, capHint)}
}

// Full reports whether the collector holds K offers, so that a further Add
// must evict the worst to be kept.
func (t *TopK) Full() bool { return t.k > 0 && len(t.items) >= t.k }

// Worst returns the worst kept offer of a full collector. Together with
// Full it lets callers skip writing offers that cannot be kept.
func (t *TopK) Worst() Ranked {
	t.heapify()
	return t.items[0]
}

// Add offers r to the collector, evicting the current worst if the
// collector is full and r ranks better. It returns the offer it dropped,
// the evicted worst or r itself, or nil: a caller writing offers into slots
// of its own reuses the dropped one's slot.
func (t *TopK) Add(r Ranked) *SystemOffer {
	if !t.Full() {
		t.items, t.heaped = append(t.items, r), false
		return nil
	}
	t.heapify()
	if !t.order.Less(r, t.items[0]) {
		return r.SystemOffer
	}
	dropped := t.items[0].SystemOffer
	t.items[0] = r
	t.down(0)
	return dropped
}

// heapify makes the kept offers a worst-rooted heap, bottom-up (Floyd), the
// first time it is called.
func (t *TopK) heapify() {
	if t.heaped {
		return
	}
	for i := len(t.items)/2 - 1; i >= 0; i-- {
		t.down(i)
	}
	t.heaped = true
}

// Classified hands the kept offers over as the classified list step 5
// reads, and leaves the collector empty.
func (t *TopK) Classified() Classified {
	c := Classified{items: t.items, order: t.order}
	if t.heaped {
		c.sorted = heapOrder
	}
	t.items, t.heaped = nil, false
	return c
}

// worseThan is the heap ordering: the root holds the worst kept offer.
func (t *TopK) worseThan(i, j int) bool { return t.order.Less(t.items[j], t.items[i]) }

func (t *TopK) down(i int) {
	n := len(t.items)
	for {
		worst := i
		if l := 2*i + 1; l < n && t.worseThan(l, worst) {
			worst = l
		}
		if r := 2*i + 2; r < n && t.worseThan(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		t.items[i], t.items[worst] = t.items[worst], t.items[i]
		i = worst
	}
}

// Classified is step 4's classified offer list as step 5 reads it: best
// first, but ordered only as far as it is read. Step 5 usually commits its
// first offer, and then pays one selection pass and no sort. The view owns
// the collector's array, which its copies share and a read may reorder:
// read it through one pointer, from one goroutine at a time. A view from
// TopKFromCandidates owns the slots its offers were written into too.
type Classified struct {
	items []Ranked
	order Orderer
	// sorted is how many leading offers are in place. Until the first read
	// the array is the collector's: in arrival order at 0, and a
	// worst-rooted heap at heapOrder.
	sorted int
}

// heapOrder is a fresh view's sorted count when its array is a heap.
const heapOrder = -1

// Presorted returns a view over offers already in order: the offer cache's
// memoized rankings, and tests.
func Presorted(offers []Ranked) Classified { return Classified{items: offers, sorted: len(offers)} }

// Len returns how many offers the view holds.
func (c *Classified) Len() int { return len(c.items) }

// At returns the offer at classified position i, 0 being the best. A first
// read of position 0 is one selection pass: over the heap's leaves, where
// the best offer must be since every parent ranks below its children, or
// over every offer of a collector that never filled. A deeper read sorts
// every offer not yet in place.
func (c *Classified) At(i int) Ranked {
	if i == 0 && c.sorted <= 0 {
		best := 0
		if c.sorted == heapOrder {
			best = len(c.items) / 2
		}
		for j := best + 1; j < len(c.items); j++ {
			if c.order.Less(c.items[j], c.items[best]) {
				best = j
			}
		}
		c.items[0], c.items[best], c.sorted = c.items[best], c.items[0], 1
	} else if i >= c.sorted {
		c.All()
	}
	return c.items[i]
}

// All returns every offer best-first: the view's own array, sorted.
func (c *Classified) All() []Ranked {
	// One Less per comparison: the orderers are strict total orders and an
	// offer's key is unique within its product, so two distinct offers never
	// tie.
	slices.SortFunc(c.items[max(c.sorted, 0):], func(a, b Ranked) int {
		switch {
		case a.SystemOffer == b.SystemOffer:
			return 0
		case c.order.Less(a, b):
			return -1
		}
		return 1
	})
	c.sorted = len(c.items)
	return c.items
}
