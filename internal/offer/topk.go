package offer

import "slices"

// TopK keeps the K best ranked offers seen so far under an Orderer's
// ordering: negotiation step 4's classification as a bounded heap instead
// of a full sort. Insertion is O(log K); offers that cannot beat the
// current K-th best are rejected in O(1) via Full/Worst, so classifying a
// product of N offers costs O(N + K log K) instead of O(N log N) — and,
// more importantly under load, O(K) memory instead of O(N).
//
// K <= 0 keeps every offer (the classical unbounded classification).
// TopK is not safe for concurrent use. The zero value is unusable until Reset.
type TopK struct {
	k int
	// order is the best-first ordering; the heap keeps the *worst* kept
	// offer at the root so it can be evicted on a better arrival.
	order Orderer
	items []Ranked
}

// Reset initializes the collector to keep the k best offers under the
// orderer's ordering (k <= 0 keeps everything), reusing its backing array (the
// pipeline pools collectors via sync.Pool). capHint is how many offers the
// caller will feed at most — the product size — so the heap backing array is
// allocated once at its final size: min(k, capHint) for a bounded collector
// (it never holds more than k), capHint for an unbounded one (it holds
// everything).
func (t *TopK) Reset(k int, o Orderer, capHint int) {
	t.k = k
	t.order = o
	if k > 0 && (capHint <= 0 || capHint > k) {
		capHint = k
	}
	if cap(t.items) < capHint {
		t.items = make([]Ranked, 0, capHint)
		return
	}
	// Reuse the backing array; drop the stale offers so a pooled collector
	// does not pin the previous negotiation's product.
	clear(t.items)
	t.items = t.items[:0]
}

// Full reports whether the collector holds K offers, so that a further Add
// must evict the worst to be kept.
func (t *TopK) Full() bool { return t.k > 0 && len(t.items) >= t.k }

// Worst returns the worst kept offer; only valid once an offer was added.
// Together with Full it lets callers skip materializing offers that cannot
// be kept.
func (t *TopK) Worst() Ranked { return t.items[0] }

// Add offers r to the collector, evicting the current worst if the
// collector is full and r ranks better.
func (t *TopK) Add(r Ranked) {
	if !t.Full() {
		t.items = append(t.items, r)
		t.up(len(t.items) - 1)
		return
	}
	if !t.order.Less(r, t.items[0]) {
		return
	}
	t.items[0] = r
	t.down(0)
}

// Sorted returns the kept offers best-first, consuming nothing: the
// classified list handed to the resource-commitment step.
func (t *TopK) Sorted() []Ranked {
	out := slices.Clone(t.items)
	slices.SortFunc(out, func(a, b Ranked) int {
		switch {
		case t.order.Less(a, b):
			return -1
		case t.order.Less(b, a):
			return 1
		}
		return 0
	})
	return out
}

// worseThan is the heap ordering: the root holds the worst kept offer.
func (t *TopK) worseThan(i, j int) bool { return t.order.Less(t.items[j], t.items[i]) }

func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worseThan(i, parent) {
			return
		}
		t.items[i], t.items[parent] = t.items[parent], t.items[i]
		i = parent
	}
}

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
