package core

import (
	"testing"

	"qosneg/internal/cost"
	"qosneg/internal/offer"
)

func rankedRun(statuses []offer.Status, oifs []float64) []offer.Ranked {
	out := make([]offer.Ranked, len(statuses))
	for i := range statuses {
		out[i] = offer.Ranked{SystemOffer: &offer.SystemOffer{}, Status: statuses[i], OIF: oifs[i]}
	}
	return out
}

func TestValidPermutation(t *testing.T) {
	cases := []struct {
		perm []int
		want bool
	}{
		{nil, false},
		{[]int{0}, true},
		{[]int{1, 0}, true},
		{[]int{2, 0, 1}, true},
		{[]int{0, 0}, false},  // duplicate
		{[]int{0, 2}, false},  // out of range
		{[]int{-1, 0}, false}, // negative
		{[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, true}, // beyond the stack fast path
	}
	for _, c := range cases {
		if got := validPermutation(c.perm); got != c.want {
			t.Errorf("validPermutation(%v) = %v, want %v", c.perm, got, c.want)
		}
	}
}

// An invalid or identity policy answer must leave the classical order (and
// the classical slice) in place; a valid one reorders only its tie run.
func TestPolicyOrderValidation(t *testing.T) {
	b := defaultBed(t)
	group := rankedRun(
		[]offer.Status{offer.Acceptable, offer.Acceptable, offer.Acceptable, offer.Constraint},
		[]float64{5, 5, 5, 3},
	)
	for name, bad := range map[string][]int{
		"nil":         nil,
		"wrong-len":   {1, 0},
		"duplicate":   {0, 0, 1},
		"out-of-kilt": {0, 1, 3},
		"identity":    {0, 1, 2},
	} {
		got, ranks := b.man.policyOrder(group, cost.BestEffort, orderFunc(func([]PolicyCandidate) []int { return bad }), "negotiate")
		if &got[0] != &group[0] || ranks != nil {
			t.Errorf("%s answer: classical slice not returned untouched", name)
		}
	}
	// A valid non-identity permutation reorders the 3-long tie run and
	// leaves the lone constraint offer where it was.
	got, ranks := b.man.policyOrder(group, cost.BestEffort, orderFunc(func(ties []PolicyCandidate) []int {
		if len(ties) != 3 {
			t.Fatalf("policy saw a run of %d, want 3", len(ties))
		}
		return []int{2, 0, 1}
	}), "negotiate")
	if &got[0] == &group[0] {
		t.Fatal("reorder mutated the classical slice instead of copying")
	}
	wantRanks := []int{2, 0, 1, 3}
	for i, r := range ranks {
		if r != wantRanks[i] {
			t.Fatalf("ranks = %v, want %v", ranks, wantRanks)
		}
	}
	if got[3].OIF != 3 {
		t.Error("offer outside the tie run moved")
	}
}

// TestPolicyOffAllocBound is the policy-off allocation gate: with no policy
// installed the ordering hook must return the classical slice untouched and
// allocate nothing, so the cached-negotiate bound
// (TestCachedNegotiateAllocBound) cannot regress from the policy layer.
func TestPolicyOffAllocBound(t *testing.T) {
	b := defaultBed(t)
	group := rankedRun(
		[]offer.Status{offer.Acceptable, offer.Acceptable, offer.Constraint},
		[]float64{5, 5, 3},
	)
	allocs := testing.AllocsPerRun(200, func() {
		out, ranks := b.man.policyOrder(group, cost.BestEffort, nil, "negotiate")
		if &out[0] != &group[0] || ranks != nil {
			t.Fatal("nil policy did not pass the group through")
		}
	})
	if allocs != 0 {
		t.Errorf("policy-off ordering allocates %.1f per negotiation, want 0", allocs)
	}
	if b.man.observer != nil {
		t.Error("policy-off manager resolved observers")
	}
}

// The observer is resolved once at construction: the policy itself when it
// learns, nothing when there is no policy.
func TestPolicyObservers(t *testing.T) {
	if got := NewManager(nil, nil, cost.DefaultPricing(), Options{}).observer; got != nil {
		t.Errorf("nil policy resolved observer %v", got)
	}
	ob := &countingPolicy{}
	if got := NewManager(nil, nil, cost.DefaultPricing(), Options{Policy: ob}).observer; got != ob {
		t.Errorf("learning policy resolved observer %v, want the policy", got)
	}
}

// orderFunc adapts a function to Policy.
type orderFunc func([]PolicyCandidate) []int

func (f orderFunc) Order(ties []PolicyCandidate) []int { return f(ties) }

// countingPolicy is a minimal learning policy for observer-resolution tests.
type countingPolicy struct {
	observed int
}

func (p *countingPolicy) Order(ties []PolicyCandidate) []int { return nil }
func (p *countingPolicy) ObserveCommit(CommitObservation)    { p.observed++ }
