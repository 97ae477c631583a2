package offer

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"qosneg/internal/client"
	"qosneg/internal/cost"
	"qosneg/internal/media"
)

// viewOffers returns n ranked offers with unique keys and few distinct
// numeric fields, so every orderer meets ties it must break on the key.
func viewOffers(rng *rand.Rand, n int) []Ranked {
	out := make([]Ranked, n)
	for i := range out {
		out[i] = Ranked{
			SystemOffer: &SystemOffer{
				Choices: []Choice{{Variant: &media.Variant{ID: media.VariantID(fmt.Sprintf("v%d", i))}}},
				Cost:    cost.Breakdown{Total: cost.Money(rng.Intn(4))},
			},
			Status:        Status(rng.Intn(3)),
			OIF:           float64(rng.Intn(3)),
			QoSImportance: float64(rng.Intn(3)),
		}
	}
	return out
}

// collect feeds offers to a collector keeping k of them and returns its view.
func collect(offers []Ranked, k int, o Orderer) Classified {
	var tk TopK
	tk.Reset(k, o, len(offers))
	for _, r := range offers {
		tk.Add(r)
	}
	return tk.Classified()
}

var orderers = []Orderer{SNSPrimary{}, OIFOnly{}, CostOnly{}, QoSOnly{}}

// TestClassifiedReadsInOrder holds the view to the full sort for every
// orderer: any sequence of At reads followed by All gives Sort's order, and
// an offer At returned never moves from its position.
func TestClassifiedReadsInOrder(t *testing.T) {
	check := func(seed int64, reads []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		k := rng.Intn(n + 8) // 0 keeps every offer
		offers := viewOffers(rng, n)
		for _, o := range orderers {
			want := append([]Ranked(nil), offers...)
			Sort(want, o)
			if k > 0 && k < n {
				want = want[:k]
			}
			v := collect(offers, k, o)
			if v.Len() != len(want) {
				t.Logf("%s n=%d k=%d: Len %d, want %d", o.Name(), n, k, v.Len(), len(want))
				return false
			}
			read := map[int]*SystemOffer{}
			for _, b := range reads {
				i := int(b) % len(want)
				read[i] = v.At(i).SystemOffer
				for j, got := range read {
					if got != want[j].SystemOffer || v.At(j).SystemOffer != got {
						t.Logf("%s n=%d k=%d reads %v: position %d holds %s, want %s", o.Name(), n, k, reads, j, v.At(j).Key(), want[j].Key())
						return false
					}
				}
			}
			for i, r := range v.All() {
				if r.SystemOffer != want[i].SystemOffer {
					t.Logf("%s n=%d k=%d reads %v: All[%d] = %s, want %s", o.Name(), n, k, reads, i, r.Key(), want[i].Key())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1996))}); err != nil {
		t.Error(err)
	}
}

// countingOrderer counts the comparisons an orderer makes.
type countingOrderer struct {
	Orderer
	calls *int
}

func (c countingOrderer) Less(a, b Ranked) bool {
	*c.calls++
	return c.Orderer.Less(a, b)
}

// TestClassifiedFirstReadIsOnePass: a collector that never fills — n ≤ K,
// or no bound — collects without a comparison, and the best offer of a
// fresh view of n offers costs at most n−1 comparisons, what a selection
// pass makes and far below a sort's.
func TestClassifiedFirstReadIsOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(1996))
	for _, n := range []int{1, 2, 3, 7, 32, 64, 65, 200} {
		for _, k := range []int{0, 64} {
			calls := 0
			o := countingOrderer{SNSPrimary{}, &calls}
			offers := viewOffers(rng, n)
			v := collect(offers, k, o)
			if fills := k > 0 && n > k; !fills && calls != 0 {
				t.Errorf("n=%d k=%d: collecting made %d comparisons, want 0", n, k, calls)
			}
			want := append([]Ranked(nil), offers...)
			Sort(want, SNSPrimary{})
			calls = 0
			if got := v.At(0); got.SystemOffer != want[0].SystemOffer {
				t.Fatalf("n=%d k=%d: At(0) = %s, want %s", n, k, got.Key(), want[0].Key())
			}
			if limit := v.Len() - 1; calls > limit {
				t.Errorf("n=%d k=%d: At(0) on %d offers made %d comparisons, want at most %d", n, k, v.Len(), calls, limit)
			}
		}
	}
}

// classifySink keeps the benchmark's reads from being optimized away.
var classifySink Ranked

// BenchmarkClassifyFirst times steps 3–4 on a product kept to 64, as a
// cache-hot negotiation runs them, read the way step 5 reads when its first
// offer commits (first) and read in full (all): a product of 216 offers,
// which fills the bound, and one of 32, the news article's, which does not.
func BenchmarkClassifyFirst(b *testing.B) {
	ctx := context.Background()
	u := pipelineProfile()
	for _, shape := range [][3]int{{6, 6, 6}, {4, 4, 2}} {
		doc := shapeDoc(shape[0], shape[1], shape[2])
		cands, err := Filter(ctx, doc, client.Workstation("c1", "n1"), cost.DefaultPricing(), cost.BestEffort, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		prebuilt, err := FromCandidates(doc, cands, 0)
		if err != nil {
			b.Fatal(err)
		}
		opts := PipelineOptions{TopK: 64, Prebuilt: prebuilt}
		for _, all := range []bool{false, true} {
			name := fmt.Sprintf("product=%d/first", len(prebuilt))
			if all {
				name = fmt.Sprintf("product=%d/all", len(prebuilt))
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c, err := TopKFromCandidates(ctx, doc, cands, u, opts)
					if err != nil {
						b.Fatal(err)
					}
					if all {
						classifySink = c.All()[0]
					} else {
						classifySink = c.At(0)
					}
				}
			})
		}
	}
}
