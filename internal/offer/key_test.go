package offer

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"qosneg/internal/media"
)

// keyPool holds ids that are prefixes of one another and ids holding "+",
// "*", "!" and an empty id: the bytes around "+" in byte order, and the
// places where a choice-wise comparison and the joined keys could part.
var keyPool = []media.VariantID{"", "a", "a+", "a+b", "a+b+", "ab", "a*", "a!", "a*b", "+", "++", "+a", "*", "!", "b", "b+a", "v1", "v10", "v1+0"}

// keyOffers is two offers of 0 to 4 choices and their keys, joined here
// from the ids. The ids come from keyPool, through shared variants so that
// the offers share leading choices, or are random strings over "ab+*!".
// An offer sometimes has its key rendered, or is only its Summary, so that
// rendered, unrendered and choiceless keys meet.
type keyOffers struct {
	offers [2]SystemOffer
	keys   [2]string
}

func (keyOffers) Generate(r *rand.Rand, _ int) reflect.Value {
	pool := make([]media.Variant, len(keyPool))
	for i, id := range keyPool {
		pool[i].ID = id
	}
	var k keyOffers
	for n := range k.offers {
		o := SystemOffer{Document: "doc"}
		var ids []string
		for range r.Intn(5) {
			v := &pool[r.Intn(len(pool))]
			if r.Intn(3) == 0 {
				var b strings.Builder
				for range r.Intn(4) {
					b.WriteByte("ab+*!"[r.Intn(5)])
				}
				v = &media.Variant{ID: media.VariantID(b.String())}
			}
			o.Choices = append(o.Choices, Choice{Variant: v})
			ids = append(ids, string(v.ID))
		}
		switch r.Intn(4) {
		case 0:
			RenderKeys([]Ranked{{SystemOffer: &o}})
		case 1:
			o = o.Summary()
		}
		k.offers[n], k.keys[n] = o, strings.Join(ids, "+")
	}
	return reflect.ValueOf(k)
}

// TestCompareKeysMatchesJoinedKeys: Key joins the variant ids with "+", and
// CompareKeys orders two offers exactly as strings.Compare orders those
// joined keys; it allocates nothing.
func TestCompareKeysMatchesJoinedKeys(t *testing.T) {
	check := func(k keyOffers) bool {
		a, b := &k.offers[0], &k.offers[1]
		if a.Key() != k.keys[0] || b.Key() != k.keys[1] {
			t.Logf("keys %q and %q, want %q and %q", a.Key(), b.Key(), k.keys[0], k.keys[1])
			return false
		}
		want := strings.Compare(k.keys[0], k.keys[1])
		if got := CompareKeys(a, b); got != want {
			t.Logf("CompareKeys(%q, %q) = %d, want %d", k.keys[0], k.keys[1], got, want)
			return false
		}
		if got := CompareKeys(b, a); got != -want {
			t.Logf("CompareKeys(%q, %q) = %d, want %d", k.keys[1], k.keys[0], got, -want)
			return false
		}
		return CompareKeys(a, a) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20000, Rand: rand.New(rand.NewSource(1996))}); err != nil {
		t.Error(err)
	}
	a := SystemOffer{Choices: []Choice{{Variant: &media.Variant{ID: "video-v1"}}, {Variant: &media.Variant{ID: "a+"}}}}
	b := SystemOffer{Choices: []Choice{{Variant: a.Choices[0].Variant}, {Variant: &media.Variant{ID: "a"}}, {Variant: &media.Variant{ID: "+b"}}}}
	if allocs := testing.AllocsPerRun(100, func() { CompareKeys(&a, &b) }); allocs != 0 {
		t.Errorf("CompareKeys allocated %.0f objects, want 0", allocs)
	}
}
