package offer

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

// pipelineProfile is the Section 5 example request used across these tests.
func pipelineProfile() profile.UserProfile {
	return profile.UserProfile{
		Name: "pipeline",
		Desired: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.CDQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
		},
		Worst: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.BlackWhite, FrameRate: 10, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.TelephoneQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
		},
		Importance: profile.DefaultImportance(),
	}
}

// synthDoc builds a document with a configurable variant product.
func synthDoc(variants int) media.Document {
	doc := media.Document{ID: "synthetic", Title: "Synthetic", CopyrightFee: 500}
	dur := time.Minute
	video := media.Monomedia{ID: "video-1", Kind: qos.Video, Duration: dur}
	for v := 0; v < variants; v++ {
		video.Variants = append(video.Variants, media.VideoVariant(
			media.VariantID(fmt.Sprintf("v-%d", v)), "server-1", media.MPEG1,
			qos.VideoQoS{Color: qos.ColorQualities()[v%4], FrameRate: 5 + v%25, Resolution: 100 + 50*(v%8)},
			dur))
	}
	audio := media.Monomedia{ID: "audio-1", Kind: qos.Audio, Duration: dur}
	for v := 0; v < variants; v++ {
		grade := qos.TelephoneQuality
		if v%2 == 1 {
			grade = qos.CDQuality
		}
		audio.Variants = append(audio.Variants, media.AudioVariant(
			media.VariantID(fmt.Sprintf("a-%d", v)), "server-1", media.MPEG1Audio,
			qos.AudioQoS{Grade: grade, Language: qos.Language(fmt.Sprintf("l%d", v))}, dur))
	}
	text := media.Monomedia{ID: "text-1", Kind: qos.Text}
	for v := 0; v < variants; v++ {
		text.Variants = append(text.Variants, media.TextVariant(
			media.VariantID(fmt.Sprintf("t-%d", v)), "server-1",
			qos.Language(fmt.Sprintf("l%d", v)), 1024))
	}
	doc.Monomedia = []media.Monomedia{video, audio, text}
	return doc
}

// TestEnumerateMatchesWalk checks the streaming walk reproduces the
// materializing enumeration exactly: same order, same keys, same prices.
func TestEnumerateMatchesWalk(t *testing.T) {
	doc := newsDoc()
	m := client.Workstation("c1", "n1")
	pricing := cost.DefaultPricing()
	offers, err := Enumerate(doc, m, pricing, EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cands, err := Filter(context.Background(), doc, m, pricing, cost.BestEffort, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := cands.Offers(); got != len(offers) {
		t.Fatalf("Offers() = %d, want %d", got, len(offers))
	}
	i := 0
	Walk(doc, cands, func(o SystemOffer) bool {
		if o.Key() != offers[i].Key() {
			t.Fatalf("offer %d: key %q, want %q", i, o.Key(), offers[i].Key())
		}
		if o.Total() != offers[i].Total() {
			t.Fatalf("offer %d: total %v, want %v", i, o.Total(), offers[i].Total())
		}
		i++
		return true
	})
	if i != len(offers) {
		t.Fatalf("walked %d offers, want %d", i, len(offers))
	}
}

// filterTopK runs steps 2–4 the way the manager does: the step-2 filter, then
// the fused scoring and bounded classification over its candidates.
func filterTopK(ctx context.Context, doc media.Document, m client.Machine, u profile.UserProfile, opts PipelineOptions) ([]Ranked, error) {
	cands, err := Filter(ctx, doc, m, cost.DefaultPricing(), u.Desired.Cost.Guarantee, 0, nil)
	if err != nil {
		return nil, err
	}
	return TopKFromCandidates(ctx, doc, cands, u, opts)
}

// TestTopKFromCandidatesMatchesClassify checks the bounded pipeline returns
// exactly the prefix the classical enumerate+rank+sort produces, for every
// built-in orderer and several K — including the product sizes (2197, 4096)
// that once ran on a goroutine fan-out, unbounded and at the manager's
// default bound.
func TestTopKFromCandidatesMatchesClassify(t *testing.T) {
	m := client.Workstation("c1", "n1")
	u := pipelineProfile()
	for _, tc := range []struct {
		variants int // per monomedia: the product is variants^3
		ks       []int
	}{
		{8, []int{0, 1, 7, 64, 10_000}},
		{13, []int{0, 64}},
		{16, []int{0, 64}},
	} {
		doc := synthDoc(tc.variants)
		offers, err := Enumerate(doc, m, cost.DefaultPricing(), EnumerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.variants * tc.variants * tc.variants; len(offers) != want {
			t.Fatalf("synthDoc(%d): %d offers, want %d", tc.variants, len(offers), want)
		}
		for _, orderer := range []Orderer{SNSPrimary{}, OIFOnly{}, CostOnly{}, QoSOnly{}} {
			full := Rank(offers, u)
			Sort(full, orderer)
			for _, k := range tc.ks {
				got, err := filterTopK(context.Background(), doc, m, u, PipelineOptions{TopK: k, Orderer: orderer})
				if err != nil {
					t.Fatal(err)
				}
				want := full
				if k > 0 && k < len(full) {
					want = full[:k]
				}
				if len(got) != len(want) {
					t.Fatalf("%s n=%d k=%d: got %d offers, want %d", orderer.Name(), len(offers), k, len(got), len(want))
				}
				for i := range want {
					if got[i].Key() != want[i].Key() {
						t.Errorf("%s n=%d k=%d offer %d: %q, want %q", orderer.Name(), len(offers), k, i, got[i].Key(), want[i].Key())
					}
				}
			}
		}
	}
}

// TestEnumerateTopKErrors checks the pipeline propagates the step-2 error
// contract: NoVariantError and ErrTooManyOffers.
func TestEnumerateTopKErrors(t *testing.T) {
	doc := newsDoc()
	m := client.Workstation("c1", "n1")
	u := pipelineProfile()
	if _, err := filterTopK(context.Background(), doc, m, u, PipelineOptions{MaxOffers: 4}); !errors.Is(err, ErrTooManyOffers) {
		t.Errorf("tight MaxOffers: err = %v, want ErrTooManyOffers", err)
	}
	deaf := m
	deaf.Audio = 0
	var nv *NoVariantError
	if _, err := filterTopK(context.Background(), doc, deaf, u, PipelineOptions{}); !errors.As(err, &nv) {
		t.Errorf("deaf machine: err = %v, want NoVariantError", err)
	} else if nv.Monomedia != "audio" {
		t.Errorf("NoVariantError names %q", nv.Monomedia)
	}
}

// TestEnumerateTopKCanceled checks a context canceled after the step-2
// filter aborts scoring with the context's error.
func TestEnumerateTopKCanceled(t *testing.T) {
	doc := synthDoc(16)
	m := client.Workstation("c1", "n1")
	u := pipelineProfile()
	cands, err := Filter(context.Background(), doc, m, cost.DefaultPricing(), u.Desired.Cost.Guarantee, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TopKFromCandidates(ctx, doc, cands, u, PipelineOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if _, err := filterTopK(ctx, doc, m, u, PipelineOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("filter: err = %v, want context.Canceled", err)
	}
}

// TestTopKProperty cross-checks the bounded heap against a full sort on
// random rankings.
func TestTopKProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1996))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		tk := new(TopK)
		tk.Reset(k, SNSPrimary{}, n)
		all := make([]Ranked, n)
		for i := range all {
			r := Ranked{
				SystemOffer: &SystemOffer{
					Choices: []Choice{{Variant: media.Variant{ID: media.VariantID(fmt.Sprintf("v%d", i))}}},
					Cost:    cost.Breakdown{Total: cost.Money(rng.Intn(5))},
				},
				Status: Status(rng.Intn(3)),
				OIF:    float64(rng.Intn(4)),
			}
			all[i] = r
			tk.Add(r)
		}
		Sort(all, SNSPrimary{})
		want := all
		if k < len(all) {
			want = all[:k]
		}
		got := tk.Sorted()
		if len(got) != len(want) {
			t.Fatalf("trial %d: kept %d, want %d", trial, len(got), len(want))
		}
		less := SNSPrimary{}.Less
		for i := range want {
			if got[i].Key() != want[i].Key() || less(got[i], want[i]) || less(want[i], got[i]) {
				t.Fatalf("trial %d offer %d: got %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}
