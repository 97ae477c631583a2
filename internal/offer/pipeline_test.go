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

// TestEnumerateTopKMatchesClassify checks the parallel bounded pipeline
// returns exactly the prefix the classical enumerate+rank+sort produces,
// for every built-in orderer and several K.
func TestEnumerateTopKMatchesClassify(t *testing.T) {
	doc := synthDoc(8) // 512 offers
	m := client.Workstation("c1", "n1")
	pricing := cost.DefaultPricing()
	u := pipelineProfile()
	offers, err := Enumerate(doc, m, pricing, EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, orderer := range []Orderer{SNSPrimary{}, OIFOnly{}, CostOnly{}, QoSOnly{}} {
		full := Rank(offers, u)
		orderer.(Classifier).Sort(full)
		for _, k := range []int{0, 1, 7, 64, 10_000} {
			got, err := EnumerateTopK(context.Background(), doc, m, pricing, u, PipelineOptions{
				TopK: k, Workers: 4, Orderer: orderer,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := full
			if k > 0 && k < len(full) {
				want = full[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: got %d offers, want %d", orderer.(Classifier).Name(), k, len(got), len(want))
			}
			for i := range want {
				if got[i].Key() != want[i].Key() {
					t.Errorf("%s k=%d offer %d: %q, want %q", orderer.(Classifier).Name(), k, i, got[i].Key(), want[i].Key())
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
	pricing := cost.DefaultPricing()
	u := pipelineProfile()
	if _, err := EnumerateTopK(context.Background(), doc, m, pricing, u, PipelineOptions{MaxOffers: 4}); !errors.Is(err, ErrTooManyOffers) {
		t.Errorf("tight MaxOffers: err = %v, want ErrTooManyOffers", err)
	}
	deaf := m
	deaf.Audio = 0
	var nv *NoVariantError
	if _, err := EnumerateTopK(context.Background(), doc, deaf, pricing, u, PipelineOptions{}); !errors.As(err, &nv) {
		t.Errorf("deaf machine: err = %v, want NoVariantError", err)
	} else if nv.Monomedia != "audio" {
		t.Errorf("NoVariantError names %q", nv.Monomedia)
	}
}

// TestEnumerateTopKCanceled checks a pre-canceled context aborts the
// pipeline with the context's error.
func TestEnumerateTopKCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	doc := synthDoc(16) // 4096 offers: the parallel path
	m := client.Workstation("c1", "n1")
	_, err := EnumerateTopK(ctx, doc, m, cost.DefaultPricing(), pipelineProfile(), PipelineOptions{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestTopKProperty cross-checks the bounded heap against a full sort on
// random rankings.
func TestTopKProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1996))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		tk := NewTopK(k, SNSPrimary{})
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
		SNSPrimary{}.Sort(all)
		want := all
		if k < len(all) {
			want = all[:k]
		}
		got := tk.Sorted()
		if len(got) != len(want) {
			t.Fatalf("trial %d: kept %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Key() != want[i].Key() || snsLess(got[i], want[i]) || snsLess(want[i], got[i]) {
				t.Fatalf("trial %d offer %d: got %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}
