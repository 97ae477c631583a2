package offer

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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

// replicaDoc is synthDoc with every variant stored twice, on two servers:
// the replicas have equal QoS and equal prices, so every orderer meets ties
// that only the key breaks. A replica's id is its twin's plus "+r", so ids
// hold "+" and are prefixes of one another.
func replicaDoc(variants int) media.Document {
	doc := synthDoc((variants + 1) / 2)
	doc.ID = "replicas"
	for i := range doc.Monomedia {
		mono := &doc.Monomedia[i]
		var vs []media.Variant
		for _, v := range mono.Variants {
			twin := v
			twin.ID += "+r"
			twin.Server = "server-2"
			vs = append(vs, v, twin)
		}
		mono.Variants = vs[:variants]
	}
	return doc
}

// TestEnumerateMatchesWalk checks the materializing enumeration against the
// reference walk, which builds each offer on its own: same order, same
// keys, same prices.
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
	walked := referenceOffers(doc, cands)
	if len(walked) != len(offers) {
		t.Fatalf("walked %d offers, want %d", len(walked), len(offers))
	}
	for i, o := range walked {
		if o.Key() != offers[i].Key() {
			t.Fatalf("offer %d: key %q, want %q", i, o.Key(), offers[i].Key())
		}
		if o.Total() != offers[i].Total() {
			t.Fatalf("offer %d: total %v, want %v", i, o.Total(), offers[i].Total())
		}
	}
}

// filterTopK runs steps 2–4 the way the manager does: the step-2 filter, then
// the fused scoring and bounded classification over its candidates, read in
// full.
func filterTopK(ctx context.Context, doc media.Document, m client.Machine, u profile.UserProfile, opts PipelineOptions) ([]Ranked, error) {
	cands, err := Filter(ctx, doc, m, cost.DefaultPricing(), u.Desired.Cost.Guarantee, 0, nil)
	if err != nil {
		return nil, err
	}
	c, err := TopKFromCandidates(ctx, doc, cands, u, opts)
	return c.All(), err
}

// TestTopKFromCandidatesMatchesClassify checks the bounded pipeline returns
// exactly the prefix the classical enumerate+rank+sort produces, offer for
// offer, for every built-in orderer and several K — including the product
// sizes (2197, 4096) that once ran on a goroutine fan-out, unbounded (K 0
// and -1) and at the manager's default bound, on distinct variants and on
// replicated ones whose ties only the key breaks. The offers the pipeline
// writes into reused slots must equal the enumerated ones field for field.
func TestTopKFromCandidatesMatchesClassify(t *testing.T) {
	m := client.Workstation("c1", "n1")
	u := pipelineProfile()
	for _, tc := range []struct {
		doc media.Document // three monomedia, so the product is variants^3
		ks  []int
	}{
		{synthDoc(8), []int{0, -1, 1, 7, 64, 10_000}},
		{synthDoc(13), []int{0, 64}},
		{synthDoc(16), []int{0, 64}},
		{replicaDoc(4), []int{0, -1, 7, 64}},
		{replicaDoc(16), []int{0, -1, 64}},
	} {
		doc := tc.doc
		offers, err := Enumerate(doc, m, cost.DefaultPricing(), EnumerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(doc.Monomedia[0].Variants); len(offers) != n*n*n {
			t.Fatalf("%s: %d offers, want %d", doc.ID, len(offers), n*n*n)
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
						t.Fatalf("%s %s n=%d k=%d offer %d: %q, want %q", doc.ID, orderer.Name(), len(offers), k, i, got[i].Key(), want[i].Key())
					}
					if !reflect.DeepEqual(*got[i].SystemOffer, *want[i].SystemOffer) || got[i].Status != want[i].Status || got[i].OIF != want[i].OIF || got[i].QoSImportance != want[i].QoSImportance {
						t.Fatalf("%s %s n=%d k=%d offer %d differs:\ngot  %+v %+v\nwant %+v %+v", doc.ID, orderer.Name(), len(offers), k, i, got[i], *got[i].SystemOffer, want[i], *want[i].SystemOffer)
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
// random rankings, for every orderer, at random K, at the manager's 64 and
// unbounded (K 0 and -1), on up to 4 096 offers. The numeric fields take
// few values and the offers come in replica pairs of equal figures, so ties
// reach the key, whose ids hold "+" and are prefixes of one another. Every
// Add must also return what it dropped: nothing while the collector fills,
// then the arrival or the offer it evicted, so that kept and dropped
// offers together are every offer added, each once.
func TestTopKProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1996))
	for trial := 0; trial < 48; trial++ {
		n := 1 + rng.Intn(200)
		if trial%8 == 0 {
			n = 1 + rng.Intn(4096)
		}
		k := []int{1 + rng.Intn(20), 64, 0, -1}[trial%4]
		orderer := orderers[(trial/4)%len(orderers)]
		tk := new(TopK)
		tk.Reset(k, orderer, n)
		all := make([]Ranked, n)
		seen := map[*SystemOffer]bool{}
		dropped := 0
		for i := range all {
			r := Ranked{
				SystemOffer: &SystemOffer{
					Choices: []Choice{{Variant: &media.Variant{ID: media.VariantID(fmt.Sprintf("v%d", i/2))}}},
					Cost:    cost.Breakdown{Total: cost.Money(rng.Intn(5))},
				},
				Status:        Status(rng.Intn(3)),
				OIF:           float64(rng.Intn(4)),
				QoSImportance: float64(rng.Intn(4)),
			}
			if i%2 == 1 { // the replica of offer i-1: equal figures, its id and "+r"
				twin := *all[i-1].SystemOffer
				twin.Choices = []Choice{{Variant: &media.Variant{ID: twin.Choices[0].Variant.ID + "+r"}}}
				r = all[i-1]
				r.SystemOffer = &twin
			}
			all[i] = r
			full := tk.Full()
			d := tk.Add(r)
			switch {
			case !full && d != nil:
				t.Fatalf("trial %d: Add %d dropped %s from a collector that was not full", trial, i, d.Key())
			case full && d == nil:
				t.Fatalf("trial %d: Add %d to a full collector dropped nothing", trial, i)
			case d != nil && seen[d]:
				t.Fatalf("trial %d: Add %d dropped %s a second time", trial, i, d.Key())
			case d != nil:
				seen[d] = true
				dropped++
			}
		}
		Sort(all, orderer)
		want := all
		if k > 0 && k < len(all) {
			want = all[:k]
		}
		c := tk.Classified()
		got := c.All()
		if len(got) != len(want) || len(got)+dropped != n {
			t.Fatalf("trial %d: kept %d and dropped %d of %d, want %d kept", trial, len(got), dropped, n, len(want))
		}
		less := orderer.Less
		for i := range want {
			if got[i].SystemOffer != want[i].SystemOffer || seen[got[i].SystemOffer] || less(got[i], want[i]) || less(want[i], got[i]) {
				t.Fatalf("trial %d %s n=%d k=%d offer %d: got %s %+v, want %s %+v", trial, orderer.Name(), n, k, i, got[i].Key(), got[i], want[i].Key(), want[i])
			}
		}
	}
}
