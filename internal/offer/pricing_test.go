package offer

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/qos"
)

// billedItems lists an offer's Section 7 billing items from its own
// choices: one per continuous monomedia, at the chosen variant's mapped
// average rate, for the monomedia's duration.
func billedItems(doc media.Document, o SystemOffer) []cost.Item {
	var items []cost.Item
	for i, c := range o.Choices {
		mono := doc.Monomedia[i]
		if mono.Kind.Continuous() {
			items = append(items, cost.Item{Rate: c.Variant.NetworkQoS().AvgBitRate, Duration: mono.Duration})
		}
	}
	return items
}

// randomCatalog draws documents of random duration and copyright fee with
// random video, audio and language ladders, an optional still image and,
// on some, a scalable video variant that filtering expands into layers.
func randomCatalog(rng *rand.Rand, n int) []media.Document {
	colors := qos.ColorQualities()
	grades := []qos.AudioGrade{qos.TelephoneQuality, qos.CDQuality}
	langs := []qos.Language{qos.English, qos.French, "de"}
	docs := make([]media.Document, n)
	for d := range docs {
		spec := media.NewsArticleSpec{
			ID:           media.DocumentID(fmt.Sprintf("doc-%d", d)),
			Title:        fmt.Sprintf("Random %d", d),
			Duration:     time.Duration(10+rng.Intn(600)) * time.Second,
			Servers:      []media.ServerID{"server-1", "server-2", "server-3"},
			WithImage:    rng.Intn(3) == 0,
			CopyrightFee: int64(rng.Intn(1000)),
		}
		for v := rng.Intn(5); v >= 0; v-- {
			spec.VideoQualities = append(spec.VideoQualities, qos.VideoQoS{
				Color: colors[rng.Intn(len(colors))], FrameRate: 5 + rng.Intn(26), Resolution: 100 + 50*rng.Intn(12)})
		}
		for a := rng.Intn(3); a > 0; a-- {
			spec.AudioQualities = append(spec.AudioQualities, qos.AudioQoS{Grade: grades[rng.Intn(len(grades))], Language: langs[rng.Intn(len(langs))]})
		}
		spec.Languages = langs[:rng.Intn(len(langs))+1]
		doc := media.BuildNewsArticle(spec)
		if rng.Intn(3) == 0 {
			video := &doc.Monomedia[0]
			video.Variants = append(video.Variants, media.VideoVariant("video-scalable", "server-1", media.ScalableMPEG,
				qos.VideoQoS{Color: qos.Color, FrameRate: 30 + rng.Intn(31), Resolution: qos.TVResolution}, spec.Duration))
		}
		docs[d] = doc
	}
	return docs
}

// TestPipelinePricesBySection7 holds the negotiation pipeline's prices to
// the Section 7 formula as cost.Pricing.Document computes it: for every
// offer of the Section 5 article and of a seeded random catalog, under both
// guarantees, the Breakdown of the materialized product (Enumerate) and of
// the ranked top K, unbounded and at K = 8, where offers reuse the slots of
// dropped ones (TopKFromCandidates, whose score must also use that total),
// equals Document over the offer's
// continuous items. Dropping a term in Document or in any of those paths
// fails it.
func TestPipelinePricesBySection7(t *testing.T) {
	pricing := cost.DefaultPricing()
	m := client.Workstation("c1", "n1")
	u := pipelineProfile()
	docs := append([]media.Document{newsDoc()}, randomCatalog(rand.New(rand.NewSource(1996)), 40)...)
	checked := 0
	for _, doc := range docs {
		for _, g := range []cost.Guarantee{cost.BestEffort, cost.Guaranteed} {
			check := func(path string, o SystemOffer) {
				t.Helper()
				want := pricing.Document(cost.Money(doc.CopyrightFee), g, billedItems(doc, o))
				if !reflect.DeepEqual(o.Cost, want) {
					t.Fatalf("%s %s %v offer %s: pipeline prices %+v, Section 7 formula %+v", doc.ID, g, path, o.Key(), o.Cost, want)
				}
				checked++
			}
			offers, err := Enumerate(doc, m, pricing, EnumerateOptions{Guarantee: g})
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range offers {
				check("Enumerate", o)
			}
			cands, err := Filter(context.Background(), doc, m, pricing, g, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{0, 8} {
				ranked, err := TopKFromCandidates(context.Background(), doc, cands, u, PipelineOptions{TopK: k})
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range ranked.All() {
					check(fmt.Sprintf("TopKFromCandidates k=%d", k), *r.SystemOffer)
					if want := Rank([]SystemOffer{*r.SystemOffer}, u)[0]; r.OIF != want.OIF || r.Status != want.Status {
						t.Fatalf("%s %s offer %s: scored OIF %v status %v, its priced total gives %v %v", doc.ID, g, r.Key(), r.OIF, r.Status, want.OIF, want.Status)
					}
				}
			}
		}
	}
	t.Logf("%d offer prices checked", checked)
}
