package offer

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/qos"
)

// shapeDoc builds a document shaped like the benchmark's cold-catalog
// templates: video × audio × caption with nv, na and nt variants (2–6 each
// gives products 8–216), variant ids of uneven length, spread over two
// servers.
func shapeDoc(nv, na, nt int) media.Document {
	dur := 90 * time.Second
	server := func(i int) media.ServerID { return media.ServerID(fmt.Sprintf("server-%d", 1+i%2)) }
	video := media.Monomedia{ID: "video", Kind: qos.Video, Duration: dur}
	for j := 0; j < nv; j++ {
		video.Variants = append(video.Variants, media.VideoVariant(
			media.VariantID(fmt.Sprintf("video-v%d", 1<<(3*j))), server(j), media.MPEG1,
			qos.VideoQoS{Color: qos.ColorQualities()[j%4], FrameRate: 10 + 5*(j%4), Resolution: qos.TVResolution}, dur))
	}
	audio := media.Monomedia{ID: "audio", Kind: qos.Audio, Duration: dur}
	for j := 0; j < na; j++ {
		grade := qos.CDQuality
		if j%2 == 1 {
			grade = qos.TelephoneQuality
		}
		audio.Variants = append(audio.Variants, media.AudioVariant(
			media.VariantID(fmt.Sprintf("audio-v%d", j+1)), server(j+1), media.MPEG1Audio,
			qos.AudioQoS{Grade: grade, Language: qos.English}, dur))
	}
	text := media.Monomedia{ID: "caption", Kind: qos.Text}
	for j := 0; j < nt; j++ {
		text.Variants = append(text.Variants, media.TextVariant(
			media.VariantID(fmt.Sprintf("caption-v%d", j+1)), server(j), qos.English, 4096))
	}
	return media.Document{
		ID: media.DocumentID(fmt.Sprintf("shape-%d-%d-%d", nv, na, nt)), Title: "Shape",
		CopyrightFee: int64(100 * (nv % 3)),
		Monomedia:    []media.Monomedia{video, audio, text},
	}
}

// discreteDoc has no continuous monomedia, so no offer carries cost lines.
func discreteDoc() media.Document {
	text := media.Monomedia{ID: "body", Kind: qos.Text, Variants: []media.Variant{
		media.TextVariant("body-en", "server-1", qos.English, 2048),
		media.TextVariant("body-fr", "server-2", qos.French, 2048),
	}}
	image := media.Monomedia{ID: "photo", Kind: qos.Image, Variants: []media.Variant{
		media.ImageVariant("photo-hi", "server-1", media.JPEG, qos.ImageQoS{Color: qos.Color, Resolution: 640}),
		media.ImageVariant("photo-lo", "server-2", media.JPEG, qos.ImageQoS{Color: qos.Grey, Resolution: 320}),
		media.ImageVariant("photo-bw", "server-2", media.JPEG, qos.ImageQoS{Color: qos.BlackWhite, Resolution: 320}),
	}}
	return media.Document{ID: "discrete-1", Title: "Discrete", CopyrightFee: 50, Monomedia: []media.Monomedia{text, image}}
}

// slabDocs is every document shape the differential test covers.
func slabDocs() []media.Document {
	docs := []media.Document{newsDoc(), scalableDoc(), discreteDoc()}
	for nv := 2; nv <= 6; nv++ {
		for na := 2; na <= 6; na++ {
			for nt := 2; nt <= 6; nt++ {
				docs = append(docs, shapeDoc(nv, na, nt))
			}
		}
	}
	return docs
}

// TestFromCandidatesMatchesBuildOffer holds the slab builder to the per-offer
// materializer: same offers in the same order, field for field and byte for
// byte on the wire.
func TestFromCandidatesMatchesBuildOffer(t *testing.T) {
	mach := client.Workstation("c1", "n1")
	for _, doc := range slabDocs() {
		for _, g := range []cost.Guarantee{cost.BestEffort, cost.Guaranteed} {
			cands, err := Filter(context.Background(), doc, mach, cost.DefaultPricing(), g, 0, nil)
			if err != nil {
				t.Fatalf("%s: %v", doc.ID, err)
			}
			got, err := FromCandidates(doc, cands, 0)
			if err != nil {
				t.Fatalf("%s: %v", doc.ID, err)
			}
			var want []SystemOffer
			Walk(doc, cands, func(o SystemOffer) bool {
				want = append(want, o)
				return true
			})
			if len(got) != len(want) || len(got) != cands.Offers() {
				t.Fatalf("%s: %d slab offers, %d walked, product %d", doc.ID, len(got), len(want), cands.Offers())
			}
			for i := range want {
				if got[i].Key() != want[i].Key() || got[i].Total() != want[i].Total() {
					t.Fatalf("%s offer %d: slab %s at %v, walk %s at %v", doc.ID, i, got[i].Key(), got[i].Total(), want[i].Key(), want[i].Total())
				}
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s offer %d differs:\nslab %+v\nwalk %+v", doc.ID, i, got[i], want[i])
				}
			}
			gotJSON, _ := json.Marshal(got)
			wantJSON, _ := json.Marshal(want)
			if string(gotJSON) != string(wantJSON) {
				t.Fatalf("%s: slab and walked products encode differently", doc.ID)
			}
		}
	}
}

// TestSlabOffersDoNotAlias appends through every slice one offer hands out
// and checks its neighbours in the slabs are untouched.
func TestSlabOffersDoNotAlias(t *testing.T) {
	doc := shapeDoc(3, 3, 3)
	cands, err := Filter(context.Background(), doc, client.Workstation("c1", "n1"), cost.DefaultPricing(), cost.BestEffort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	offers, err := FromCandidates(doc, cands, 0)
	if err != nil {
		t.Fatal(err)
	}
	pristine, _ := FromCandidates(doc, cands, 0)
	for i := range offers {
		o := &offers[i]
		_ = append(o.Choices, Choice{Monomedia: "intruder"})
		_ = append(o.Cost.Network, -1)
		_ = append(o.Cost.Server, -1)
	}
	if !reflect.DeepEqual(offers, pristine) {
		t.Fatal("appending to one offer's Choices/Cost lines wrote into another offer")
	}
	// The candidate lists are windows of one array, too.
	for i := range cands {
		_ = append(cands[i], Candidate{NetworkCost: -1})
	}
	again, _ := FromCandidates(doc, cands, 0)
	if !reflect.DeepEqual(again, pristine) {
		t.Fatal("appending to one monomedia's candidates wrote into the next monomedia's")
	}
}

// TestEmptyMonomediaCandidates: a candidate set with an empty monomedia used
// to panic with an integer divide by zero in the product check.
func TestEmptyMonomediaCandidates(t *testing.T) {
	doc := shapeDoc(2, 2, 2)
	cands, err := Filter(context.Background(), doc, client.Workstation("c1", "n1"), cost.DefaultPricing(), cost.BestEffort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cands[1] = nil
	var nv *NoVariantError
	if _, err := FromCandidates(doc, cands, 0); !errors.As(err, &nv) || nv.Monomedia != "audio" {
		t.Errorf("FromCandidates = %v, want NoVariantError for audio", err)
	}
	nv = nil
	if _, err := TopKFromCandidates(context.Background(), doc, cands, pipelineProfile(), PipelineOptions{}); !errors.As(err, &nv) || nv.Monomedia != "audio" {
		t.Errorf("TopKFromCandidates = %v, want NoVariantError for audio", err)
	}
	// The reported shape: more lists than the document has monomedia.
	if _, err := FromCandidates(media.Document{ID: "empty"}, Candidates{{}, {}}, 0); err == nil {
		t.Error("FromCandidates accepted candidates for monomedia the document does not have")
	}
}

// BenchmarkMissPath is the unit-level view of an offer-cache miss: step 2,
// the materialized product and the bounded classification over it. With
// -benchmem its allocs/op should not grow with the product.
func BenchmarkMissPath(b *testing.B) {
	mach := client.Workstation("c1", "n1")
	pricing := cost.DefaultPricing()
	u := pipelineProfile()
	ctx := context.Background()
	for _, side := range []int{2, 4, 6} {
		doc := shapeDoc(side, side, side)
		b.Run(fmt.Sprintf("product=%d", side*side*side), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cands, err := Filter(ctx, doc, mach, pricing, cost.BestEffort, 0, nil)
				if err != nil {
					b.Fatal(err)
				}
				prebuilt, err := FromCandidates(doc, cands, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := TopKFromCandidates(ctx, doc, cands, u, PipelineOptions{TopK: 64, Prebuilt: prebuilt}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
