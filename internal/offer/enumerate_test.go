package offer

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

func newsDoc() media.Document {
	return media.BuildNewsArticle(media.NewsArticleSpec{
		ID:       "news-1",
		Title:    "Election night",
		Duration: 2 * time.Minute,
		Servers:  []media.ServerID{"server-1", "server-2"},
		VideoQualities: []qos.VideoQoS{
			{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			{Color: qos.Grey, FrameRate: 25, Resolution: qos.TVResolution},
			{Color: qos.BlackWhite, FrameRate: 15, Resolution: qos.TVResolution},
		},
		AudioQualities: []qos.AudioQoS{
			{Grade: qos.CDQuality, Language: qos.English},
			{Grade: qos.TelephoneQuality, Language: qos.English},
		},
		Languages:    []qos.Language{qos.English, qos.French},
		CopyrightFee: 500,
	})
}

func TestEnumerateProduct(t *testing.T) {
	doc := newsDoc()
	m := client.Workstation("c1", "n1")
	offers, err := Enumerate(doc, m, cost.DefaultPricing(), EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 video × 2 audio × 2 text = 12 offers.
	if len(offers) != 12 {
		t.Fatalf("enumerated %d offers, want 12", len(offers))
	}
	// Every offer selects exactly one variant per monomedia, and keys are
	// unique.
	keys := map[string]bool{}
	for _, o := range offers {
		if len(o.Choices) != 3 {
			t.Errorf("offer has %d choices", len(o.Choices))
		}
		if keys[o.Key()] {
			t.Errorf("duplicate offer key %s", o.Key())
		}
		keys[o.Key()] = true
		if o.Document != "news-1" {
			t.Errorf("offer document = %s", o.Document)
		}
		// Copyright is carried into every offer.
		if o.Cost.Copyright != 500 {
			t.Errorf("copyright = %v", o.Cost.Copyright)
		}
		// Continuous media are billed; text is not.
		if len(o.Cost.Network) != 2 {
			t.Errorf("billed %d items, want 2", len(o.Cost.Network))
		}
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	doc := newsDoc()
	m := client.Workstation("c1", "n1")
	a, _ := Enumerate(doc, m, cost.DefaultPricing(), EnumerateOptions{})
	b, _ := Enumerate(doc, m, cost.DefaultPricing(), EnumerateOptions{})
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("enumeration order unstable at %d", i)
		}
	}
}

func TestEnumerateFiltersUndecodable(t *testing.T) {
	doc := newsDoc()
	m := client.Terminal("c1", "n1") // no CD audio, grey screen ok; MPEG-1 only
	offers, err := Enumerate(doc, m, cost.DefaultPricing(), EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Terminal: telephone audio only → 1 audio variant; all 3 videos are
	// MPEG-1 ≤640px ≤25fps → 3; text 2 → 6 offers.
	if len(offers) != 6 {
		t.Fatalf("enumerated %d offers, want 6", len(offers))
	}
	for _, o := range offers {
		for _, c := range o.Choices {
			if !m.CanDecode(c.Variant) {
				t.Errorf("offer includes undecodable variant %s", c.Variant.ID)
			}
		}
	}
}

func TestEnumerateNoVariantError(t *testing.T) {
	doc := newsDoc()
	m := client.Terminal("c1", "n1")
	m.Decoders = []media.Format{media.MPEG1, media.GIF, media.PlainText} // no audio decoder
	_, err := Enumerate(doc, m, cost.DefaultPricing(), EnumerateOptions{})
	var nv *NoVariantError
	if !errors.As(err, &nv) {
		t.Fatalf("want NoVariantError, got %v", err)
	}
	if nv.Monomedia != "audio" {
		t.Errorf("failing monomedia = %s", nv.Monomedia)
	}
	if nv.Error() == "" {
		t.Error("empty error text")
	}
}

func TestEnumerateTooManyOffers(t *testing.T) {
	doc := newsDoc()
	m := client.Workstation("c1", "n1")
	_, err := Enumerate(doc, m, cost.DefaultPricing(), EnumerateOptions{MaxOffers: 5})
	if !errors.Is(err, ErrTooManyOffers) {
		t.Errorf("want ErrTooManyOffers, got %v", err)
	}
}

func TestEnumerateGuaranteePricing(t *testing.T) {
	doc := newsDoc()
	m := client.Workstation("c1", "n1")
	be, _ := Enumerate(doc, m, cost.DefaultPricing(), EnumerateOptions{Guarantee: cost.BestEffort})
	gu, _ := Enumerate(doc, m, cost.DefaultPricing(), EnumerateOptions{Guarantee: cost.Guaranteed})
	if gu[0].Total() <= be[0].Total() {
		t.Errorf("guaranteed %v should cost more than best effort %v", gu[0].Total(), be[0].Total())
	}
}

func TestEnumerateCostOrdering(t *testing.T) {
	// Higher-quality variant combinations must not be cheaper than the
	// all-minimum combination.
	doc := newsDoc()
	m := client.Workstation("c1", "n1")
	offers, _ := Enumerate(doc, m, cost.DefaultPricing(), EnumerateOptions{})
	ranked := Rank(offers, profile.UserProfile{Importance: profile.DefaultImportance()})
	Sort(ranked, CostOnly{})
	cheapest, priciest := ranked[0], ranked[len(ranked)-1]
	if cheapest.Total() > priciest.Total() {
		t.Error("cost-only sort broken")
	}
	if cheapest.QoSImportance > priciest.QoSImportance {
		t.Errorf("cheapest offer (%g) has better QoS than priciest (%g)",
			cheapest.QoSImportance, priciest.QoSImportance)
	}
}

func TestBaselineClassifierNames(t *testing.T) {
	for _, c := range []Orderer{SNSPrimary{}, OIFOnly{}, CostOnly{}, QoSOnly{}} {
		if c.Name() == "" {
			t.Error("classifier without name")
		}
	}
}

func TestQoSOnlyIgnoresCost(t *testing.T) {
	u := paperProfile()
	ranked := Rank(paperOffers(), u)
	Sort(ranked, QoSOnly{})
	// QoS importances: offer1 20, offer2 23, offer3 24, offer4 27.
	assertOrder(t, order(ranked), "offer4", "offer3", "offer2", "offer1")
}

// Property: classification output is a permutation of its input and the
// SNS-primary invariant holds (no Constraint offer before a non-Constraint
// one).
func TestClassifyInvariantProperty(t *testing.T) {
	u := paperProfile()
	f := func(seed uint8, prices []uint16) bool {
		if len(prices) == 0 {
			return true
		}
		if len(prices) > 12 {
			prices = prices[:12]
		}
		colors := qos.ColorQualities()
		var offers []SystemOffer
		for i, pr := range prices {
			v := qos.VideoQoS{
				Color:      colors[(int(seed)+i)%4],
				FrameRate:  5 + (i*7)%50,
				Resolution: 100 + (i*131)%1000,
			}
			offers = append(offers, videoOffer(media.VariantID(string(rune('a'+i))), v, cost.Money(pr)))
		}
		ranked := Classify(offers, u)
		if len(ranked) != len(offers) {
			return false
		}
		seenConstraint := false
		for _, r := range ranked {
			if r.Status == Constraint {
				seenConstraint = true
			} else if seenConstraint {
				return false
			}
		}
		// Within one status group, OIF is non-increasing.
		for i := 1; i < len(ranked); i++ {
			if ranked[i].Status == ranked[i-1].Status && ranked[i].OIF > ranked[i-1].OIF {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Partition is exhaustive and exclusive.
func TestPartitionProperty(t *testing.T) {
	u := paperProfile()
	f := func(prices []uint16) bool {
		if len(prices) > 10 {
			prices = prices[:10]
		}
		var offers []SystemOffer
		for i, pr := range prices {
			v := qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}
			if i%2 == 0 {
				v.Color = qos.BlackWhite
			}
			offers = append(offers, videoOffer(media.VariantID(string(rune('a'+i))), v, cost.Money(pr)*10))
		}
		ranked := Classify(offers, u)
		acc, fea := Partition(ranked, u)
		if len(acc)+len(fea) != len(ranked) {
			return false
		}
		for _, r := range acc {
			if r.Status == Constraint || !WithinBudget(*r.SystemOffer, u) {
				return false
			}
		}
		for _, r := range fea {
			if r.Status != Constraint && WithinBudget(*r.SystemOffer, u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnumerateGraphicMonomedia(t *testing.T) {
	// Graphics share the image QoS parameters and image-class decoders.
	doc := media.Document{
		ID: "graphic-doc",
		Monomedia: []media.Monomedia{{
			ID: "chart", Kind: qos.Graphic,
			Variants: []media.Variant{{
				ID: "g1", Format: media.CGM, Server: "server-1",
				QoS: qos.ImageSetting(qos.ImageQoS{Color: qos.Color, Resolution: qos.TVResolution}),
			}},
		}},
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	m := client.Workstation("c1", "n1")
	offers, err := Enumerate(doc, m, cost.DefaultPricing(), EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 {
		t.Fatalf("offers = %d", len(offers))
	}
	// Graphics are discrete: no billed streaming items.
	if len(offers[0].Cost.Network) != 0 {
		t.Errorf("graphic billed as continuous: %+v", offers[0].Cost)
	}
	// An image requirement in the profile constrains the graphic.
	u := paperProfile()
	img := qos.ImageQoS{Color: qos.SuperColor, Resolution: qos.TVResolution}
	u.Desired.Image = &img
	u.Worst.Image = &img
	if got := SNS(offers[0], u); got != Constraint {
		t.Errorf("SNS = %v, want CONSTRAINT (color below super-color)", got)
	}
}
