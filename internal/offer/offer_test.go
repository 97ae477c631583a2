package offer

import (
	"strings"
	"testing"

	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

// videoOffer builds a single-video system offer with the given QoS and
// total price — the shape of every offer in the paper's Section 5 examples.
func videoOffer(id media.VariantID, v qos.VideoQoS, price cost.Money) SystemOffer {
	return SystemOffer{
		Document: "news-1",
		Choices: []Choice{{
			Monomedia: "video",
			Variant: media.Variant{
				ID:     id,
				Format: media.MPEG1,
				QoS:    qos.VideoSetting(v),
				Server: "server-1",
			},
		}},
		Cost: cost.Breakdown{Total: price},
	}
}

// paperProfile is the user request of Sections 5.2.1/5.2.2: desired = worst
// acceptable = (color, TV resolution, 25 frames/s), maximum cost 4$, with
// the example's importance factors (color 9, grey 6, black&white 2, TV
// resolution 9, 25 frames/s 9, 15 frames/s 5, cost importance 4).
func paperProfile() profile.UserProfile {
	v := qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}
	return profile.UserProfile{
		Name:    "paper",
		Desired: profile.MMProfile{Video: &v, Cost: profile.CostProfile{MaxCost: cost.Dollars(4)}},
		Worst:   profile.MMProfile{Video: &v, Cost: profile.CostProfile{MaxCost: cost.Dollars(4)}},
		Importance: profile.Importance{
			VideoColor:    map[qos.ColorQuality]float64{qos.BlackWhite: 2, qos.Grey: 6, qos.Color: 9},
			FrameRate:     profile.NewCurve(profile.Point{X: 15, Y: 5}, profile.Point{X: 25, Y: 9}),
			Resolution:    profile.NewCurve(profile.Point{X: qos.TVResolution, Y: 9}),
			CostPerDollar: 4,
		},
	}
}

// paperOffers are offer1..offer4 of Section 5.2.1.
func paperOffers() []SystemOffer {
	return []SystemOffer{
		videoOffer("offer1", qos.VideoQoS{Color: qos.BlackWhite, FrameRate: 25, Resolution: qos.TVResolution}, cost.DollarsFloat(2.5)),
		videoOffer("offer2", qos.VideoQoS{Color: qos.Color, FrameRate: 15, Resolution: qos.TVResolution}, cost.Dollars(4)),
		videoOffer("offer3", qos.VideoQoS{Color: qos.Grey, FrameRate: 25, Resolution: qos.TVResolution}, cost.Dollars(3)),
		videoOffer("offer4", qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}, cost.Dollars(5)),
	}
}

func order(ranked []Ranked) []string {
	out := make([]string, len(ranked))
	for i, r := range ranked {
		out[i] = string(r.Choices[0].Variant.ID)
	}
	return out
}

func assertOrder(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestPaperSNSExample reproduces Section 5.2.1: offer1, offer2 and offer3
// are CONSTRAINT; offer4 (which matches the desired QoS exactly but costs
// 5$ against a 4$ budget) is ACCEPTABLE.
func TestPaperSNSExample(t *testing.T) {
	u := paperProfile()
	want := []Status{Constraint, Constraint, Constraint, Acceptable}
	for i, o := range paperOffers() {
		if got := SNS(o, u); got != want[i] {
			t.Errorf("offer%d SNS = %v, want %v", i+1, got, want[i])
		}
	}
}

// TestPaperClassificationSetting1 reproduces Section 5.2.2 example (1):
// OIFs 10, 7, 12, 7 and final order offer4, offer3, offer1, offer2.
func TestPaperClassificationSetting1(t *testing.T) {
	u := paperProfile()
	ranked := Classify(paperOffers(), u)
	assertOrder(t, order(ranked), "offer4", "offer3", "offer1", "offer2")
	oifByID := map[string]float64{}
	for _, r := range ranked {
		oifByID[string(r.Choices[0].Variant.ID)] = r.OIF
	}
	for id, want := range map[string]float64{"offer1": 10, "offer2": 7, "offer3": 12, "offer4": 7} {
		if oifByID[id] != want {
			t.Errorf("%s OIF = %g, want %g", id, oifByID[id], want)
		}
	}
}

// TestPaperClassificationSetting2 reproduces example (2): cost importance 0
// → OIFs 20, 23, 24, 27 and order offer4, offer3, offer2, offer1.
func TestPaperClassificationSetting2(t *testing.T) {
	u := paperProfile()
	u.Importance.CostPerDollar = 0
	ranked := Classify(paperOffers(), u)
	assertOrder(t, order(ranked), "offer4", "offer3", "offer2", "offer1")
	for i, want := range map[int]float64{0: 27, 1: 24, 2: 23, 3: 20} {
		if ranked[i].OIF != want {
			t.Errorf("rank %d OIF = %g, want %g", i, ranked[i].OIF, want)
		}
	}
}

// TestPaperClassificationSetting3 reproduces example (3): all QoS
// importances 0, cost importance 4 → OIFs −10, −16, −12, −20. The paper
// orders these by OIF alone (offer1, offer3, offer2, offer4), which the
// OIFOnly classifier reproduces; the paper's own SNS-primary rule would
// put the ACCEPTABLE offer4 first (see DESIGN.md).
func TestPaperClassificationSetting3(t *testing.T) {
	u := paperProfile()
	u.Importance = profile.Importance{CostPerDollar: 4}

	ranked := Rank(paperOffers(), u)
	Sort(ranked, OIFOnly{})
	assertOrder(t, order(ranked), "offer1", "offer3", "offer2", "offer4")
	for id, want := range map[string]float64{"offer1": -10, "offer2": -16, "offer3": -12, "offer4": -20} {
		found := false
		for _, r := range ranked {
			if string(r.Choices[0].Variant.ID) == id {
				found = true
				if r.OIF != want {
					t.Errorf("%s OIF = %g, want %g", id, r.OIF, want)
				}
			}
		}
		if !found {
			t.Errorf("%s missing", id)
		}
	}

	// The stated SNS-primary rule instead promotes offer4.
	ranked2 := Classify(paperOffers(), u)
	if got := order(ranked2); got[0] != "offer4" {
		t.Errorf("SNS-primary should put offer4 first, got %v", got)
	}
}

// TestMotivatingExample covers Section 5.1: desired (color, 25 frames/s,
// TV resolution) at up to 6$; of the three offers found, the full-quality
// 6$ one is DESIRABLE and classified first.
func TestMotivatingExample(t *testing.T) {
	v := qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}
	u := profile.UserProfile{
		Name:       "motivating",
		Desired:    profile.MMProfile{Video: &v, Cost: profile.CostProfile{MaxCost: cost.Dollars(6)}},
		Worst:      profile.MMProfile{Video: &v, Cost: profile.CostProfile{MaxCost: cost.Dollars(6)}},
		Importance: profile.DefaultImportance(),
	}
	offers := []SystemOffer{
		videoOffer("a", qos.VideoQoS{Color: qos.Color, FrameRate: 15, Resolution: qos.TVResolution}, cost.Dollars(5)),
		videoOffer("b", qos.VideoQoS{Color: qos.Grey, FrameRate: 25, Resolution: qos.TVResolution}, cost.Dollars(4)),
		videoOffer("c", qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}, cost.Dollars(6)),
	}
	ranked := Classify(offers, u)
	if string(ranked[0].Choices[0].Variant.ID) != "c" {
		t.Errorf("best offer = %v", order(ranked))
	}
	if ranked[0].Status != Desirable {
		t.Errorf("best offer status = %v", ranked[0].Status)
	}
	acceptable, feasible := Partition(ranked, u)
	if len(acceptable) != 1 || len(feasible) != 2 {
		t.Errorf("partition = %d acceptable / %d feasible", len(acceptable), len(feasible))
	}
}

func TestSNSNoRequirementMedia(t *testing.T) {
	// A profile with no video requirement accepts any video variant as
	// DESIRABLE (given the budget holds).
	u := profile.UserProfile{
		Name:       "anything",
		Desired:    profile.MMProfile{Cost: profile.CostProfile{MaxCost: cost.Dollars(10)}},
		Worst:      profile.MMProfile{Cost: profile.CostProfile{MaxCost: cost.Dollars(10)}},
		Importance: profile.DefaultImportance(),
	}
	o := videoOffer("x", qos.VideoQoS{Color: qos.BlackWhite, FrameRate: 1, Resolution: 10}, cost.Dollars(1))
	if got := SNS(o, u); got != Desirable {
		t.Errorf("SNS = %v, want DESIRABLE", got)
	}
	// Budget violation downgrades to ACCEPTABLE, not CONSTRAINT.
	o.Cost.Total = cost.Dollars(11)
	if got := SNS(o, u); got != Acceptable {
		t.Errorf("SNS over budget = %v, want ACCEPTABLE", got)
	}
}

func TestStatusString(t *testing.T) {
	if Desirable.String() != "DESIRABLE" || Acceptable.String() != "ACCEPTABLE" || Constraint.String() != "CONSTRAINT" {
		t.Error("status names")
	}
	if !strings.HasPrefix(Status(9).String(), "Status(") {
		t.Error("unknown status string")
	}
}

func TestUserOfferDerivation(t *testing.T) {
	o := paperOffers()[3]
	o.Choices = append(o.Choices, Choice{
		Monomedia: "audio",
		Variant: media.Variant{
			ID: "a1", Format: media.MPEG1Audio,
			QoS:    qos.AudioSetting(qos.AudioQoS{Grade: qos.CDQuality, Language: qos.French}),
			Server: "server-2",
		},
	})
	p := o.UserOffer()
	if p.Video == nil || p.Video.Color != qos.Color || p.Video.FrameRate != 25 {
		t.Errorf("video section = %+v", p.Video)
	}
	if p.Audio == nil || p.Audio.Grade != qos.CDQuality || p.Audio.Language != qos.French {
		t.Errorf("audio section = %+v", p.Audio)
	}
	if p.Cost.MaxCost != cost.Dollars(5) {
		t.Errorf("cost section = %v", p.Cost.MaxCost)
	}
}

func TestOfferStringAndKey(t *testing.T) {
	o := paperOffers()[0]
	s := o.String()
	if !strings.Contains(s, "black&white") || !strings.Contains(s, "2.5$") {
		t.Errorf("String() = %q", s)
	}
	if o.Key() != "offer1" {
		t.Errorf("Key() = %q", o.Key())
	}
}

func TestWithinBudget(t *testing.T) {
	u := paperProfile()
	if !WithinBudget(paperOffers()[1], u) { // 4$ at 4$ cap
		t.Error("exact budget should be within")
	}
	if WithinBudget(paperOffers()[3], u) { // 5$ at 4$ cap
		t.Error("5$ offer within a 4$ budget")
	}
}

func TestClassifyDeterministicTieBreak(t *testing.T) {
	// Two offers identical except for variant id: order must be stable by
	// key.
	v := qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}
	offers := []SystemOffer{
		videoOffer("zz", v, cost.Dollars(3)),
		videoOffer("aa", v, cost.Dollars(3)),
	}
	u := paperProfile()
	r1 := Classify(offers, u)
	r2 := Classify([]SystemOffer{offers[1], offers[0]}, u)
	if r1[0].Key() != "aa" || r2[0].Key() != "aa" {
		t.Errorf("tie break unstable: %v vs %v", order(r1), order(r2))
	}
}
