package experiments

import (
	"fmt"
	"io"
	"time"

	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/offer"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

// This file regenerates the paper's worked examples: the motivating example
// of Section 5.1 (E1), the SNS example of Section 5.2.1 (E2), the three
// classification settings of Section 5.2.2 (E3), the QoS mapping of
// Section 6 (E4), the cost formula of Section 7 (E5), and the structural
// figures 1 and 2 (F1, F2).

// paperVideoOffer builds a single-video system offer priced at total.
func paperVideoOffer(id media.VariantID, v qos.VideoQoS, total cost.Money) offer.SystemOffer {
	return offer.SystemOffer{
		Document: "news-article",
		Choices: []offer.Choice{{
			Monomedia: "video",
			Variant: media.Variant{
				ID: id, Format: media.MPEG1, QoS: qos.VideoSetting(v), Server: "server-1",
			},
		}},
		Cost: cost.Breakdown{Total: total},
	}
}

// sectionFiveProfile is the request of Sections 5.2.1/5.2.2: desired =
// worst acceptable = (color, TV resolution, 25 frames/s), max cost 4$, with
// the example's importance factors.
func sectionFiveProfile() profile.UserProfile {
	v := qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}
	return profile.UserProfile{
		Name:    "section-5",
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

func sectionFiveOffers() []offer.SystemOffer {
	return []offer.SystemOffer{
		paperVideoOffer("offer1", qos.VideoQoS{Color: qos.BlackWhite, FrameRate: 25, Resolution: qos.TVResolution}, cost.DollarsFloat(2.5)),
		paperVideoOffer("offer2", qos.VideoQoS{Color: qos.Color, FrameRate: 15, Resolution: qos.TVResolution}, cost.Dollars(4)),
		paperVideoOffer("offer3", qos.VideoQoS{Color: qos.Grey, FrameRate: 25, Resolution: qos.TVResolution}, cost.Dollars(3)),
		paperVideoOffer("offer4", qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}, cost.Dollars(5)),
	}
}

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Motivating example: three offers against a 6$ budget",
		Paper: "Section 5.1",
		Run:   runE1,
	})
	register(Experiment{
		ID:    "E2",
		Title: "Static negotiation status of the four example offers",
		Paper: "Section 5.2.1",
		Run:   runE2,
	})
	register(Experiment{
		ID:    "E3",
		Title: "OIF classification under three importance settings",
		Paper: "Section 5.2.2",
		Run:   runE3,
	})
	register(Experiment{
		ID:    "E4",
		Title: "User-QoS to network-QoS mapping",
		Paper: "Section 6",
		Run:   runE4,
	})
	register(Experiment{
		ID:    "E5",
		Title: "Document cost: CostDoc = CostCop + Σ(CostNet + CostSer)",
		Paper: "Section 7",
		Run:   runE5,
	})
	register(Experiment{
		ID:    "F1",
		Title: "Multimedia document model",
		Paper: "Figure 1",
		Run:   runF1,
	})
	register(Experiment{
		ID:    "F2",
		Title: "MM profile structure and parameter ranges",
		Paper: "Figure 2",
		Run:   runF2,
	})
}

func runE1(w io.Writer) error {
	v := qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}
	u := profile.UserProfile{
		Name:       "motivating",
		Desired:    profile.MMProfile{Video: &v, Cost: profile.CostProfile{MaxCost: cost.Dollars(6)}},
		Worst:      profile.MMProfile{Video: &v, Cost: profile.CostProfile{MaxCost: cost.Dollars(6)}},
		Importance: profile.DefaultImportance(),
	}
	offers := []offer.SystemOffer{
		paperVideoOffer("A", qos.VideoQoS{Color: qos.Color, FrameRate: 15, Resolution: qos.TVResolution}, cost.Dollars(5)),
		paperVideoOffer("B", qos.VideoQoS{Color: qos.Grey, FrameRate: 25, Resolution: qos.TVResolution}, cost.Dollars(4)),
		paperVideoOffer("C", qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}, cost.Dollars(6)),
	}
	fmt.Fprintf(w, "request: %s at up to 6$\n", v)
	ranked := offer.Classify(offers, u)
	fmt.Fprintln(w, "classified (best first):")
	for i, r := range ranked {
		fmt.Fprintf(w, "  %d. %-10s %s  SNS=%s OIF=%.4g\n", i+1, r.Key(), r.SystemOffer, r.Status, r.OIF)
	}
	fmt.Fprintln(w, "paper: the full-quality 6$ offer is selected and reserved; only one")
	fmt.Fprintln(w, "offer is presented to the user (Section 5.1's three drawbacks avoided).")
	return nil
}

func runE2(w io.Writer) error {
	u := sectionFiveProfile()
	fmt.Fprintln(w, "request: (color, TV resolution, 25 frames/s), max cost 4$")
	fmt.Fprintln(w, "paper expects: offer1 CONSTRAINT, offer2 CONSTRAINT, offer3 CONSTRAINT, offer4 ACCEPTABLE")
	for _, o := range sectionFiveOffers() {
		fmt.Fprintf(w, "  %-7s %-55s → %s\n", o.Key(), o.String(), offer.SNS(o, u))
	}
	return nil
}

func runE3(w io.Writer) error {
	offers := sectionFiveOffers()

	type setting struct {
		name      string
		configure func(*profile.UserProfile)
		expect    string
		oifOnly   bool
	}
	settings := []setting{
		{
			name:      "(1) QoS importances set, cost importance 4",
			configure: func(*profile.UserProfile) {},
			expect:    "paper: OIF {10, 7, 12, 7}; order offer4, offer3, offer1, offer2",
		},
		{
			name:      "(2) QoS importances set, cost importance 0",
			configure: func(u *profile.UserProfile) { u.Importance.CostPerDollar = 0 },
			expect:    "paper: OIF {20, 23, 24, 27}; order offer4, offer3, offer2, offer1",
		},
		{
			name: "(3) QoS importances 0, cost importance 4",
			configure: func(u *profile.UserProfile) {
				u.Importance = profile.Importance{CostPerDollar: 4}
			},
			expect:  "paper: OIF {−10, −16, −12, −20}; order offer1, offer3, offer2, offer4 (OIF-only; see DESIGN.md)",
			oifOnly: true,
		},
	}
	for _, s := range settings {
		u := sectionFiveProfile()
		s.configure(&u)
		fmt.Fprintf(w, "%s\n  %s\n", s.name, s.expect)
		ranked := offer.Rank(offers, u)
		if s.oifOnly {
			offer.Sort(ranked, offer.OIFOnly{})
		} else {
			offer.Sort(ranked, offer.SNSPrimary{})
		}
		for i, r := range ranked {
			fmt.Fprintf(w, "  %d. %-7s OIF=%-6.4g SNS=%s\n", i+1, r.Key(), r.OIF, r.Status)
		}
		if s.oifOnly {
			ranked2 := offer.Classify(offers, u)
			fmt.Fprintf(w, "  (SNS-primary rule instead ranks %s first — the paper's example (3)\n", ranked2[0].Key())
			fmt.Fprintln(w, "   contradicts its own stated rule; both classifiers are provided)")
		}
	}
	return nil
}

func runE4(w io.Writer) error {
	fmt.Fprintln(w, "video: maxBitRate = max frame length × rate; avgBitRate = avg frame length × rate")
	video := qos.BlockStats{MaxBlockBytes: 12000, AvgBlockBytes: 6000}
	for _, rate := range []int{15, 25, 30} {
		n := qos.MapVideo(video, rate)
		fmt.Fprintf(w, "  frames 12000/6000 B at %2d frames/s → %s\n", rate, n)
	}
	fmt.Fprintln(w, "audio: maxBitRate = max sample length × sample rate (paper text has a typo; see DESIGN.md)")
	for _, g := range qos.AudioGrades() {
		blocks := qos.BlockStats{MaxBlockBytes: 4, AvgBlockBytes: 4}
		if g == qos.TelephoneQuality {
			blocks = qos.BlockStats{MaxBlockBytes: 1, AvgBlockBytes: 1}
		}
		n := qos.MapAudio(blocks, g.SampleRate())
		fmt.Fprintf(w, "  %-9s quality (%d Hz) → %s\n", g, g.SampleRate(), n)
	}
	fmt.Fprintf(w, "fixed targets per [Ste 90]: video jitter %s loss %g; audio jitter %s loss %g\n",
		qos.VideoJitter, qos.VideoLossRate, qos.AudioJitter, qos.AudioLossRate)
	return nil
}

func runE5(w io.Writer) error {
	p := cost.DefaultPricing()
	fmt.Fprintln(w, "network cost table (per second):")
	for _, c := range p.Network.Classes() {
		fmt.Fprintf(w, "  ≥ %-12s %s/s\n", c.MinRate, c.Price)
	}
	fmt.Fprintln(w, "server cost table (per second):")
	for _, c := range p.Server.Classes() {
		fmt.Fprintf(w, "  ≥ %-12s %s/s\n", c.MinRate, c.Price)
	}
	items := []cost.Item{
		{Rate: 2 * qos.MBitPerSecond, Duration: 2 * time.Minute},    // color TV video
		{Rate: 1411 * qos.KBitPerSecond, Duration: 2 * time.Minute}, // CD audio
	}
	b := p.Document(cost.Cents(50), cost.BestEffort, items)
	fmt.Fprintln(w, "2-minute news article, copyright 0.5$, best effort:")
	fmt.Fprintf(w, "  video  (2 Mbit/s):   net %-7s server %s\n", b.Network[0], b.Server[0])
	fmt.Fprintf(w, "  audio  (1.41 Mbit/s): net %-7s server %s\n", b.Network[1], b.Server[1])
	fmt.Fprintf(w, "  CostDoc = %s + Σ → %s\n", b.Copyright, b.Total)
	g := p.Document(cost.Cents(50), cost.Guaranteed, items)
	fmt.Fprintf(w, "  guaranteed service (+%d%%): %s\n", p.GuaranteedMarkupPercent, g.Total)
	return nil
}

func runF1(w io.Writer) error {
	doc := media.BuildNewsArticle(media.NewsArticleSpec{
		ID:       "news-article",
		Title:    "Election night",
		Duration: 3 * time.Minute,
		Servers:  []media.ServerID{"server-1", "server-2"},
		VideoQualities: []qos.VideoQoS{
			{Color: qos.SuperColor, FrameRate: 25, Resolution: qos.TVResolution},
			{Color: qos.BlackWhite, FrameRate: 25, Resolution: qos.TVResolution},
		},
		AudioQualities: []qos.AudioQoS{{Grade: qos.CDQuality, Language: qos.English}},
		Languages:      []qos.Language{qos.English, qos.French},
		WithImage:      true,
		CopyrightFee:   500,
	})
	fmt.Fprintf(w, "Document %q (multimedia)\n", doc.Title)
	fmt.Fprintf(w, "├─ attributes: %d temporal, %d spatial synchronization constraints\n",
		len(doc.Temporal), len(doc.Spatial))
	for i, m := range doc.Monomedia {
		branch := "├─"
		if i == len(doc.Monomedia)-1 {
			branch = "└─"
		}
		fmt.Fprintf(w, "%s monomedia %q (%s)\n", branch, m.ID, m.Kind)
		for j, v := range m.Variants {
			sub := "│  ├─"
			if i == len(doc.Monomedia)-1 {
				sub = "   ├─"
			}
			if j == len(m.Variants)-1 {
				sub = strings1(i == len(doc.Monomedia)-1)
			}
			fmt.Fprintf(w, "%s variant %s: %s %s on %s\n", sub, v.ID, v.Format, v.QoS, v.Server)
		}
	}
	fmt.Fprintln(w, "(two variants of the same video differing in color quality — the")
	fmt.Fprintln(w, " paper's super-color vs black&white example — stored on different servers)")
	return nil
}

func strings1(last bool) string {
	if last {
		return "   └─"
	}
	return "│  └─"
}

func runF2(w io.Writer) error {
	fmt.Fprintln(w, "user profile = desired MM profile + worst-acceptable MM profile + importance profile")
	fmt.Fprintln(w, "MM profile   = video + audio + text + image profiles + cost profile + time profile")
	fmt.Fprintf(w, "frame rate   : integer %d..%d frames/s (frozen %d, TV %d, HDTV %d)\n",
		qos.FrozenRate, qos.HDTVRate, qos.FrozenRate, qos.TVRate, qos.HDTVRate)
	fmt.Fprintf(w, "resolution   : integer %d..%d pixels/line (minimum %d, TV %d, HDTV %d)\n",
		qos.MinResolution, qos.HDTVResolution, qos.MinResolution, qos.TVResolution, qos.HDTVResolution)
	fmt.Fprintf(w, "color        : %v\n", qos.ColorQualities())
	fmt.Fprintf(w, "audio quality: %v\n", qos.AudioGrades())
	fmt.Fprintln(w, "cost profile : $ amounts; time profile: seconds")
	u := profile.DefaultProfiles()[0]
	fmt.Fprintf(w, "example (%q): desired %s / worst %s, max cost %s, choice period %s\n",
		u.Name, u.Desired.Video, u.Worst.Video, u.Desired.Cost.MaxCost, u.Desired.Time.ChoicePeriod)
	return nil
}
