package offer_test

import (
	"fmt"

	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/offer"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

// Example_paperClassification reproduces the paper's Section 5.2 worked
// example end-to-end: the four offers, their static negotiation statuses,
// their overall importance factors under the example's importance factors
// (color 9, grey 6, black&white 2, TV resolution 9, 25 frames/s 9,
// 15 frames/s 5, cost importance 4), and the final SNS-primary order.
func Example_paperClassification() {
	mkOffer := func(id string, v qos.VideoQoS, price cost.Money) offer.SystemOffer {
		return offer.SystemOffer{
			Document: "news-article",
			Choices: []offer.Choice{{
				Monomedia: "video",
				Variant: &media.Variant{
					ID: media.VariantID(id), Format: media.MPEG1,
					QoS: qos.VideoSetting(v), Server: "server-1",
				},
			}},
			Cost: cost.Breakdown{Total: price},
		}
	}
	offers := []offer.SystemOffer{
		mkOffer("offer1", qos.VideoQoS{Color: qos.BlackWhite, FrameRate: 25, Resolution: qos.TVResolution}, cost.DollarsFloat(2.5)),
		mkOffer("offer2", qos.VideoQoS{Color: qos.Color, FrameRate: 15, Resolution: qos.TVResolution}, cost.Dollars(4)),
		mkOffer("offer3", qos.VideoQoS{Color: qos.Grey, FrameRate: 25, Resolution: qos.TVResolution}, cost.Dollars(3)),
		mkOffer("offer4", qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}, cost.Dollars(5)),
	}
	want := qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}
	u := profile.UserProfile{
		Name:    "section-5",
		Desired: profile.MMProfile{Video: &want, Cost: profile.CostProfile{MaxCost: cost.Dollars(4)}},
		Worst:   profile.MMProfile{Video: &want, Cost: profile.CostProfile{MaxCost: cost.Dollars(4)}},
		Importance: profile.Importance{
			VideoColor:    profile.ColorWeights{qos.BlackWhite: 2, qos.Grey: 6, qos.Color: 9},
			FrameRate:     profile.NewCurve(profile.Point{X: 15, Y: 5}, profile.Point{X: 25, Y: 9}),
			Resolution:    profile.NewCurve(profile.Point{X: qos.TVResolution, Y: 9}),
			CostPerDollar: 4,
		},
	}
	for _, r := range offer.Classify(offers, u) {
		fmt.Printf("%s: SNS=%s OIF=%g\n", r.Key(), r.Status, r.OIF)
	}
	// Output:
	// offer4: SNS=ACCEPTABLE OIF=7
	// offer3: SNS=CONSTRAINT OIF=12
	// offer1: SNS=CONSTRAINT OIF=10
	// offer2: SNS=CONSTRAINT OIF=7
}
