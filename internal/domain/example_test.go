package domain_test

import (
	"fmt"
	"time"

	"qosneg/internal/domain"
	"qosneg/internal/profile"
	"qosneg/internal/testbed"
)

// ExampleBroker shows hierarchical negotiation across provider domains
// ([Haf 95b]): two providers both carry the requested article; the broker
// runs the negotiation procedure in each domain, compares the resulting
// user offers under the user's importance factors, keeps the best
// reservation and releases the other. Degrading one provider steers new
// sessions to the healthy one.
func ExampleBroker() {
	bedA := testbed.MustNew(testbed.Spec{})
	bedB := testbed.MustNew(testbed.Spec{})
	for _, bed := range []*testbed.Bed{bedA, bedB} {
		if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
			panic(err)
		}
	}
	broker := domain.NewBroker(
		&domain.Domain{Name: "provider-a", Manager: bedA.Manager, Registry: bedA.Registry},
		&domain.Domain{Name: "provider-b", Manager: bedB.Manager, Registry: bedB.Registry},
	)
	u := profile.DefaultProfiles()[0] // tv-quality

	negotiate := func(label string) {
		res, err := broker.Negotiate(bedA.Client(1), "news-1", u)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-22s → %s via %s (video %s at %s)\n",
			label, res.Status, res.Domain, res.Offer.Video, res.Session.Cost())
		fmt.Printf("  per domain: %v\n", res.PerDomain)
	}

	negotiate("both providers healthy")
	for _, srv := range bedA.Servers {
		srv.SetDegradation(0.99)
	}
	negotiate("provider-a degraded")
	for _, srv := range bedA.Servers {
		srv.SetDegradation(0)
	}
	negotiate("after recovery")
	// Output:
	// both providers healthy → SUCCEEDED via provider-a (video (color, 25 frames/s, 480 pixels/line) at 3.98$)
	//   per domain: map[provider-a:SUCCEEDED provider-b:SUCCEEDED]
	// provider-a degraded    → SUCCEEDED via provider-b (video (color, 25 frames/s, 480 pixels/line) at 3.98$)
	//   per domain: map[provider-a:FAILEDTRYLATER provider-b:SUCCEEDED]
	// after recovery         → SUCCEEDED via provider-a (video (color, 25 frames/s, 480 pixels/line) at 3.98$)
	//   per domain: map[provider-a:SUCCEEDED provider-b:SUCCEEDED]
}
