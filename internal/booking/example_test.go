package booking_test

import (
	"fmt"
	"time"

	"qosneg/internal/booking"
	"qosneg/internal/client"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/offer"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

// ExampleNegotiator shows future reservations ([Haf 96], cited from §5):
// users book a prime-time slot in advance. The negotiator classifies offers
// as §5 prescribes, then books the best one whose resource demands fit the
// requested interval in the capacity calendars; when the slot is full the
// user shifts the start time instead of being blocked.
func ExampleNegotiator() {
	// One stored rendition: color TV video + CD audio, 30 minutes.
	dur := 30 * time.Minute
	doc := media.Document{
		ID: "evening-news", Title: "Evening news",
		Monomedia: []media.Monomedia{
			{ID: "video", Kind: qos.Video, Duration: dur,
				Variants: []media.Variant{media.VideoVariant("v1", "server-1", media.MPEG1,
					qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}, dur)}},
			{ID: "audio", Kind: qos.Audio, Duration: dur,
				Variants: []media.Variant{media.AudioVariant("a1", "server-2", media.MPEG1Audio,
					qos.AudioQoS{Grade: qos.CDQuality}, dur)}},
		},
	}
	mach := client.Workstation("c1", "client-1")
	offers, err := offer.Enumerate(doc, mach, cost.DefaultPricing(), offer.EnumerateOptions{})
	if err != nil {
		panic(err)
	}
	u := profile.DefaultProfiles()[0]
	ranked := offer.Classify(offers, u)
	perSession := int64(ranked[0].Choices[0].Variant.NetworkQoS().AvgBitRate +
		ranked[0].Choices[1].Variant.NetworkQoS().AvgBitRate)

	// Capacity calendars sized for 3 concurrent sessions.
	planner := booking.NewPlanner()
	for _, r := range []string{
		booking.ServerResource("server-1"),
		booking.ServerResource("server-2"),
		booking.LinkResource("client-1"),
	} {
		planner.AddResource(r, booking.MustCalendar(perSession*3))
	}
	neg := booking.NewNegotiator(planner)

	prime := 20 * time.Hour // 8 pm
	for user := 1; user <= 8; user++ {
		booked := false
		for shift := time.Duration(0); shift <= 3*dur; shift += dur {
			res, err := neg.Negotiate(ranked, u, booking.LinkResource("client-1"), prime+shift, dur)
			if err != nil {
				continue
			}
			fmt.Printf("user %d: booked %s at %s", user, res.Offer.Key(), prime+shift)
			if shift > 0 {
				fmt.Printf(" (prime time full, shifted %s)", shift)
			}
			fmt.Println()
			booked = true
			break
		}
		if !booked {
			fmt.Printf("user %d: no slot within 3 shifts\n", user)
		}
	}
	cal, _ := planner.Resource(booking.LinkResource("client-1"))
	fmt.Printf("client link at prime time: %d of %d units committed\n",
		cal.Peak(prime, prime+dur), cal.Capacity())
	// Output:
	// user 1: booked v1+a1 at 20h0m0s
	// user 2: booked v1+a1 at 20h0m0s
	// user 3: booked v1+a1 at 20h0m0s
	// user 4: booked v1+a1 at 20h30m0s (prime time full, shifted 30m0s)
	// user 5: booked v1+a1 at 20h30m0s (prime time full, shifted 30m0s)
	// user 6: booked v1+a1 at 20h30m0s (prime time full, shifted 30m0s)
	// user 7: booked v1+a1 at 21h0m0s (prime time full, shifted 1h0m0s)
	// user 8: booked v1+a1 at 21h0m0s (prime time full, shifted 1h0m0s)
	// client link at prime time: 12009600 of 12009600 units committed
}
