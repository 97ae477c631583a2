package experiments

import (
	"errors"
	"testing"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/offer"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

// futureFixture classifies the standard news article for a workstation.
func futureFixture(t *testing.T) ([]offer.Ranked, profile.UserProfile) {
	t.Helper()
	doc := media.BuildNewsArticle(media.NewsArticleSpec{
		ID:       "news-1",
		Title:    "T",
		Duration: 2 * time.Minute,
		Servers:  []media.ServerID{"server-1", "server-2"},
		VideoQualities: []qos.VideoQoS{
			{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			{Color: qos.Grey, FrameRate: 15, Resolution: qos.TVResolution},
		},
		AudioQualities: []qos.AudioQoS{
			{Grade: qos.CDQuality}, {Grade: qos.TelephoneQuality},
		},
	})
	mach := client.Workstation("c1", "client-1")
	offers, err := offer.Enumerate(doc, mach, cost.DefaultPricing(), offer.EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	u := profile.UserProfile{
		Name: "tv",
		Desired: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.CDQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
		},
		Worst: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.Grey, FrameRate: 10, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.TelephoneQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
		},
		Importance: profile.DefaultImportance(),
	}
	return offer.Classify(offers, u), u
}

func futurePlanner() *Planner {
	p := NewPlanner()
	p.AddResource(ServerResource("server-1"), MustCalendar(int64(8*qos.MBitPerSecond)))
	p.AddResource(ServerResource("server-2"), MustCalendar(int64(8*qos.MBitPerSecond)))
	p.AddResource(LinkResource("client-1"), MustCalendar(int64(10*qos.MBitPerSecond)))
	return p
}

func TestDemandsFor(t *testing.T) {
	ranked, _ := futureFixture(t)
	d := DemandsFor(ranked[0], LinkResource("client-1"))
	// video + audio server demands + one link demand.
	if len(d) != 3 {
		t.Fatalf("demands = %+v", d)
	}
	var link int64
	for _, dd := range d {
		if dd.Resource == LinkResource("client-1") {
			link = dd.Amount
		}
	}
	want := int64(ranked[0].Choices[0].Variant.NetworkQoS().AvgBitRate +
		ranked[0].Choices[1].Variant.NetworkQoS().AvgBitRate)
	if link != want {
		t.Errorf("link demand = %d, want %d", link, want)
	}
}

func TestFutureNegotiateBooksBestOffer(t *testing.T) {
	ranked, u := futureFixture(t)
	n := NewNegotiator(futurePlanner())
	res, err := n.Negotiate(ranked, u, LinkResource("client-1"), time.Hour, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Error("idle calendars should book the best offer")
	}
	if res.Offer.Key() != ranked[0].Key() {
		t.Errorf("booked %s, want %s", res.Offer.Key(), ranked[0].Key())
	}
	if !res.Plan.Booked() {
		t.Error("plan empty")
	}
	// The booked interval blocks competing peaks but not other times.
	cal, _ := n.Planner().Resource(LinkResource("client-1"))
	if cal.Peak(time.Hour, time.Hour+time.Minute) == 0 {
		t.Error("interval not booked")
	}
	if cal.Peak(2*time.Hour, 3*time.Hour) != 0 {
		t.Error("booking leaked outside its interval")
	}
}

func TestFutureNegotiateDegradesThenFails(t *testing.T) {
	ranked, u := futureFixture(t)
	n := NewNegotiator(futurePlanner())
	start := time.Hour
	dur := 2 * time.Minute

	var kept []Reservation
	sawDegraded := false
	for i := 0; i < 32; i++ {
		res, err := n.Negotiate(ranked, u, LinkResource("client-1"), start, dur)
		if err != nil {
			if !errors.Is(err, ErrOverbooked) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		if res.Degraded {
			sawDegraded = true
		}
		kept = append(kept, res)
	}
	if len(kept) == 0 {
		t.Fatal("nothing booked")
	}
	if len(kept) >= 32 {
		t.Fatal("calendar never filled")
	}
	_ = sawDegraded // degradation depends on the acceptable set's rates

	// A different time slot is still wide open.
	if _, err := n.Negotiate(ranked, u, LinkResource("client-1"), 5*time.Hour, dur); err != nil {
		t.Errorf("disjoint slot rejected: %v", err)
	}

	// Cancelling a reservation frees its slot.
	kept[0].Plan.Cancel()
	if _, err := n.Negotiate(ranked, u, LinkResource("client-1"), start, dur); err != nil {
		t.Errorf("freed slot rejected: %v", err)
	}
}

func TestFutureNegotiateValidation(t *testing.T) {
	ranked, u := futureFixture(t)
	n := NewNegotiator(futurePlanner())
	if _, err := n.Negotiate(ranked, u, LinkResource("client-1"), time.Hour, 0); err == nil {
		t.Error("zero duration accepted")
	}
	// Unknown client resource: every offer fails to book.
	if _, err := n.Negotiate(ranked, u, LinkResource("ghost"), time.Hour, time.Minute); !errors.Is(err, ErrOverbooked) {
		t.Errorf("ghost resource: %v", err)
	}
}
