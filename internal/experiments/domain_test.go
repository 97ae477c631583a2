package experiments

import (
	"errors"
	"testing"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/testbed"
)

// twoDomains builds two self-contained domains, both carrying news-1, with
// the client multi-homed as client-1 in each.
func twoDomains(t *testing.T) (*Broker, *testbed.Bed, *testbed.Bed) {
	t.Helper()
	bedA := testbed.MustNew(testbed.Spec{})
	bedB := testbed.MustNew(testbed.Spec{})
	for _, bed := range []*testbed.Bed{bedA, bedB} {
		if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	broker := NewBroker(
		&Domain{Name: "provider-a", Manager: bedA.Manager, Registry: bedA.Registry},
		&Domain{Name: "provider-b", Manager: bedB.Manager, Registry: bedB.Registry},
	)
	return broker, bedA, bedB
}

func tvProfile() profile.UserProfile {
	return profile.UserProfile{
		Name: "tv",
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

func TestBrokerPicksOneAndReleasesLosers(t *testing.T) {
	broker, bedA, bedB := twoDomains(t)
	res, err := broker.Negotiate(bedA.Client(1), "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Succeeded {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Domain != "provider-a" && res.Domain != "provider-b" {
		t.Fatalf("winner = %q", res.Domain)
	}
	if len(res.PerDomain) != 2 {
		t.Errorf("per-domain = %v", res.PerDomain)
	}
	// Exactly one domain holds a live reservation (2 streams); the
	// loser's was released.
	total := bedA.Network.ActiveReservations() + bedB.Network.ActiveReservations()
	if total != 2 {
		t.Errorf("live reservations across domains = %d, want 2", total)
	}
}

func TestBrokerPrefersHealthyDomain(t *testing.T) {
	broker, bedA, bedB := twoDomains(t)
	// Cripple provider-a's servers: it can at best fail or degrade.
	for _, srv := range bedA.Servers {
		srv.SetDegradation(0.99)
	}
	res, err := broker.Negotiate(bedA.Client(1), "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Domain != "provider-b" {
		t.Fatalf("winner = %q (per-domain %v)", res.Domain, res.PerDomain)
	}
	if res.Status != core.Succeeded {
		t.Errorf("status = %v", res.Status)
	}
	if bedA.Network.ActiveReservations() != 0 {
		t.Error("loser domain kept reservations")
	}
	_ = bedB
}

func TestBrokerPrefersBetterOffer(t *testing.T) {
	broker, bedA, bedB := twoDomains(t)
	// Remove the color variants from provider-a's catalog: it can only
	// offer grey video, so provider-b's full-quality offer must win.
	doc, _ := bedA.Registry.Document("news-1")
	for mi, m := range doc.Monomedia {
		if m.Kind != qos.Video {
			continue
		}
		var kept []media.Variant
		for _, v := range m.Variants {
			if v.QoS.Video.Color < qos.Color {
				kept = append(kept, v)
			}
		}
		doc.Monomedia[mi].Variants = kept
	}
	if err := bedA.Registry.Add(doc); err != nil {
		t.Fatal(err)
	}
	res, err := broker.Negotiate(bedA.Client(1), "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Domain != "provider-b" {
		t.Fatalf("winner = %q (statuses %v)", res.Domain, res.PerDomain)
	}
	if res.Offer.Video.Color != qos.Color {
		t.Errorf("winning offer = %+v", res.Offer.Video)
	}
	// provider-a reserved a degraded offer that must have been released.
	if bedA.Network.ActiveReservations() != 0 {
		t.Error("provider-a reservation leaked")
	}
	_ = bedB
}

func TestBrokerTotalFailure(t *testing.T) {
	broker, bedA, bedB := twoDomains(t)
	for _, bed := range []*testbed.Bed{bedA, bedB} {
		for _, srv := range bed.Servers {
			srv.SetDegradation(0.999)
		}
	}
	// Worst-acceptable equal to desired so degradation cannot produce an
	// offer either.
	u := tvProfile()
	u.Worst = u.Desired
	res, err := broker.Negotiate(bedA.Client(1), "news-1", u)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.FailedTryLater {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Session != nil {
		t.Error("failure carried a session")
	}
}

func TestBrokerUnknownDocument(t *testing.T) {
	broker, bedA, _ := twoDomains(t)
	if _, err := broker.Negotiate(bedA.Client(1), "ghost", tvProfile()); !errors.Is(err, ErrNoDomain) {
		t.Errorf("unknown document: %v", err)
	}
	if len(broker.Domains()) != 2 {
		t.Error("Domains()")
	}
}

func TestBrokerPartialCatalog(t *testing.T) {
	broker, bedA, bedB := twoDomains(t)
	// Only provider-b carries news-2.
	if _, err := bedB.AddNewsArticle("news-2", "Hockey", time.Minute); err != nil {
		t.Fatal(err)
	}
	res, err := broker.Negotiate(bedA.Client(1), "news-2", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Domain != "provider-b" || len(res.PerDomain) != 1 {
		t.Errorf("winner %q, per-domain %v", res.Domain, res.PerDomain)
	}
}
