package qosneg_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"qosneg"
	"qosneg/internal/core"
	"qosneg/internal/testbed"
)

// TestErrorContract exercises every typed sentinel the package comment
// documents, end-to-end through the facade.
func TestErrorContract(t *testing.T) {
	sys, err := qosneg.New(qosneg.WithClients(1), qosneg.WithServers(2))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := sys.AddNewsArticle("news-1", "Election night", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := sys.Negotiate(ctx, "ghost", doc.ID, "tv-quality"); !errors.Is(err, qosneg.ErrClientNotFound) {
		t.Errorf("unknown client: %v, want ErrClientNotFound", err)
	}
	if _, err := sys.Negotiate(ctx, "client-1", doc.ID, "ghost"); !errors.Is(err, qosneg.ErrProfileNotFound) {
		t.Errorf("unknown profile: %v, want ErrProfileNotFound", err)
	}
	if err := sys.Manager.Confirm(9999); !errors.Is(err, qosneg.ErrSessionNotFound) {
		t.Errorf("unknown session: %v, want ErrSessionNotFound", err)
	}

	res, err := sys.Negotiate(ctx, "client-1", doc.ID, "tv-quality")
	if err != nil || res.Session == nil {
		t.Fatalf("negotiation failed: %v %v", res.Status, err)
	}
	if err := sys.Manager.Expire(res.Session.ID); err != nil {
		t.Fatal(err)
	}
	if err := sys.Manager.Confirm(res.Session.ID); !errors.Is(err, qosneg.ErrChoicePeriodExpired) {
		t.Errorf("confirm after expiry: %v, want ErrChoicePeriodExpired", err)
	}

	// A one-offer enumeration bound trips ErrTooManyOffers on the same
	// multi-variant document.
	opts := core.DefaultOptions()
	opts.MaxOffers = 1
	tight := testbed.MustNew(testbed.Spec{Clients: 1, Servers: 2, Options: &opts})
	if _, err := tight.AddNewsArticle("news-1", "Election night", time.Minute); err != nil {
		t.Fatal(err)
	}
	u, err := sys.Profiles.Get("tv-quality")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tight.Manager.NegotiateContext(ctx, tight.Client(1), "news-1", u); !errors.Is(err, qosneg.ErrTooManyOffers) {
		t.Errorf("tight MaxOffers: %v, want ErrTooManyOffers", err)
	}
}
